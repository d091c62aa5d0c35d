//! Host-time benchmark of the BABOL simulator.
//!
//! ```sh
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload read_1ch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (README.md lists both). Each prints `name value unit` lines, then
//! one JSON record as the last line, and exits non-zero when a
//! correctness check failed. `--quick` runs 2 chunks and one setup.

mod e2e;
mod layers;
mod probe;
mod report;
mod workload;

use std::process::ExitCode;

/// Timed chunks per second of `--seconds`: chunks take ~0.2 s each on the
/// reference host, so the default 10 s runs 50.
const CHUNKS_PER_SECOND: u64 = 5;

/// Constructions per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut quick) = (1, 10, false, false);
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        quick,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: babol-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (chunks, setups) = if args.quick {
        (2, 1)
    } else {
        ((args.seconds * CHUNKS_PER_SECOND).max(2), SETUPS)
    };
    let w = &args.workload;
    let mut out = if args.trace {
        layers::measure(w, args.seed, chunks)
    } else {
        e2e::measure(w, args.seed, chunks, setups)
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.notes.push(("host_cpus", cpus.to_string()));
    out.notes.push(("workload", w.name.to_string()));
    out.notes.push(("seed", args.seed.to_string()));
    print!("{}", out.render());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
