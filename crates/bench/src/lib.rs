//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `repro_*` binary in `src/bin/` reproduces one table or figure; this
//! library holds the shared plumbing: system assembly, controller
//! construction, the standard read microbenchmark, line-of-code counting,
//! and plain-text table rendering. `EXPERIMENTS.md` at the workspace root
//! records paper-vs-measured values for each experiment.

use babol::factory::{coro_controller, rtos_controller};
use babol::hw::{CosmosController, SyncController};
use babol::runtime::{RuntimeConfig, SoftController};
use babol::system::{Controller, Engine, RunReport, System};
use babol::workload::{Order, ReadWorkload};
use babol_channel::Channel;
use babol_flash::array::ContentMode;
use babol_flash::lun::LunConfig;
use babol_flash::{Lun, PackageProfile};
use babol_sim::{CostModel, Cpu, Freq, SimDuration};
use babol_trace::Tracer;
use babol_ufsm::EmitConfig;

pub mod loc;

/// The controller variants compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerKind {
    /// The asynchronous hardware baseline ("HW" in Fig. 10, the unmodified
    /// Cosmos+ in Fig. 12).
    HwAsync,
    /// The synchronous hardware controller (Qiu et al. style).
    HwSync,
    /// BABOL with the FreeRTOS-style software environment.
    Rtos,
    /// BABOL with the coroutine software environment.
    Coro,
}

impl ControllerKind {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            ControllerKind::HwAsync => "HW",
            ControllerKind::HwSync => "SyncHW",
            ControllerKind::Rtos => "RTOS",
            ControllerKind::Coro => "Coro",
        }
    }

    /// CPU cost model for this controller (hardware runs free).
    pub fn cost_model(self) -> CostModel {
        match self {
            ControllerKind::HwAsync | ControllerKind::HwSync => CostModel::free(),
            ControllerKind::Rtos => CostModel::rtos(),
            ControllerKind::Coro => CostModel::coroutine(),
        }
    }
}

/// Builds a channel system: `luns` instances of `profile`, NV-DDR2 at
/// `mts`, CPU at `cpu_mhz` with `kind`'s cost model, arrays preloaded with
/// data and error injection off (the throughput experiments).
pub fn build_system(
    profile: &PackageProfile,
    luns: u32,
    mts: u32,
    cpu_mhz: u64,
    kind: ControllerKind,
) -> System {
    let l = (0..luns)
        .map(|i| {
            Lun::new(LunConfig {
                profile: profile.clone(),
                content: ContentMode::Preloaded { seed: 0xBAB01 },
                seed: i as u64 + 1,
                inject_errors: false,
                require_init: false,
            })
        })
        .collect();
    System::new(
        Channel::new(l),
        EmitConfig::nv_ddr2(mts),
        Cpu::new(Freq::from_mhz(cpu_mhz), kind.cost_model()),
    )
}

/// Builds a controller of the given kind for `profile` wired with `luns`.
pub fn build_controller(
    kind: ControllerKind,
    profile: &PackageProfile,
    luns: u32,
) -> Box<dyn Controller> {
    let layout = profile.layout();
    match kind {
        ControllerKind::HwAsync => Box::new(CosmosController::new(layout, luns)),
        ControllerKind::HwSync => Box::new(SyncController::new(layout, luns)),
        ControllerKind::Rtos => Box::new(rtos_controller(layout, RuntimeConfig::rtos())),
        ControllerKind::Coro => Box::new(coro_controller(layout, RuntimeConfig::coroutine())),
    }
}

/// Builds a BABOL software controller with a custom runtime configuration
/// (ablation studies).
pub fn build_soft_controller(
    kind: ControllerKind,
    profile: &PackageProfile,
    cfg: RuntimeConfig,
) -> SoftController {
    let layout = profile.layout();
    match kind {
        ControllerKind::Rtos => rtos_controller(layout, cfg),
        ControllerKind::Coro => coro_controller(layout, cfg),
        other => panic!("{other:?} is not a software controller"),
    }
}

/// One point of the Fig. 10 microbenchmark: full-page sequential reads
/// across `luns` LUNs; returns the run report.
pub fn read_microbench(
    profile: &PackageProfile,
    luns: u32,
    mts: u32,
    cpu_mhz: u64,
    kind: ControllerKind,
    count: u64,
) -> RunReport {
    read_microbench_traced(profile, luns, mts, cpu_mhz, kind, count, false).0
}

/// [`read_microbench`] with the controller-wide tracing layer switched on
/// when `trace` is set; returns the tracer alongside the report so callers
/// can export the event timeline or read the counters. With `trace` false
/// the returned tracer is empty and disabled — useful for on/off
/// determinism comparisons.
pub fn read_microbench_traced(
    profile: &PackageProfile,
    luns: u32,
    mts: u32,
    cpu_mhz: u64,
    kind: ControllerKind,
    count: u64,
    trace: bool,
) -> (RunReport, Tracer) {
    let mut sys = build_system(profile, luns, mts, cpu_mhz, kind);
    if trace {
        sys.trace = Tracer::enabled();
    }
    let mut ctrl = build_controller(kind, profile, luns);
    let reqs = ReadWorkload {
        luns,
        count,
        order: Order::Sequential,
        len: profile.geometry.page_size,
    }
    .generate(&profile.geometry);
    let report = Engine::new(1).run(&mut sys, ctrl.as_mut(), reqs);
    (report, std::mem::take(&mut sys.trace))
}

/// The CPU frequencies swept in Fig. 10. 150 MHz stands for the MicroBlaze
/// soft-core (marked '*' in the paper); the rest emulate scaling the ARM
/// core.
pub const FIG10_FREQS_MHZ: [u64; 4] = [150, 200, 400, 1000];

/// Formats a plain-text table: `widths[i]`-padded columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Simulated transfer time of one full page at `mts` through the μFSM
/// engine (the measured "Page transfer time" rows of Table I).
pub fn page_transfer_time(mts: u32) -> SimDuration {
    use babol_onfi::bus::ChipMask;
    use babol_ufsm::{DmaDest, Transaction};
    let cfg = EmitConfig::nv_ddr2(mts);
    let txn = Transaction::new(ChipMask::single(0)).read(16384, DmaDest::Dram(0));
    cfg.duration_of(&txn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_runs_every_controller_kind() {
        let profile = PackageProfile::test_tiny();
        for kind in [
            ControllerKind::HwAsync,
            ControllerKind::HwSync,
            ControllerKind::Rtos,
            ControllerKind::Coro,
        ] {
            let r = read_microbench(&profile, 2, 200, 1000, kind, 8);
            assert_eq!(r.completions.len(), 8, "{kind:?}");
            assert!(r.throughput_mbps() > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn hw_beats_slow_coro() {
        let profile = PackageProfile::test_tiny();
        let hw = read_microbench(&profile, 2, 200, 150, ControllerKind::HwAsync, 16);
        let coro = read_microbench(&profile, 2, 200, 150, ControllerKind::Coro, 16);
        assert!(hw.throughput_mbps() > coro.throughput_mbps());
    }

    #[test]
    fn table_rendering_aligns() {
        let s = render_table(
            &["a", "bbb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        assert!(s.contains("a  bbb") || s.contains(" a  bbb"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn page_transfer_times_match_table1() {
        let t200 = page_transfer_time(200).as_micros_f64();
        let t100 = page_transfer_time(100).as_micros_f64();
        assert!((97.0..103.0).contains(&t200), "{t200}");
        assert!((178.0..189.0).contains(&t100), "{t100}");
    }
}
