//! Shared harness for the verifier's dynamic-check tests: a simulator
//! replay that executes a transaction stream against a fresh channel wired
//! exactly like the lint-capture harness.

use std::panic::{catch_unwind, AssertUnwindSafe};

use babol_channel::Channel;
use babol_flash::array::ContentMode;
use babol_flash::lun::{LunConfig, LunStats};
use babol_flash::{Lun, PackageProfile};
use babol_onfi::addr::RowAddr;
use babol_onfi::bus::PhaseKind;
use babol_sim::{Dram, SimTime};
use babol_trace::Tracer;
use babol_ufsm::{execute, EmitConfig, EmitScratch, Transaction};

/// Replays a stream through a fresh simulated channel, wired exactly like
/// `babol::lintcap::capture` (same LUN count, same pre-programmed seed
/// pages). Returns `Err` when the simulator rejects the stream — an
/// execute error or a panic anywhere in the flash model. Status-level
/// failures (e.g. reading a pristine page) are *not* rejections: `execute`
/// reports them in the status byte and carries on, like real hardware.
///
/// Callers must never have constructed a `babol::system::System` in the
/// same process: that installs the debug verification hook, which would
/// panic inside `execute` before the replay could observe the simulator's
/// own verdict.
pub fn sim_replay(profile: &PackageProfile, stream: &[Transaction]) -> Result<(), String> {
    let lun_count = profile.luns_per_channel.max(2);
    let luns: Vec<Lun> = (0..lun_count)
        .map(|i| {
            Lun::new(LunConfig {
                profile: profile.clone(),
                content: ContentMode::Pristine,
                seed: i as u64 + 1,
                inject_errors: false,
                require_init: false,
            })
        })
        .collect();
    let mut channel = Channel::new(luns);
    let mut dram = Dram::new();
    let emit = EmitConfig::nv_ddr2(profile.max_mts.min(200));

    let len = profile.geometry.page_size.min(2048);
    let seed_page = vec![0x5Au8; len];
    for lun in 0..lun_count {
        let array = channel.lun_mut(lun).array_mut();
        for page in 0..4 {
            array
                .program_page(
                    RowAddr {
                        lun,
                        block: 0,
                        page,
                    },
                    &seed_page,
                    false,
                )
                .expect("seed program");
        }
        array
            .program_page(
                RowAddr {
                    lun,
                    block: 1,
                    page: 0,
                },
                &seed_page,
                false,
            )
            .expect("seed program");
    }

    let (mut trace, mut scratch) = (Tracer::disabled(), EmitScratch::default());
    let mut now = SimTime::ZERO;
    for (i, txn) in stream.iter().enumerate() {
        let start = now.max(channel.busy_until());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute(
                &mut channel,
                &mut dram,
                &emit,
                start,
                txn,
                0,
                &mut trace,
                &mut scratch,
            )
        }));
        match outcome {
            Err(_) => return Err(format!("txn {i}: flash model panicked")),
            Ok(Err(e)) => return Err(format!("txn {i}: {e:?}")),
            Ok(Ok(out)) => {
                // The replay has no coroutine pacing, so let every array
                // busy period expire before the next transaction — only
                // intra-transaction timing faults should trip the model.
                now = out.end;
                for lun in 0..channel.lun_count() {
                    if let Some(busy) = channel.lun(lun).busy_until() {
                        now = now.max(busy);
                    }
                }
            }
        }
    }
    Ok(())
}

/// What the simulator actually did for one transaction, measured the way
/// the static envelope brackets it: elapsed wall-clock from transaction
/// start to the latest of (bus free, every LUN ready), and the array +
/// transfer work the LUN stats charged inside that window.
#[derive(Debug, Clone, Copy, Default)]
#[allow(dead_code)] // each test binary uses its own slice of this module
pub struct TxnMeasure {
    /// Elapsed picoseconds for this transaction.
    pub elapsed_ps: u64,
    /// Pages fetched (reads committed) in the window.
    pub reads: u64,
    /// Program pulses applied in the window.
    pub program_attempts: u64,
    /// Erase pulses applied in the window.
    pub erase_attempts: u64,
    /// Bus bytes moved (data-in + data-out) in the window.
    pub bytes: u64,
}

#[allow(dead_code)]
fn stats_sum(channel: &Channel) -> LunStats {
    let mut total = LunStats::default();
    for lun in 0..channel.lun_count() {
        let s = channel.lun(lun).stats();
        total.reads += s.reads;
        total.program_attempts += s.program_attempts;
        total.erase_attempts += s.erase_attempts;
        total.bytes_in += s.bytes_in;
        total.bytes_out += s.bytes_out;
    }
    total
}

/// [`sim_replay`], instrumented per transaction. Same wiring and pacing,
/// plus: after every transaction's busy windows expire, a zero-cost
/// `Pause` phase is delivered to each LUN so deferred array effects
/// (page loads, program/erase commits) land in *this* transaction's stats
/// window — the same window the envelope analyzer charges them to.
#[allow(dead_code)]
pub fn sim_replay_measured(
    profile: &PackageProfile,
    stream: &[Transaction],
) -> Result<Vec<TxnMeasure>, String> {
    let lun_count = profile.luns_per_channel.max(2);
    let luns: Vec<Lun> = (0..lun_count)
        .map(|i| {
            Lun::new(LunConfig {
                profile: profile.clone(),
                content: ContentMode::Pristine,
                seed: i as u64 + 1,
                inject_errors: false,
                require_init: false,
            })
        })
        .collect();
    let mut channel = Channel::new(luns);
    let mut dram = Dram::new();
    let emit = EmitConfig::nv_ddr2(profile.max_mts.min(200));

    let len = profile.geometry.page_size.min(2048);
    let seed_page = vec![0x5Au8; len];
    for lun in 0..lun_count {
        let array = channel.lun_mut(lun).array_mut();
        for page in 0..4 {
            array
                .program_page(
                    RowAddr {
                        lun,
                        block: 0,
                        page,
                    },
                    &seed_page,
                    false,
                )
                .expect("seed program");
        }
        array
            .program_page(
                RowAddr {
                    lun,
                    block: 1,
                    page: 0,
                },
                &seed_page,
                false,
            )
            .expect("seed program");
    }

    let mut measures = Vec::with_capacity(stream.len());
    let mut now = SimTime::ZERO;
    let mut prev = stats_sum(&channel);
    let (mut trace, mut scratch) = (Tracer::disabled(), EmitScratch::default());
    for (i, txn) in stream.iter().enumerate() {
        let start = now.max(channel.busy_until());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute(
                &mut channel,
                &mut dram,
                &emit,
                start,
                txn,
                0,
                &mut trace,
                &mut scratch,
            )
        }));
        match outcome {
            Err(_) => return Err(format!("txn {i}: flash model panicked")),
            Ok(Err(e)) => return Err(format!("txn {i}: {e:?}")),
            Ok(Ok(out)) => {
                now = out.end;
                for lun in 0..channel.lun_count() {
                    if let Some(busy) = channel.lun(lun).busy_until() {
                        now = now.max(busy);
                    }
                }
                // Flush deferred completion effects into this window.
                for lun in 0..channel.lun_count() {
                    channel
                        .lun_mut(lun)
                        .phase(now, &PhaseKind::Pause)
                        .map_err(|e| format!("txn {i}: flush pause rejected: {e:?}"))?;
                }
                let cur = stats_sum(&channel);
                measures.push(TxnMeasure {
                    elapsed_ps: (now - start).as_picos(),
                    reads: cur.reads - prev.reads,
                    program_attempts: cur.program_attempts - prev.program_attempts,
                    erase_attempts: cur.erase_attempts - prev.erase_attempts,
                    bytes: (cur.bytes_in - prev.bytes_in) + (cur.bytes_out - prev.bytes_out),
                });
                prev = cur;
            }
        }
    }
    Ok(measures)
}
