//! Shared harness for the verifier's dynamic-check tests: a simulator
//! replay that executes a transaction stream on the lint-capture harness's
//! own rig (`babol::lintcap::rig`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use babol::lintcap;
use babol_channel::Channel;
use babol_flash::lun::LunStats;
use babol_flash::PackageProfile;
use babol_sim::SimTime;
use babol_trace::Tracer;
use babol_ufsm::{execute, EmitScratch, Transaction};

/// Replays a stream on a fresh `lintcap::rig` (same LUN count, same
/// pre-programmed seed pages, same DRAM source data). Returns `Err` when
/// the simulator rejects the stream — an execute error or a panic anywhere
/// in the flash model. Status-level failures (e.g. reading a pristine page)
/// are *not* rejections: `execute` reports them in the status byte and
/// carries on, like real hardware.
///
/// Callers must never have constructed a `babol::system::System` in the
/// same process: that installs the debug verification hook, which would
/// panic inside `execute` before the replay could observe the simulator's
/// own verdict.
pub fn sim_replay(profile: &PackageProfile, stream: &[Transaction]) -> Result<(), String> {
    sim_replay_measured(profile, stream).map(drop)
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

/// [`sim_replay`], measured per transaction. The replay has no coroutine
/// pacing, so every array busy period expires before the next transaction
/// (only intra-transaction timing faults trip the model), and a zero-cost
/// settle of each LUN then lands deferred array effects (page loads,
/// program/erase commits) in *this* transaction's stats window — the same
/// window the envelope analyzer charges them to.
pub fn sim_replay_measured(
    profile: &PackageProfile,
    stream: &[Transaction],
) -> Result<Vec<TxnMeasure>, String> {
    let (mut channel, mut dram, emit) = lintcap::rig(profile);
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
                    channel.lun_mut(lun).settle(now);
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
