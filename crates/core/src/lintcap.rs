//! Lint-capture harness: records the transaction stream of each shipped
//! coroutine operation.
//!
//! The static verifier (`babol-verify`) lints *programs*, but the operation
//! library in [`crate::ops`] is made of `async fn`s — their μFSM programs
//! only exist once the coroutine runs against real hardware state (status
//! polling, retry loops). This module runs one operation at a time against
//! a fresh simulated channel, plays every transaction it emits through the
//! real execution engine (so polls terminate and data flows), and returns
//! the emitted transactions in order. `examples/ufsm_lint.rs` and the
//! mutation/differential tests feed these captures to the verifier.

use babol_channel::Channel;
use babol_flash::array::ContentMode;
use babol_flash::lun::LunConfig;
use babol_flash::{Lun, PackageProfile};
use babol_onfi::addr::RowAddr;
use babol_sim::{Dram, SimDuration, SimTime};
use babol_trace::Tracer;
use babol_ufsm::{execute, EmitConfig, EmitScratch, Transaction};

use crate::ops::{self, Target};
use crate::runtime::coro::{CoroTask, OpCtx};
use crate::runtime::{SoftTask, TaskStatus, TxnResult};

/// One operation of the shipped coroutine library, as a capturable unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// [`ops::read_status`]
    ReadStatus,
    /// [`ops::wait_ready`] (a poll loop over READ STATUS)
    WaitReady,
    /// [`ops::read_page`]
    ReadPage,
    /// [`ops::read_page_pslc`]
    ReadPagePslc,
    /// [`ops::program_page`]
    ProgramPage,
    /// [`ops::program_page_pslc`]
    ProgramPagePslc,
    /// [`ops::erase_block`]
    EraseBlock,
    /// [`ops::set_features`]
    SetFeatures,
    /// [`ops::get_features`]
    GetFeatures,
    /// [`ops::read_id`]
    ReadId,
    /// [`ops::reset`]
    Reset,
    /// [`ops::read_param_page`]
    ReadParamPage,
    /// [`ops::read_with_retry`]
    ReadWithRetry,
    /// [`ops::gang_read`]
    GangRead,
    /// [`ops::cache_read_seq`]
    CacheReadSeq,
    /// [`ops::multi_plane_read`]
    MultiPlaneRead,
    /// [`ops::erase_with_suspended_read`]
    EraseWithSuspendedRead,
}

impl OpKind {
    /// Every operation the library ships, in source order.
    pub const ALL: &'static [OpKind] = &[
        OpKind::ReadStatus,
        OpKind::WaitReady,
        OpKind::ReadPage,
        OpKind::ReadPagePslc,
        OpKind::ProgramPage,
        OpKind::ProgramPagePslc,
        OpKind::EraseBlock,
        OpKind::SetFeatures,
        OpKind::GetFeatures,
        OpKind::ReadId,
        OpKind::Reset,
        OpKind::ReadParamPage,
        OpKind::ReadWithRetry,
        OpKind::GangRead,
        OpKind::CacheReadSeq,
        OpKind::MultiPlaneRead,
        OpKind::EraseWithSuspendedRead,
    ];

    /// The operation's name as it appears in `ops.rs`.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::ReadStatus => "read_status",
            OpKind::WaitReady => "wait_ready",
            OpKind::ReadPage => "read_page",
            OpKind::ReadPagePslc => "read_page_pslc",
            OpKind::ProgramPage => "program_page",
            OpKind::ProgramPagePslc => "program_page_pslc",
            OpKind::EraseBlock => "erase_block",
            OpKind::SetFeatures => "set_features",
            OpKind::GetFeatures => "get_features",
            OpKind::ReadId => "read_id",
            OpKind::Reset => "reset",
            OpKind::ReadParamPage => "read_param_page",
            OpKind::ReadWithRetry => "read_with_retry",
            OpKind::GangRead => "gang_read",
            OpKind::CacheReadSeq => "cache_read_seq",
            OpKind::MultiPlaneRead => "multi_plane_read",
            OpKind::EraseWithSuspendedRead => "erase_with_suspended_read",
        }
    }
}

/// DRAM addresses the captured operations use; far apart so streams never
/// overlap.
const DEST: u64 = 0x2_0000;
const SRC: u64 = 0x8_0000;
const SCRATCH: u64 = 0xF_0000;

/// Runs `kind` against a pristine channel wired per `profile` and returns
/// every transaction the operation emitted, in emission order.
///
/// The harness is a miniature, deterministic stand-in for the full
/// [`crate::system::Engine`]: it advances the coroutine, forwards staged
/// DRAM writes, executes each transaction with the real μFSM engine at the
/// earliest legal bus time, honours sleeps by jumping simulated time, and
/// delivers results until the operation finishes.
///
/// # Panics
///
/// Panics if the operation livelocks (no transaction, sleep, or completion
/// for many consecutive advances) or a transaction fails to execute — both
/// indicate a bug worth failing a lint run over.
pub fn capture(profile: &PackageProfile, kind: OpKind) -> Vec<Transaction> {
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

    let layout = profile.layout();
    let t = Target { chip: 0, layout };
    let len = profile.geometry.page_size.min(2048);
    let row = |block: u32, page: u32| RowAddr {
        lun: 0,
        block,
        page,
    };
    // Source data for program-flavoured captures, and pre-programmed pages
    // for the read-flavoured ones (reading a never-programmed page reports
    // FAIL, which would derail the capture into the error path).
    dram.write(SRC, &vec![0xA5u8; len]);
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

    let ctx = OpCtx::new(0, 0);
    // A realistic pacing quantum, so poll loops sleep instead of hammering
    // the bus (and the capture loop can make time progress).
    ctx.set_poll_backoff(SimDuration::from_micros(2));

    let mut task: CoroTask = {
        let c = ctx.clone();
        match kind {
            OpKind::ReadStatus => CoroTask::new(&ctx, async move {
                ops::read_status(&c, &t).await;
            }),
            OpKind::WaitReady => CoroTask::new(&ctx, async move {
                ops::wait_ready(&c, &t).await;
            }),
            OpKind::ReadPage => CoroTask::new(&ctx, async move {
                ops::read_page(&c, &t, row(0, 0), 0, len, DEST)
                    .await
                    .unwrap();
            }),
            OpKind::ReadPagePslc => CoroTask::new(&ctx, async move {
                ops::read_page_pslc(&c, &t, row(0, 0), 0, len, DEST)
                    .await
                    .unwrap();
            }),
            OpKind::ProgramPage => CoroTask::new(&ctx, async move {
                ops::program_page(&c, &t, row(4, 0), SRC, len)
                    .await
                    .unwrap();
            }),
            OpKind::ProgramPagePslc => CoroTask::new(&ctx, async move {
                ops::program_page_pslc(&c, &t, row(4, 0), SRC, len)
                    .await
                    .unwrap();
            }),
            OpKind::EraseBlock => CoroTask::new(&ctx, async move {
                ops::erase_block(&c, &t, row(2, 0)).await.unwrap();
            }),
            OpKind::SetFeatures => CoroTask::new(&ctx, async move {
                ops::set_features(&c, &t, 0x01, [0x05, 0, 0, 0], SCRATCH)
                    .await
                    .unwrap();
            }),
            OpKind::GetFeatures => CoroTask::new(&ctx, async move {
                ops::get_features(&c, &t, 0x01).await;
            }),
            OpKind::ReadId => CoroTask::new(&ctx, async move {
                ops::read_id(&c, &t, 8).await;
            }),
            OpKind::Reset => CoroTask::new(&ctx, async move {
                ops::reset(&c, &t).await.unwrap();
            }),
            OpKind::ReadParamPage => CoroTask::new(&ctx, async move {
                ops::read_param_page(&c, &t, 3).await;
            }),
            OpKind::ReadWithRetry => CoroTask::new(&ctx, async move {
                // Reject level 0 once so the retry path (SET FEATURES +
                // re-read) is part of the capture.
                ops::read_with_retry(&c, &t, row(0, 1), len, DEST, SCRATCH, 3, |level| level >= 1)
                    .await
                    .unwrap();
            }),
            OpKind::GangRead => CoroTask::new(&ctx, async move {
                let targets = [Target { chip: 0, layout }, Target { chip: 1, layout }];
                ops::gang_read(&c, &targets, row(0, 2), len, DEST)
                    .await
                    .unwrap();
            }),
            OpKind::CacheReadSeq => CoroTask::new(&ctx, async move {
                ops::cache_read_seq(&c, &t, row(0, 0), 3, len, DEST)
                    .await
                    .unwrap();
            }),
            OpKind::MultiPlaneRead => CoroTask::new(&ctx, async move {
                // Blocks 0 and 1 interleave onto planes 0 and 1.
                ops::multi_plane_read(&c, &t, [row(0, 0), row(1, 0)], len, [DEST, DEST + 0x4000])
                    .await
                    .unwrap();
            }),
            OpKind::EraseWithSuspendedRead => CoroTask::new(&ctx, async move {
                ops::erase_with_suspended_read(&c, &t, row(3, 0), row(0, 3), len, DEST)
                    .await
                    .unwrap();
            }),
        }
    };

    let mut captured = Vec::new();
    let mut now = SimTime::ZERO;
    let mut idle_advances = 0u32;
    let (mut trace, mut scratch) = (Tracer::disabled(), EmitScratch::default());
    loop {
        let status = task.advance(now);
        let mut staged = Vec::new();
        task.drain_staged(&mut staged);
        for (addr, bytes) in staged {
            dram.write(addr, &bytes);
        }
        let mut outbox = Vec::new();
        task.drain_outbox(&mut outbox);
        if outbox.is_empty() {
            if status == TaskStatus::Finished {
                break;
            }
            if let Some(d) = task.take_sleep() {
                now += d;
                idle_advances = 0;
                continue;
            }
            idle_advances += 1;
            assert!(
                idle_advances < 10_000,
                "operation {} livelocked: blocked with nothing submitted",
                kind.name()
            );
            continue;
        }
        idle_advances = 0;
        for (ticket, txn) in outbox {
            let start = now.max(channel.busy_until());
            let out = execute(
                &mut channel,
                &mut dram,
                &emit,
                start,
                &txn,
                0,
                &mut trace,
                &mut scratch,
            )
            .unwrap_or_else(|e| panic!("operation {}: execute failed: {e:?}", kind.name()));
            now = out.end;
            captured.push(txn);
            task.deliver(
                ticket,
                TxnResult {
                    inline: out.inline,
                    end: out.end,
                },
            );
        }
    }
    assert!(
        !captured.is_empty(),
        "operation {} emitted no transactions",
        kind.name()
    );
    captured
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_captures_a_nonempty_clean_stream() {
        let profile = PackageProfile::test_tiny();
        for &kind in OpKind::ALL {
            let txns = capture(&profile, kind);
            assert!(!txns.is_empty(), "{} captured nothing", kind.name());
            let model = babol_verify::TargetModel::from_profile(&profile);
            let report = babol_verify::verify_stream(&model, &txns);
            assert!(
                report.is_clean(),
                "{} is not lint-clean:\n{report}",
                kind.name()
            );
        }
    }

    #[test]
    fn capture_is_deterministic() {
        let profile = PackageProfile::test_tiny();
        let a = capture(&profile, OpKind::ReadPage);
        let b = capture(&profile, OpKind::ReadPage);
        assert_eq!(a, b);
    }
}
