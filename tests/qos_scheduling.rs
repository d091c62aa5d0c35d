//! Scheduling quality of service: the paper's §V example of prioritizing
//! latency-sensitive work ("a more complex task scheduler could
//! differentiate task priorities ... prioritize latency-sensitive workloads
//! such as database logging").
//!
//! Two request classes share a channel: sparse high-priority "log reads"
//! and a flood of background reads. With the Priority task and transaction
//! policies, the log reads' tail latency must drop versus FIFO scheduling —
//! demonstrating that BABOL's pluggable schedulers actually change observed
//! behaviour, not just structure.

use babol::ops::{self, Target};
use babol::runtime::coro::{CoroTask, OpCtx};
use babol::runtime::{RuntimeConfig, SoftController, SoftTask};
use babol::sched::{TaskPolicy, TxnPolicy};
use babol::system::{Engine, IoKind, IoRequest, System};
use babol_channel::Channel;
use babol_flash::array::ContentMode;
use babol_flash::lun::LunConfig;
use babol_flash::{Lun, PackageProfile};
use babol_onfi::addr::RowAddr;
use babol_sim::{CostModel, Cpu, Freq, SimDuration};
use babol_ufsm::EmitConfig;

/// Requests with ids below this are high-priority "log" reads.
const LOG_IDS: u64 = 8;

fn make_system(luns: u32) -> System {
    let profile = PackageProfile::test_tiny();
    let l = (0..luns)
        .map(|i| {
            Lun::new(LunConfig {
                profile: profile.clone(),
                content: ContentMode::Preloaded { seed: 4 },
                seed: i as u64 + 1,
                inject_errors: false,
                require_init: false,
            })
        })
        .collect();
    System::new(
        Channel::new(l),
        EmitConfig::nv_ddr2(200),
        Cpu::new(Freq::from_ghz(1), CostModel::coroutine()),
    )
}

/// A coroutine controller assigning priority by request class.
fn qos_controller(cfg: RuntimeConfig) -> SoftController {
    let layout = PackageProfile::test_tiny().layout();
    SoftController::new("qos", cfg, move |req| {
        let priority = if req.id < LOG_IDS { 7 } else { 0 };
        let ctx = OpCtx::new(req.lun, priority);
        let t = Target {
            chip: req.lun,
            layout,
        };
        let c = ctx.clone();
        let req = *req;
        let fut = async move {
            let row = RowAddr {
                lun: req.lun,
                block: req.block,
                page: req.page,
            };
            if ops::read_page(&c, &t, row, req.col, req.len, req.dram_addr)
                .await
                .is_ok()
            {
                c.set_outcome(Ok(()));
            }
        };
        let task = CoroTask::new(&ctx, fut);
        task.mailbox().borrow_mut().poll_backoff = cfg.poll_backoff;
        Box::new(task) as Box<dyn SoftTask>
    })
}

/// Builds the mixed workload: LOG_IDS small urgent reads on LUN 0 plus a
/// large background flood of full-page reads across all LUNs.
fn workload(luns: u32) -> Vec<IoRequest> {
    let mut reqs = Vec::new();
    // Background flood first: the log reads arrive behind a full queue, so
    // only the scheduler can rescue their latency.
    for i in 0..96u64 {
        let lun = (i % luns as u64) as u32;
        reqs.push(IoRequest {
            id: 1000 + i,
            kind: IoKind::Read,
            lun,
            block: (1 + i / 8 % 7) as u32,
            page: (i % 8) as u32,
            col: 0,
            len: 512,
            dram_addr: 0x10_000 + i * 512,
        });
    }
    for id in 0..LOG_IDS {
        reqs.push(IoRequest {
            id,
            kind: IoKind::Read,
            lun: 0,
            block: 0,
            page: (id % 8) as u32,
            col: 0,
            len: 64, // small log read
            dram_addr: id * 64,
        });
    }
    reqs
}

/// p99 latency of the log class under a policy pair.
fn log_p99(task: TaskPolicy, txn: TxnPolicy) -> SimDuration {
    let mut cfg = RuntimeConfig::coroutine();
    cfg.task_policy = task;
    cfg.txn_policy = txn;
    cfg.admission = 128; // everything admitted: scheduling decides order
    let mut sys = make_system(4);
    let mut ctrl = qos_controller(cfg);
    let report = Engine::new(64).run(&mut sys, &mut ctrl, workload(4));
    let mut lats: Vec<SimDuration> = report
        .completions
        .iter()
        .filter(|c| c.req.id < LOG_IDS)
        .map(|c| c.completed - c.submitted)
        .collect();
    lats.sort();
    lats[lats.len() - 1] // worst of the log class (small sample)
}

#[test]
fn priority_scheduling_protects_log_latency() {
    let fifo = log_p99(TaskPolicy::Fifo, TxnPolicy::Fifo);
    let prio = log_p99(TaskPolicy::Priority, TxnPolicy::Priority);
    assert!(
        prio < fifo,
        "priority scheduling should cut log-class tail latency: {prio} vs {fifo}"
    );
}

#[test]
fn background_class_still_completes_under_priority() {
    let mut cfg = RuntimeConfig::coroutine();
    cfg.task_policy = TaskPolicy::Priority;
    cfg.txn_policy = TxnPolicy::Priority;
    cfg.admission = 128;
    let mut sys = make_system(4);
    let mut ctrl = qos_controller(cfg);
    let total = workload(4).len();
    let report = Engine::new(64).run(&mut sys, &mut ctrl, workload(4));
    assert_eq!(report.completions.len(), total, "no starvation");
}

#[test]
fn round_robin_is_fair_across_luns() {
    // Under round-robin task scheduling, per-LUN completion counts of the
    // background flood stay balanced.
    let mut cfg = RuntimeConfig::coroutine();
    cfg.task_policy = TaskPolicy::RoundRobinLun;
    cfg.admission = 128;
    let mut sys = make_system(4);
    let mut ctrl = qos_controller(cfg);
    let report = Engine::new(64).run(&mut sys, &mut ctrl, workload(4));
    let mut counts = [0u32; 4];
    for c in report
        .completions
        .iter()
        .filter(|c| c.req.id >= 1000)
        .take(48)
    {
        counts[c.req.lun as usize] += 1;
    }
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    assert!(max - min <= 8, "unbalanced completions {counts:?}");
}
