//! Heap-allocation budget of the transaction control path.
//!
//! A counting global allocator measures a steady-state, GC-heavy write job
//! through `Ssd::run` with tracing off. The runtime and the μFSM engine
//! allocate nothing per transaction once warm; what remains is mostly the
//! operation library building each `Transaction` (its instruction, latch
//! and address vectors), long inline results and per-task setup. The
//! budget catches a per-transaction map, `Vec` or `Box` creeping back in.
//!
//! Status polls count as transactions (the channel's `segments` credits
//! the summarized ones) and allocate nothing, played or summarized: the
//! runtime plays one READ STATUS transaction built per chip, and the
//! status byte comes back in place. So the per-transaction figure falls
//! when more polls are summarized; the per-host-I/O budget is the one that
//! sees every allocation of the job. A second check plays a run of busy
//! polls one event at a time and counts their allocations.
//!
//! One test only: the counter is process-wide, so a second test running
//! concurrently would be counted too.

use babol::factory::coro_controller;
use babol::runtime::RuntimeConfig;
use babol::system::{Controller, IoKind, IoRequest, StepLimit};
use babol::System;
use babol_channel::Channel;
use babol_flash::array::ContentMode;
use babol_flash::lun::LunConfig;
use babol_flash::{Lun, PackageProfile};
use babol_ftl::{FioWorkload, IoPattern, Ssd, SsdConfig};
use babol_sim::{CostModel, Cpu, Freq, SimDuration, SimTime};
use babol_ufsm::EmitConfig;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// Allowed heap allocations per issued transaction at steady state, about
/// 10% above the measured 3.72 (release) and 6.72 (debug). Debug builds
/// also run the static verifier on every transaction before it plays
/// (`babol_ufsm::hook`), which allocates its own working state. Status
/// polls, played or summarized, count as transactions but allocate
/// nothing.
const BUDGET_PER_TXN: f64 = if cfg!(debug_assertions) { 7.4 } else { 4.1 };

/// Allowed heap allocations per host I/O of the measured job, about 10%
/// above the measured 1344 (release) and 2427 (debug). Programs store the
/// register's `PageData` description, so no page is boxed per program.
const BUDGET_PER_IO: f64 = if cfg!(debug_assertions) {
    2670.0
} else {
    1480.0
};

/// Allocations of the static verifier per played status poll in debug
/// builds (`babol_ufsm::hook`); release builds allocate none.
const HOOK_PER_POLL: u64 = 3;

#[test]
fn steady_state_gc_writes_stay_within_the_allocation_budget() {
    let luns = 2;
    let profile = PackageProfile::test_tiny();
    let mut sys = system(&profile, luns);
    let mut ctrl = coro_controller(profile.layout(), RuntimeConfig::coroutine());
    let mut ssd = Ssd::new(SsdConfig::tiny(luns));
    assert!(!sys.trace.is_enabled());
    let job = |seed| FioWorkload {
        pattern: IoPattern::RandomWrite,
        total_ios: 200,
        queue_depth: 4,
        seed,
    };
    // Warm-up: overwrite the logical space until GC runs and every pool,
    // queue and scratch vector has reached its working size.
    for seed in 1..=3 {
        ssd.run(&mut sys, &mut ctrl, job(seed));
    }
    assert!(ssd.gc_cycles > 0, "warm-up must reach GC");

    let txns_before = sys.channel.stats().segments;
    let gc_before = ssd.gc_cycles;
    let allocs_before = counting_alloc::allocs();
    let report = ssd.run(&mut sys, &mut ctrl, job(4));
    let allocs = counting_alloc::allocs() - allocs_before;
    let txns = sys.channel.stats().segments - txns_before;

    assert_eq!(report.ios, 200);
    assert!(ssd.gc_cycles > gc_before, "the measured job must run GC");
    let per_txn = allocs as f64 / txns as f64;
    let per_io = allocs as f64 / report.ios as f64;
    println!(
        "alloc-budget: {allocs} allocations over {txns} transactions = {per_txn:.2}/txn, \
         over {} host I/Os = {per_io:.0}/io",
        report.ios
    );
    assert!(
        per_txn <= BUDGET_PER_TXN,
        "{per_txn:.2} heap allocations per transaction (budget {BUDGET_PER_TXN})"
    );
    assert!(
        per_io <= BUDGET_PER_IO,
        "{per_io:.0} heap allocations per host I/O (budget {BUDGET_PER_IO})"
    );

    played_busy_polls_allocate_nothing(&profile);
}

/// A system of `luns` pristine LUNs of `profile` on one channel, with
/// tracing off.
fn system(profile: &PackageProfile, luns: u32) -> System {
    let lun_cfgs = (0..luns).map(|i| {
        Lun::new(LunConfig {
            profile: profile.clone(),
            content: ContentMode::Pristine,
            seed: i as u64 + 1,
            inject_errors: false,
            require_init: false,
        })
    });
    System::new(
        Channel::new(lun_cfgs.collect()),
        EmitConfig::nv_ddr2(200),
        Cpu::new(Freq::from_ghz(1), CostModel::coroutine()),
    )
}

/// Erases a block and plays its status wait one event at a time with
/// horizon steps, which never summarize: once the first polls have sized
/// the runtime's vectors, the busy polls that follow allocate nothing but
/// the debug-build verifier's working state.
fn played_busy_polls_allocate_nothing(profile: &PackageProfile) {
    const POLLS: u64 = 8;
    let mut sys = system(profile, 1);
    let cfg = RuntimeConfig {
        poll_backoff: SimDuration::from_nanos(500),
        ..RuntimeConfig::coroutine()
    };
    let mut ctrl = coro_controller(profile.layout(), cfg);
    let erase = IoRequest {
        id: 1,
        kind: IoKind::Erase,
        lun: 0,
        block: 1,
        page: 0,
        col: 0,
        len: 0,
        dram_addr: 0,
    };
    assert!(ctrl.submit(&mut sys, erase));
    let mut play_until = |sys: &mut System, segments: u64| {
        while sys.channel.stats().segments < segments {
            assert!(sys.step(&mut ctrl, StepLimit::Horizon(SimTime::FAR_FUTURE)));
        }
    };
    // The erase command and two polls warm the runtime up.
    play_until(&mut sys, 3);
    let allocs_before = counting_alloc::allocs();
    play_until(&mut sys, 3 + POLLS);
    let allocs = counting_alloc::allocs() - allocs_before;
    let busy = sys.channel.lun(0).busy_until();
    assert!(
        busy.is_some_and(|b| b > sys.now),
        "every measured poll must read busy"
    );
    println!("alloc-budget: {allocs} allocations over {POLLS} played busy polls");
    let budget = if cfg!(debug_assertions) {
        HOOK_PER_POLL * POLLS
    } else {
        0
    };
    assert!(
        allocs <= budget,
        "{allocs} allocations over {POLLS} played busy status polls (budget {budget})"
    );
}
