//! Heap-allocation budget of the transaction control path.
//!
//! A counting global allocator measures a steady-state, GC-heavy write job
//! through `Ssd::run` with tracing off. The runtime and the μFSM engine
//! allocate nothing per transaction once warm; what remains is mostly the
//! operation library building each `Transaction` (its instruction, latch
//! and address vectors), the inline result bytes and per-task setup. The
//! budget catches a per-transaction map, `Vec` or `Box` creeping back in.
//!
//! One test only: the counter is process-wide, so a second test running
//! concurrently would be counted too.

use babol::factory::coro_controller;
use babol::runtime::RuntimeConfig;
use babol::System;
use babol_channel::Channel;
use babol_flash::array::ContentMode;
use babol_flash::lun::LunConfig;
use babol_flash::{Lun, PackageProfile};
use babol_ftl::{FioWorkload, IoPattern, Ssd, SsdConfig};
use babol_sim::{CostModel, Cpu, Freq};
use babol_ufsm::EmitConfig;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// Allowed heap allocations per issued transaction at steady state, about
/// 10% above the measured 5.91 (release) and 9.38 (debug). Debug builds
/// also run the static verifier on every transaction before it plays
/// (`babol_ufsm::hook`), which allocates its own working state.
const BUDGET_PER_TXN: f64 = if cfg!(debug_assertions) { 10.3 } else { 6.5 };

#[test]
fn steady_state_gc_writes_stay_within_the_allocation_budget() {
    let luns = 2;
    let profile = PackageProfile::test_tiny();
    let lun_cfgs = (0..luns).map(|i| {
        Lun::new(LunConfig {
            profile: profile.clone(),
            content: ContentMode::Pristine,
            seed: i as u64 + 1,
            inject_errors: false,
            require_init: false,
        })
    });
    let mut sys = System::new(
        Channel::new(lun_cfgs.collect()),
        EmitConfig::nv_ddr2(200),
        Cpu::new(Freq::from_ghz(1), CostModel::coroutine()),
    );
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

    let txns_before = ctrl.runtime().txns_issued;
    let gc_before = ssd.gc_cycles;
    let allocs_before = counting_alloc::allocs();
    let report = ssd.run(&mut sys, &mut ctrl, job(4));
    let allocs = counting_alloc::allocs() - allocs_before;
    let txns = ctrl.runtime().txns_issued - txns_before;

    assert_eq!(report.ios, 200);
    assert!(ssd.gc_cycles > gc_before, "the measured job must run GC");
    let per_txn = allocs as f64 / txns as f64;
    println!("alloc-budget: {allocs} allocations over {txns} transactions = {per_txn:.2}/txn");
    assert!(
        per_txn <= BUDGET_PER_TXN,
        "{per_txn:.2} heap allocations per transaction (budget {BUDGET_PER_TXN})"
    );
}
