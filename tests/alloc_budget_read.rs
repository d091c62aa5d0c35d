//! Heap-allocation budget of the preloaded read data path.
//!
//! A counting global allocator measures a steady-state random-read job on
//! preloaded flash through `Ssd::run` with tracing off. The LUN synthesizes
//! each preloaded page straight into its reused page register and streams
//! it out through pooled buffers, so a read allocates no page-sized buffer;
//! what remains is the per-transaction control state. Two budgets: no
//! allocation of a raw page or more (one per read used to be the array's
//! fresh page copy), and a total per read that catches smaller per-read
//! allocations creeping back in.
//!
//! Its own test binary with one test: the counter is process-wide, so any
//! other test running concurrently would be counted too.

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

/// Allowed heap allocations per host read at steady state, about 10%
/// above the measured 21.34 (release) and 32.50 (debug). Debug builds also
/// run the static verifier on every transaction (`babol_ufsm::hook`).
const BUDGET_PER_READ: f64 = if cfg!(debug_assertions) { 36.0 } else { 23.5 };

/// Allowed allocations of at least one raw page per host read. The job's
/// own report buffers cross that size a few times per run; a page copy per
/// read would be 1.0.
const PAGE_SIZED_PER_READ: f64 = 0.01;

#[test]
fn preloaded_random_reads_stay_within_the_allocation_budget() {
    let luns = 4;
    let profile = PackageProfile::test_tiny();
    let lun_cfgs = (0..luns).map(|i| {
        Lun::new(LunConfig {
            profile: profile.clone(),
            content: ContentMode::Preloaded { seed: 0xBAB01 },
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
    ssd.preload();
    assert!(!sys.trace.is_enabled());
    counting_alloc::count_large_from(profile.geometry.raw_page_size());
    let job = |seed| FioWorkload {
        pattern: IoPattern::RandomRead,
        total_ios: 400,
        queue_depth: 32,
        seed,
    };
    // Warm-up: every pool, queue and scratch vector reaches its working size.
    for seed in 1..=2 {
        ssd.run(&mut sys, &mut ctrl, job(seed));
    }

    let txns_before = ctrl.runtime().txns_issued;
    let allocs_before = counting_alloc::allocs();
    let pages_before = counting_alloc::large_allocs();
    let report = ssd.run(&mut sys, &mut ctrl, job(3));
    let allocs = counting_alloc::allocs() - allocs_before;
    let page_allocs = counting_alloc::large_allocs() - pages_before;
    let txns = ctrl.runtime().txns_issued - txns_before;

    assert_eq!(report.ios, 400);
    let per_read = allocs as f64 / report.ios as f64;
    println!(
        "alloc-budget-read: {allocs} allocations ({page_allocs} page-sized) over {} reads \
         ({txns} transactions) = {per_read:.2}/read",
        report.ios
    );
    let page_sized_per_read = page_allocs as f64 / report.ios as f64;
    assert!(
        page_sized_per_read <= PAGE_SIZED_PER_READ,
        "{page_sized_per_read:.3} page-sized allocations per read (budget {PAGE_SIZED_PER_READ})"
    );
    assert!(
        per_read <= BUDGET_PER_READ,
        "{per_read:.2} heap allocations per read (budget {BUDGET_PER_READ})"
    );
}
