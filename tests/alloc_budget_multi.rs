//! Heap-allocation budget of the multi-channel device's barrier rounds.
//!
//! A counting global allocator measures a steady-state random-read job on
//! a preloaded 16-channel `MultiSsd` with tracing off, on one thread and on
//! two. Every round the coordinator routes commands to inboxes, the shard
//! pool runs the round (on two threads, handing a worker its inboxes and
//! taking back its records) and merges the records; the shards themselves
//! run their reads. The figure is allocations per barrier round, all of
//! that included, so per-round work that starts allocating shows up here.
//!
//! Its own test binary with one test: the counter is process-wide, so any
//! other test running concurrently would be counted too.

use babol_ftl::{FioWorkload, IoPattern, MultiSsd, MultiSsdConfig};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// Allowed heap allocations per barrier round at steady state, by thread
/// count (1, 2): about 10% above the measured 40.80 and 40.87 (release),
/// 74.12 and 74.18 (debug). The pool merges every round into one reused
/// buffer, and a worker's inboxes, records and states travel in vectors
/// handed back with the next round, so the second thread adds next to
/// nothing. Status polls build no transaction and return their byte in
/// place. Debug builds also run the static verifier on every transaction
/// (`babol_ufsm::hook`).
const BUDGET_PER_ROUND: [f64; 2] = if cfg!(debug_assertions) {
    [81.5, 81.6]
} else {
    [44.9, 45.0]
};

#[test]
fn barrier_rounds_stay_within_the_allocation_budget() {
    let job = |seed| FioWorkload {
        pattern: IoPattern::RandomRead,
        total_ios: 800,
        queue_depth: 8,
        seed,
    };
    for (threads, budget) in [1, 2].into_iter().zip(BUDGET_PER_ROUND) {
        let mut ssd = MultiSsd::new(MultiSsdConfig::tiny(16, threads));
        // Warm-up: every pool, queue, inbox and scratch vector reaches its
        // working size.
        for seed in 1..=2 {
            ssd.run(&job(seed));
        }
        let before = counting_alloc::allocs();
        let report = ssd.run(&job(3));
        let allocs = counting_alloc::allocs() - before;

        assert_eq!(report.fio.ios, 800);
        let per_round = allocs as f64 / report.rounds as f64;
        println!(
            "alloc-budget-multi: {threads} thread(s): {allocs} allocations over {} rounds \
             ({} reads) = {per_round:.2}/round",
            report.rounds, report.fio.ios
        );
        assert!(
            per_round <= budget,
            "{threads} thread(s): {per_round:.2} heap allocations per round (budget {budget})"
        );
        drop(ssd.finish());
    }
}
