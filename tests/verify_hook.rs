//! The debug-build execute gate, end to end: once the verifier's hook is
//! installed (as `System::new` does), a protocol-violating transaction
//! panics inside `execute`, and clean transactions still pass.
//!
//! This lives in its own test binary because the hook is a process-wide
//! `OnceLock`: installing it here must not leak into the mutation or
//! differential suites, which need `execute` to accept faulty streams so
//! the simulator's own verdict is observable.

// Release builds compile the hook out, so there is nothing to test there.
#![cfg(debug_assertions)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use babol_channel::Channel;
use babol_flash::array::ContentMode;
use babol_flash::lun::LunConfig;
use babol_flash::{Lun, PackageProfile};
use babol_onfi::bus::ChipMask;
use babol_onfi::opcode::op;
use babol_sim::{Dram, SimTime};
use babol_trace::Tracer;
use babol_ufsm::{execute, EmitConfig, EmitScratch, Latch, PostWait, Transaction};

fn channel(profile: &PackageProfile) -> Channel {
    let luns: Vec<Lun> = (0..profile.luns_per_channel)
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
    Channel::new(luns)
}

#[test]
fn debug_hook_rejects_bad_transactions_and_passes_clean_ones() {
    babol_verify::install_debug_hook();
    let profile = PackageProfile::test_tiny();
    let mut ch = channel(&profile);
    let mut dram = Dram::new();
    let emit = EmitConfig::nv_ddr2(profile.max_mts.min(200));
    let (mut trace, mut scratch) = (Tracer::disabled(), EmitScratch::default());

    // A clean READ STATUS still executes with the gate armed.
    let clean = Transaction::new(ChipMask::single(0))
        .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
        .read(1, babol_ufsm::DmaDest::Inline);
    execute(
        &mut ch,
        &mut dram,
        &emit,
        SimTime::ZERO,
        &clean,
        0,
        &mut trace,
        &mut scratch,
    )
    .expect("clean txn must execute");

    // An empty chip mask (V040) is a violation in any LUN state — the hook
    // verifies each transaction standalone, so the fault must be
    // transaction-local — and panics inside execute, at the submission site.
    let no_chips = Transaction::new(ChipMask::NONE)
        .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
        .read(1, babol_ufsm::DmaDest::Inline);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute(
            &mut ch,
            &mut dram,
            &emit,
            SimTime::ZERO,
            &no_chips,
            0,
            &mut trace,
            &mut scratch,
        )
    }));
    let panic_msg = match outcome {
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
        Ok(_) => panic!("verifier hook let an empty-chip-mask transaction through"),
    };
    assert!(
        panic_msg.contains("V040"),
        "hook panic should cite the rule, got: {panic_msg}"
    );
}
