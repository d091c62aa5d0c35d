//! Mutation analysis of the static μFSM verifier.
//!
//! A linter is only worth gating CI on if it demonstrably catches the bugs
//! it claims to. This suite takes a known-clean transaction stream (captured
//! from the shipped operation library), applies every targeted fault in
//! [`babol_testkit::mutate`], and requires that:
//!
//! 1. the verifier flags each mutant **with the rule id the fault targets**
//!    (not merely some diagnostic), and
//! 2. **no mutant is caught only by the simulator** — whenever replaying a
//!    mutant through the flash model errors or panics, the verifier had
//!    already reported an error for it. The static check dominates the
//!    dynamic one.
//!
//! This file must never construct a [`babol::system::System`]: doing so
//! installs the process-wide debug verification hook, which would panic
//! inside `execute` before the replay could observe the simulator's own
//! verdict.

mod common;

use babol::lintcap::{self, OpKind};
use babol_flash::PackageProfile;
use babol_testkit::mutate::{MutOp, MutateCtx};
use babol_testkit::rng::Xoshiro256pp;
use babol_ufsm::{EmitConfig, Transaction};
use babol_verify::envelope::EnvelopeAnalyzer;
use babol_verify::{verify_stream, Report, TargetModel};

use common::sim_replay;

/// DRAM window the model assumes (so V050 has a bound to check).
const DRAM_BYTES: u64 = 1 << 32;

/// Ops whose concatenated captures form the mutation baseline. Chosen to
/// cover every fault site the operators need: full-address latches, tWB
/// confirms, status polls (tWHR + inline data), page-sized data in both
/// directions, and a SET FEATURES parameter burst.
const BASELINE_OPS: &[OpKind] = &[
    OpKind::ReadPage,
    OpKind::ProgramPage,
    OpKind::EraseBlock,
    OpKind::SetFeatures,
    OpKind::ReadStatus,
];

fn baseline(profile: &PackageProfile) -> Vec<Transaction> {
    BASELINE_OPS
        .iter()
        .flat_map(|&kind| lintcap::capture(profile, kind))
        .collect()
}

fn model(profile: &PackageProfile) -> TargetModel {
    TargetModel::from_profile(profile).with_dram_bytes(DRAM_BYTES)
}

fn mutate_ctx(m: &TargetModel) -> MutateCtx {
    MutateCtx {
        layout: m.layout,
        raw_page_size: m.raw_page_size,
        luns: m.luns,
        dram_bytes: DRAM_BYTES,
    }
}

fn report_codes(report: &Report) -> Vec<&'static str> {
    report.diags().iter().map(|d| d.rule.code()).collect()
}

/// Static verdict on a stream: the instruction/waveform verifier merged with
/// the envelope analyzer's diagnostics (V073 is only ever raised by the
/// latter, so mutants targeting it need this combined view).
fn full_verify(profile: &PackageProfile, m: &TargetModel, stream: &[Transaction]) -> Report {
    let mut report = verify_stream(m, stream);
    let emit = EmitConfig::nv_ddr2(profile.max_mts.min(200));
    let mut analyzer = EnvelopeAnalyzer::new(profile, profile.luns_per_channel, emit);
    for txn in stream {
        analyzer.transaction_envelope(txn);
    }
    let (_, env_report) = analyzer.finish();
    report.merge(env_report);
    report
}

#[test]
fn baseline_is_clean_and_replays() {
    let profile = PackageProfile::test_tiny();
    let stream = baseline(&profile);
    let report = full_verify(&profile, &model(&profile), &stream);
    assert!(
        report.is_clean(),
        "mutation baseline must be lint-clean (verifier + envelope analyzer):\n{report}"
    );
    sim_replay(&profile, &stream).expect("mutation baseline must replay cleanly");
}

#[test]
fn every_mutation_is_caught_with_its_rule() {
    let profile = PackageProfile::test_tiny();
    let stream = baseline(&profile);
    let m = model(&profile);
    let ctx = mutate_ctx(&m);

    assert!(
        MutOp::ALL.len() >= 20,
        "catalogue shrank below the 20-operator floor"
    );

    let mut sim_caught = 0usize;
    for (i, &op) in MutOp::ALL.iter().enumerate() {
        let mut rng = Xoshiro256pp::new(0xB0B0_0000 + i as u64);
        let mutant = op
            .apply(&stream, &ctx, &mut rng)
            .unwrap_or_else(|| panic!("{}: no fault site in the baseline stream", op.name()));
        assert_ne!(mutant, stream, "{}: mutation was a no-op", op.name());

        let report = full_verify(&profile, &m, &mutant);
        let expected = op.expected_rule();
        assert!(
            report.diags().iter().any(|d| d.rule.code() == expected),
            "{}: expected {expected}, verifier reported {:?}\n{report}",
            op.name(),
            report_codes(&report),
        );

        // The simulator may or may not notice the fault; what it must never
        // do is notice one the verifier classified as clean of errors.
        if let Err(sim) = sim_replay(&profile, &mutant) {
            sim_caught += 1;
            assert!(
                report.has_errors(),
                "{}: caught only by the simulator ({sim}); verifier said:\n{report}",
                op.name(),
            );
        }
    }

    // Sanity: the replay leg is live, not vacuously green.
    assert!(
        sim_caught > 0,
        "no mutant tripped the flash model; the replay harness is not exercising it"
    );
}

/// Audit of `Rule::sim_enforced()` against the model, operator by
/// operator: whenever the merged static report (verifier + envelope
/// analyzer) contains **no** sim-enforced finding, the flash model must
/// accept the mutant — a rejection would mean some rule is enforcing at
/// execute time without being marked. The four timing operators are
/// additionally pinned down as advisory: warnings only, and the simulator
/// executes them to completion (V070–V073 are exactly the faults only the
/// static pass can see).
#[test]
fn sim_enforced_marking_matches_the_model() {
    let profile = PackageProfile::test_tiny();
    let stream = baseline(&profile);
    let m = model(&profile);
    let ctx = mutate_ctx(&m);

    for (i, &op) in MutOp::ALL.iter().enumerate() {
        let mut rng = Xoshiro256pp::new(0xB0B0_0000 + i as u64);
        let Some(mutant) = op.apply(&stream, &ctx, &mut rng) else {
            continue;
        };
        let report = full_verify(&profile, &m, &mutant);
        let marked = report.diags().iter().any(|d| d.rule.sim_enforced());
        let sim = sim_replay(&profile, &mutant);
        if !marked {
            assert!(
                sim.is_ok(),
                "{}: no sim-enforced finding, yet the model rejected the \
                 mutant ({}); a rule needs sim_enforced() = true:\n{report}",
                op.name(),
                sim.unwrap_err(),
            );
        }
        if op.expected_rule().starts_with("V07") {
            assert!(
                !report.has_errors(),
                "{}: timing mutants must be warning-only:\n{report}",
                op.name(),
            );
            assert!(
                sim.is_ok(),
                "{}: timing mutants must replay cleanly, got {}",
                op.name(),
                sim.unwrap_err(),
            );
        }
    }
}

#[test]
fn mutations_are_deterministic() {
    let profile = PackageProfile::test_tiny();
    let stream = baseline(&profile);
    let m = model(&profile);
    let ctx = mutate_ctx(&m);
    for (i, &op) in MutOp::ALL.iter().enumerate() {
        let mut a = Xoshiro256pp::new(0xB0B0_0000 + i as u64);
        let mut b = Xoshiro256pp::new(0xB0B0_0000 + i as u64);
        assert_eq!(
            op.apply(&stream, &ctx, &mut a),
            op.apply(&stream, &ctx, &mut b),
            "{}: same seed produced different mutants",
            op.name()
        );
    }
}
