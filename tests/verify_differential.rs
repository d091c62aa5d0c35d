//! Differential property test: the static verifier against the flash model.
//!
//! Random transaction streams — clean operation captures interleaved with
//! randomly-sited protocol faults from the mutation catalogue — are judged
//! twice: once statically by `babol-verify`, once dynamically by replaying
//! through the simulated channel. The two judges must agree in both
//! directions:
//!
//! * **No false positives.** If the simulator executes the whole stream
//!   cleanly, the verifier must not report any *sim-enforced* rule (those
//!   are precisely its claims about what the model rejects). Static-only
//!   findings — timing waits, DMA bounds, gang data-out — are allowed:
//!   catching what the model cannot is the verifier's purpose.
//! * **No false negatives.** If the verifier reports no errors at all, the
//!   simulator must accept the stream.
//!
//! Counterexamples shrink (fewer ops, fewer faults, smaller indices) and
//! replay from the printed seed via `BABOL_PT_SEED`.
//!
//! Like the mutation suite, this file must never construct a
//! `babol::system::System`: that installs the process-wide debug hook,
//! which would panic inside `execute` on the faulty streams this test is
//! deliberately feeding the simulator.

mod common;

use std::cell::Cell;

use babol::lintcap::{self, OpKind};
use babol_flash::PackageProfile;
use babol_testkit::mutate::{MutOp, MutateCtx};
use babol_testkit::prop::{any, range, vec_of, Property};
use babol_testkit::rng::Xoshiro256pp;
use babol_ufsm::{EmitConfig, Transaction};
use babol_verify::{verify_stream, EnergyCosts, Envelope, EnvelopeAnalyzer, TargetModel, Verifier};

use common::{sim_replay, sim_replay_measured};

/// DRAM window the model assumes (so V050 has a bound to check).
const DRAM_BYTES: u64 = 1 << 32;

#[test]
fn verifier_and_flash_model_agree() {
    let profile = PackageProfile::test_tiny();
    let model = TargetModel::from_profile(&profile).with_dram_bytes(DRAM_BYTES);
    let ctx = MutateCtx {
        layout: model.layout,
        raw_page_size: model.raw_page_size,
        luns: model.luns,
        dram_bytes: DRAM_BYTES,
    };

    // Capture the whole operation vocabulary once; each case concatenates a
    // random selection, so captures must not depend on channel history
    // (capture() builds a fresh channel per call).
    let vocab: Vec<Vec<Transaction>> = OpKind::ALL
        .iter()
        .map(|&kind| lintcap::capture(&profile, kind))
        .collect();

    // A case is (which ops to concatenate, which faults to inject where).
    // Both lists shrink, so counterexamples reduce toward a single op with
    // a single fault.
    let cases = (
        vec_of(range(0usize..vocab.len()), 1..4),
        vec_of((range(0usize..MutOp::ALL.len()), any::<u64>()), 0..3),
    );

    Property::new("verifier_and_flash_model_agree")
        .cases(512)
        .run(cases, |(ops, faults)| {
            let mut stream: Vec<Transaction> =
                ops.iter().flat_map(|&i| vocab[i].iter().cloned()).collect();
            for &(fi, seed) in faults {
                let op = MutOp::ALL[fi];
                let mut rng = Xoshiro256pp::new(seed);
                if let Some(mutated) = op.apply(&stream, &ctx, &mut rng) {
                    stream = mutated;
                }
            }

            let report = verify_stream(&model, &stream);
            let sim = sim_replay(&profile, &stream);

            match &sim {
                Ok(()) => {
                    // Direction 1: the model accepted it, so every
                    // sim-enforced claim in the report is a false positive.
                    let false_pos: Vec<_> = report
                        .diags()
                        .iter()
                        .filter(|d| d.rule.sim_enforced())
                        .map(|d| d.rule.code())
                        .collect();
                    if !false_pos.is_empty() {
                        return Err(format!(
                            "sim accepted the stream but the verifier reported \
                             sim-enforced rules {false_pos:?}:\n{report}"
                        ));
                    }
                }
                Err(sim_err) => {
                    // Direction 2: the model rejected it, so an error-free
                    // report would be a false negative.
                    if !report.has_errors() {
                        return Err(format!(
                            "sim rejected the stream ({sim_err}) but the \
                             verifier reported no errors:\n{report}"
                        ));
                    }
                }
            }
            Ok(())
        });
}

/// Differential soundness of the static envelopes: for every random
/// concatenation of captured operations, each replayed transaction's
/// measured elapsed time AND charged energy must lie inside the analyzer's
/// `[min, max]` — and so must the stream totals. Runs at three array
/// jitter levels (the zero-jitter profile pins the envelope to a point, so
/// it also catches off-by-one-phase modelling drift that jitter would
/// hide). Asserts that the run covered at least 10,000 transaction-level
/// replays in total.
#[test]
fn envelopes_bound_the_simulator() {
    let replayed = Cell::new(0usize);
    for jitter_pct in [0u32, 5, 10] {
        let mut profile = PackageProfile::test_tiny();
        profile.jitter_pct = jitter_pct;
        let emit = EmitConfig::nv_ddr2(profile.max_mts.min(200));
        let costs = EnergyCosts::nand();
        let lun_count = profile.luns_per_channel.max(2);

        let vocab: Vec<Vec<Transaction>> = OpKind::ALL
            .iter()
            .map(|&kind| lintcap::capture(&profile, kind))
            .collect();

        Property::new(format!("envelopes_bound_the_simulator_j{jitter_pct}"))
            .cases(300)
            .run(vec_of(range(0usize..vocab.len()), 1..5), |ops| {
                let stream: Vec<Transaction> =
                    ops.iter().flat_map(|&i| vocab[i].iter().cloned()).collect();
                let measures = sim_replay_measured(&profile, &stream)
                    .map_err(|e| format!("clean capture replay failed: {e}"))?;

                let mut analyzer = EnvelopeAnalyzer::new(&profile, lun_count, emit);
                let mut measured_total = Envelope::ZERO;
                for (i, (txn, m)) in stream.iter().zip(&measures).enumerate() {
                    let env = analyzer.transaction_envelope(txn);
                    let energy = costs.read_pj * m.reads
                        + costs.program_pj * m.program_attempts
                        + costs.erase_pj * m.erase_attempts
                        + costs.transfer_pj(m.bytes);
                    if !env.time_ps.contains(m.elapsed_ps) {
                        return Err(format!(
                            "txn {i}: elapsed {} ps outside envelope [{}, {}] ps",
                            m.elapsed_ps, env.time_ps.min, env.time_ps.max
                        ));
                    }
                    if !env.energy_pj.contains(energy) {
                        return Err(format!(
                            "txn {i}: charged {energy} pJ outside envelope [{}, {}] pJ \
                             (reads {}, prog {}, erase {}, bytes {})",
                            env.energy_pj.min,
                            env.energy_pj.max,
                            m.reads,
                            m.program_attempts,
                            m.erase_attempts,
                            m.bytes
                        ));
                    }
                    measured_total.time_ps.min += m.elapsed_ps;
                    measured_total.time_ps.max += m.elapsed_ps;
                    measured_total.energy_pj.min += energy;
                    measured_total.energy_pj.max += energy;
                    replayed.set(replayed.get() + 1);
                }
                let total = analyzer.total();
                if !total.time_ps.contains(measured_total.time_ps.min)
                    || !total.energy_pj.contains(measured_total.energy_pj.min)
                {
                    return Err(format!(
                        "stream totals escaped the composed envelope: measured \
                         ({} ps, {} pJ) vs [{}, {}] ps x [{}, {}] pJ",
                        measured_total.time_ps.min,
                        measured_total.energy_pj.min,
                        total.time_ps.min,
                        total.time_ps.max,
                        total.energy_pj.min,
                        total.energy_pj.max
                    ));
                }
                Ok(())
            });
    }
    let n = replayed.get();
    assert!(
        n >= 10_000,
        "differential envelope gate replayed only {n} transactions (< 10,000)"
    );
}

/// Envelope composition is sound on random captured streams: the analyzer's
/// sequence total is exactly the interval sum of the per-transaction
/// envelopes it reported (no hidden cross-transaction slack), and batching
/// is irrelevant — feeding [`Verifier::sequence`] one transaction at a time
/// produces the identical report to the one-shot `verify_stream`.
/// (Restarting an analyzer mid-stream is deliberately *not* claimed sound:
/// carried state like a pSLC feature write in the prefix is exactly what a
/// fresh analyzer would miss.)
#[test]
fn envelope_composition_is_sound() {
    let mut profile = PackageProfile::test_tiny();
    profile.jitter_pct = 8;
    let emit = EmitConfig::nv_ddr2(profile.max_mts.min(200));
    let lun_count = profile.luns_per_channel.max(2);
    let model = TargetModel::from_profile(&profile).with_dram_bytes(DRAM_BYTES);

    let vocab: Vec<Vec<Transaction>> = OpKind::ALL
        .iter()
        .map(|&kind| lintcap::capture(&profile, kind))
        .collect();

    Property::new("envelope_composition_is_sound")
        .cases(200)
        .run(vec_of(range(0usize..vocab.len()), 1..6), |ops| {
            let stream: Vec<Transaction> =
                ops.iter().flat_map(|&i| vocab[i].iter().cloned()).collect();

            // Sequence envelope == interval sum of per-transaction envelopes.
            let mut analyzer = EnvelopeAnalyzer::new(&profile, lun_count, emit);
            let mut summed = Envelope::ZERO;
            for txn in &stream {
                summed += analyzer.transaction_envelope(txn);
            }
            let total = analyzer.total();
            if total != summed {
                return Err(format!(
                    "sequence total {total:?} != interval sum of per-txn envelopes {summed:?}"
                ));
            }

            // Batching is irrelevant: one check_transaction call per txn
            // against the one-shot stream verifier.
            let one_shot = verify_stream(&model, &stream);
            let mut v = Verifier::sequence(model.clone());
            for txn in &stream {
                v.check_transaction(txn);
            }
            let stepped = v.finish();
            if one_shot != stepped {
                return Err(format!(
                    "verify_stream and stepped Verifier::sequence disagree:\n\
                     one-shot:\n{one_shot}\nstepped:\n{stepped}"
                ));
            }
            Ok(())
        });
}
