//! `ufsm_lint`: the ONFI-protocol linter for BABOL's μFSM programs.
//!
//! Statically verifies every shipped operation and every hard-coded
//! baseline waveform against the ONFI command grammar and the target
//! package geometry, for every factory package configuration:
//!
//! * **Operations** (`crates/core/src/ops.rs`): each coroutine op is run
//!   once by the lint-capture harness and its transaction stream is fed to
//!   the verifier in sequence mode.
//! * **Baselines** (`crates/core/src/hw/`): the Cosmos+-style and Qiu
//!   et al.-style controllers expose their frozen phase programs via
//!   `lint_phase_program`; those are checked as raw bus-phase tenures.
//!
//! ```sh
//! cargo run --release --example ufsm_lint -- --envelopes --deny-warnings
//! ```
//!
//! Flags: `--deny-warnings` makes warning-severity findings fail the run
//! (CI uses this); `--envelopes` additionally runs the static timing &
//! energy envelope analyzer over every program (V073 width warnings count
//! toward the verdict) and prints the per-program envelope table;
//! `--json` emits the machine-readable `babol-lint-v1` report on stdout
//! instead of prose (CI uploads it as an artifact on failure);
//! `--verbose` prints every linted program, not just the dirty ones.
//! Exit code 0 = clean, 1 = findings, 2 = bad usage.

use std::fmt::Write as _;
use std::process::ExitCode;

use babol::hw;
use babol::lintcap::{self, OpKind};
use babol::system::{IoKind, IoRequest};
use babol_flash::PackageProfile;
use babol_onfi::bus::ChipMask;
use babol_ufsm::EmitConfig;
use babol_verify::{verify_stream, Envelope, EnvelopeAnalyzer, Report, TargetModel, Verifier};

/// DRAM window the lint harness assumes (bounds-checks `DmaDest::Dram`).
const DRAM_BYTES: u64 = 1 << 32;

/// Schema identifier stamped into `--json` output. Bump only on breaking
/// shape changes; additive fields keep the version.
const JSON_SCHEMA: &str = "babol-lint-v1";

/// One linted program's outcome, collected for both output modes.
struct ProgramResult {
    profile: String,
    program: String,
    txns: usize,
    report: Report,
    envelope: Option<Envelope>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn render_json(results: &[ProgramResult], deny_warnings: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"{JSON_SCHEMA}\",");
    let _ = writeln!(s, "  \"deny_warnings\": {deny_warnings},");
    let _ = writeln!(s, "  \"programs\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"profile\": \"{}\",", json_escape(&r.profile));
        let _ = writeln!(s, "      \"program\": \"{}\",", json_escape(&r.program));
        let _ = writeln!(s, "      \"txns\": {},", r.txns);
        let _ = writeln!(s, "      \"errors\": {},", r.report.errors().count());
        let _ = writeln!(s, "      \"warnings\": {},", r.report.warnings().count());
        let _ = writeln!(s, "      \"diagnostics\": [");
        for (j, d) in r.report.diags().iter().enumerate() {
            let at = d.at.map(|a| a.to_string()).unwrap_or_else(|| "null".into());
            let lun = d
                .lun
                .map(|l| l.to_string())
                .unwrap_or_else(|| "null".into());
            let _ = write!(
                s,
                "        {{\"rule\": \"{}\", \"severity\": \"{}\", \"txn\": {}, \
                 \"at\": {at}, \"lun\": {lun}, \"detail\": \"{}\"}}",
                d.rule.code(),
                d.severity,
                d.txn,
                json_escape(&d.detail),
            );
            let _ = writeln!(
                s,
                "{}",
                if j + 1 < r.report.diags().len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(s, "      ],");
        match r.envelope {
            Some(env) => {
                let _ = writeln!(
                    s,
                    "      \"envelope\": {{\"time_ps\": {{\"min\": {}, \"max\": {}}}, \
                     \"energy_pj\": {{\"min\": {}, \"max\": {}}}}}",
                    env.time_ps.min, env.time_ps.max, env.energy_pj.min, env.energy_pj.max
                );
            }
            None => {
                let _ = writeln!(s, "      \"envelope\": null");
            }
        }
        let _ = writeln!(s, "    }}{}", if i + 1 < results.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ],");
    let errors: usize = results.iter().map(|r| r.report.errors().count()).sum();
    let warnings: usize = results.iter().map(|r| r.report.warnings().count()).sum();
    let _ = writeln!(
        s,
        "  \"summary\": {{\"programs\": {}, \"errors\": {errors}, \"warnings\": {warnings}}}",
        results.len()
    );
    let _ = write!(s, "}}");
    s
}

fn main() -> ExitCode {
    let mut deny_warnings = false;
    let mut verbose = false;
    let mut envelopes = false;
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--verbose" | "-v" => verbose = true,
            "--envelopes" => envelopes = true,
            "--json" => json = true,
            "--help" | "-h" => {
                println!("usage: ufsm_lint [--deny-warnings] [--envelopes] [--json] [--verbose]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ufsm_lint: unknown flag {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let mut profiles = PackageProfile::paper_set();
    profiles.push(PackageProfile::test_tiny());

    let mut results: Vec<ProgramResult> = Vec::new();

    for profile in &profiles {
        let model = TargetModel::from_profile(profile).with_dram_bytes(DRAM_BYTES);
        let emit = EmitConfig::nv_ddr2(profile.max_mts.min(200));

        // 1. The coroutine operation library, op by op.
        for &kind in OpKind::ALL {
            let txns = lintcap::capture(profile, kind);
            let mut report = verify_stream(&model, &txns);
            let envelope = envelopes.then(|| {
                let mut a = EnvelopeAnalyzer::new(profile, profile.luns_per_channel, emit);
                for txn in &txns {
                    a.transaction_envelope(txn);
                }
                let (env, env_report) = a.finish();
                report.merge(env_report);
                env
            });
            results.push(ProgramResult {
                profile: profile.name.to_string(),
                program: format!("ops::{}", kind.name()),
                txns: txns.len(),
                report,
                envelope,
            });
        }

        // 2. The hard-coded baseline controllers, waveform by waveform.
        let layout = profile.layout();
        let len = profile.geometry.page_size.min(2048);
        let prog_data = vec![0xA5u8; len];
        let requests = [
            (IoKind::Read, "read"),
            (IoKind::Program, "program"),
            (IoKind::Erase, "erase"),
        ];
        for (kind, kind_name) in requests {
            let req = IoRequest {
                id: 0,
                kind,
                lun: 0,
                block: 1,
                page: 0,
                col: 0,
                len,
                dram_addr: 0x2_0000,
            };
            for (ctrl, tenures) in [
                (
                    "cosmos",
                    hw::cosmos::lint_phase_program(&layout, &emit, &req, &prog_data),
                ),
                (
                    "sync_ctrl",
                    hw::sync_ctrl::lint_phase_program(&layout, &emit, &req, &prog_data),
                ),
            ] {
                let mut v = Verifier::sequence(model.clone());
                for tenure in &tenures {
                    v.check_phases(ChipMask::single(0), tenure, &emit.timing);
                }
                let mut report = v.finish();
                let envelope = envelopes.then(|| {
                    let mut a = EnvelopeAnalyzer::new(profile, profile.luns_per_channel, emit);
                    for tenure in &tenures {
                        a.phases_envelope(ChipMask::single(0), tenure);
                    }
                    let (env, env_report) = a.finish();
                    report.merge(env_report);
                    env
                });
                results.push(ProgramResult {
                    profile: profile.name.to_string(),
                    program: format!("hw::{ctrl} {kind_name}"),
                    txns: tenures.len(),
                    report,
                    envelope,
                });
            }
        }
    }

    let errors: usize = results.iter().map(|r| r.report.errors().count()).sum();
    let warnings: usize = results.iter().map(|r| r.report.warnings().count()).sum();

    if json {
        println!("{}", render_json(&results, deny_warnings));
    } else {
        for r in &results {
            let label = format!("{} / {} ({} txns)", r.profile, r.program, r.txns);
            if !r.report.is_clean() {
                println!("{label}:\n{}\n", r.report);
            } else if verbose {
                println!("{label}: clean");
            }
        }
        if envelopes {
            println!("static envelopes (per program, whole stream):");
            println!(
                "{:<44} {:>12} {:>12} {:>8} {:>14}",
                "program", "t.min us", "t.max us", "width", "E.max uJ"
            );
            for r in &results {
                let Some(env) = r.envelope else { continue };
                let ratio = if env.time_ps.min > 0 {
                    env.time_ps.max as f64 / env.time_ps.min as f64
                } else {
                    1.0
                };
                println!(
                    "{:<44} {:>12.1} {:>12.1} {:>7.2}x {:>14.2}",
                    format!("{}/{}", r.profile, r.program),
                    env.time_ps.min as f64 / 1e6,
                    env.time_ps.max as f64 / 1e6,
                    ratio,
                    env.energy_pj.max as f64 / 1e6,
                );
            }
            println!();
        }
        println!(
            "ufsm_lint: {} programs across {} package configs: {errors} error(s), {warnings} warning(s)",
            results.len(),
            profiles.len()
        );
    }
    if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
