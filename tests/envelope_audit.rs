//! Cross-crate audits for the static envelope analyzer.
//!
//! These tests pin DESIGN.md's rule catalogue to the registry, and audit
//! the registry's `sim_enforced()` marking for the timing family: every
//! V07x rule is a static- or watchdog-only finding the flash model
//! deliberately does NOT reject at execute time, so none may be marked
//! sim-enforced (the differential fuzz would flag any replay of a
//! V07x-clean stream that the model rejected as a missing marking).

use babol_verify::{Rule, Severity};

/// The DESIGN.md rule catalogue is the human-facing registry; this test
/// makes it load-bearing. Every `Rule` variant must appear exactly once as
/// a table row (`| Vxxx | Name | severity | yes/no | ... |`), the table
/// must contain no rows for rules that don't exist, and the severity and
/// sim-enforced cells must match the code.
#[test]
fn design_md_rule_table_matches_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md");
    let doc = std::fs::read_to_string(path).expect("DESIGN.md must exist at the repo root");

    let mut rows: std::collections::BTreeMap<String, Vec<(String, String, String)>> =
        std::collections::BTreeMap::new();
    for line in doc.lines() {
        if !line.starts_with("| V") {
            continue;
        }
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // ["", code, name, severity, sim-enforced, meaning, ""]
        if cells.len() < 6 {
            continue;
        }
        rows.entry(cells[1].to_string()).or_default().push((
            cells[2].to_string(),
            cells[3].to_string(),
            cells[4].to_string(),
        ));
    }

    for &rule in Rule::ALL {
        let code = rule.code();
        let entries = rows
            .remove(code)
            .unwrap_or_else(|| panic!("{code} is missing from the DESIGN.md rule table"));
        assert_eq!(
            entries.len(),
            1,
            "{code} appears {} times in the DESIGN.md rule table",
            entries.len()
        );
        let (name, severity, sim) = &entries[0];
        assert_eq!(
            name,
            &format!("{rule:?}"),
            "{code}: table name differs from the variant"
        );
        let want_severity = match rule.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        assert_eq!(severity, want_severity, "{code}: table severity drifted");
        let want_sim = if rule.sim_enforced() { "yes" } else { "no" };
        assert_eq!(sim, want_sim, "{code}: table sim-enforced cell drifted");
    }
    assert!(
        rows.is_empty(),
        "DESIGN.md rule table has rows for unknown rules: {:?}",
        rows.keys().collect::<Vec<_>>()
    );
}

/// V070–V073 are advisory (warnings the simulator happily executes);
/// V074 is the watchdog's dynamic verdict — an error, but still not
/// something `execute` rejects. None of the family may claim sim
/// enforcement.
#[test]
fn timing_rules_are_not_sim_enforced() {
    let family = [
        (Rule::UnboundedWait, "V070", Severity::Warning),
        (Rule::DeadInstr, "V071", Severity::Warning),
        (Rule::RedundantWait, "V072", Severity::Warning),
        (Rule::WideEnvelope, "V073", Severity::Warning),
        (Rule::EnvelopeExceeded, "V074", Severity::Error),
    ];
    for (rule, code, severity) in family {
        assert_eq!(rule.code(), code);
        assert_eq!(rule.severity(), severity, "{code}");
        assert!(
            !rule.sim_enforced(),
            "{code} marked sim-enforced, but the flash model executes it"
        );
    }
}
