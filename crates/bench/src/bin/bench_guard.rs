//! CI perf-regression gate.
//!
//! ```text
//! bench_guard <BENCH_reproduce.json> <ci/bench_budget.json>            # enforce
//! bench_guard --strict <BENCH_reproduce.json> <ci/bench_budget.json>  # + unguarded = failure
//! bench_guard --update <BENCH_reproduce.json> <ci/bench_budget.json>  # rewrite budget
//! ```
//!
//! Enforcement reads the measured `total_wall_secs` and per-section
//! `wall_secs` from a `BENCH_reproduce.json` produced by the `reproduce`
//! binary and compares them against the checked-in budget
//! (`reproduce_fast_budget_secs` plus per-section `budget_secs` in
//! `ci/bench_budget.json`). Both documents are parsed with the in-repo
//! codec; a malformed document, or a section entry without a string `name`
//! and a numeric value, fails the gate with an error naming the entry. The
//! job fails when the total — or any budgeted section — exceeds twice its
//! budget, and the failure report names each offending section with its
//! budget, its measurement, and how far over it is, instead of a bare exit
//! code. The 2× factor absorbs runner-hardware
//! variance while still catching complexity regressions.
//!
//! Measured sections *absent from the budget file* do not fail the gate by
//! default (a budget refresh is a deliberate, reviewed step) but are reported
//! as a warning naming each unguarded section, so a newly added panel cannot
//! silently dodge regression coverage. Under `--strict` — what CI runs —
//! that warning becomes a failure: every measured section must carry a
//! budget entry before the gate passes.
//!
//! `--update` rewrites the budget file from the current measurement (totals
//! and sections alike), for deliberate budget refreshes after intentional
//! perf changes — never run it to paper over a regression.

use std::fmt::Write as _;
use std::process::ExitCode;

use byterobust_bench::perf::read_sections;
use byterobust_incident::codec::JsonValue;

/// Allowed slowdown over a budget before the gate trips.
const REGRESSION_FACTOR: f64 = 2.0;

/// Budgets below this are noise; `--update` clamps up to it so a 2 ms
/// section cannot trip the gate on a 5 ms measurement.
const MIN_BUDGET_SECS: f64 = 0.05;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_guard [--update | --strict] <BENCH_reproduce.json> <bench_budget.json>"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut update = false;
    let mut strict = false;
    while let Some(flag) = args.first().map(String::as_str) {
        match flag {
            "--update" => update = true,
            "--strict" => strict = true,
            _ => break,
        }
        args.remove(0);
    }
    let [results_path, budget_path] = args.as_slice() else {
        return usage();
    };

    let Some((measured_total, measured_sections)) =
        read_document(results_path, "total_wall_secs", "wall_secs")
    else {
        return ExitCode::FAILURE;
    };

    if update {
        let budget = render_budget(measured_total, &measured_sections);
        return match std::fs::write(budget_path, budget) {
            Ok(()) => {
                println!(
                    "bench_guard: wrote {budget_path} from {results_path} \
                     (total {measured_total:.2}s, {} sections)",
                    measured_sections.len()
                );
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("bench_guard: cannot write {budget_path}: {err}");
                ExitCode::FAILURE
            }
        };
    }

    let Some((allowed_total, section_budgets)) =
        read_document(budget_path, "reproduce_fast_budget_secs", "budget_secs")
    else {
        return ExitCode::FAILURE;
    };

    // Compare every budgeted quantity; collect the offenders.
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    fn check(
        rows: &mut Vec<String>,
        failures: &mut Vec<String>,
        name: &str,
        measured: f64,
        budget: f64,
    ) {
        let limit = budget * REGRESSION_FACTOR;
        let over = measured > limit;
        let pct_of_budget = 100.0 * measured / budget.max(1e-9);
        rows.push(format!(
            "  {:<24} budget {:>7.2}s  measured {:>7.2}s  ({:>4.0}% of budget){}",
            name,
            budget,
            measured,
            pct_of_budget,
            if over { "  << OVER 2x LIMIT" } else { "" }
        ));
        if over {
            failures.push(format!(
                "{name}: {measured:.2}s is {:.0}% over its {budget:.2}s budget (limit {limit:.2}s)",
                pct_of_budget - 100.0
            ));
        }
    }
    check(
        &mut rows,
        &mut failures,
        "total",
        measured_total,
        allowed_total,
    );
    for (name, budget_secs) in &section_budgets {
        match measured_sections.iter().find(|(n, _)| n == name) {
            Some((_, measured)) => check(&mut rows, &mut failures, name, *measured, *budget_secs),
            None => {
                // A budgeted section vanishing from the results is a gate
                // failure, not a footnote: otherwise renaming a section
                // silently drops its regression coverage.
                rows.push(format!(
                    "  {name:<24} budget {budget_secs:>7.2}s  measured      -    << MISSING FROM RESULTS"
                ));
                failures.push(format!(
                    "{name}: budgeted section missing from results — renamed or dropped? \
                     Run bench_guard --update to adopt the new section list deliberately"
                ));
            }
        }
    }
    // Measured sections with no budget entry cannot regress-gate anything: a
    // newly added panel would silently dodge the guard. A loud warning that
    // names every unguarded section by default; a gate failure under
    // `--strict` (CI), where the budget must cover every measured section.
    let unknown: Vec<&str> = measured_sections
        .iter()
        .map(|(name, _)| name.as_str())
        .filter(|name| !section_budgets.iter().any(|(n, _)| n == name))
        .collect();
    for name in &unknown {
        rows.push(format!(
            "  {name:<24} (no budget recorded — run bench_guard --update to adopt it)"
        ));
        if strict {
            failures.push(format!(
                "{name}: measured section has no budget entry (--strict). Run bench_guard \
                 --update to adopt it deliberately"
            ));
        }
    }

    let mut report = String::new();
    let _ = writeln!(
        report,
        "bench_guard: current run vs {budget_path} (gate trips at {REGRESSION_FACTOR}x budget)"
    );
    for row in rows {
        let _ = writeln!(report, "{row}");
    }
    if !unknown.is_empty() && !strict {
        eprintln!(
            "bench_guard: WARNING — {} measured section(s) have no budget entry and are NOT \
             regression-guarded: {}. Run `bench_guard --update {results_path} {budget_path}` to \
             adopt them deliberately.",
            unknown.len(),
            unknown.join(", ")
        );
    }
    if failures.is_empty() {
        print!("{report}");
        println!("bench_guard: OK — total {measured_total:.2}s within budget");
        ExitCode::SUCCESS
    } else {
        eprint!("{report}");
        eprintln!(
            "bench_guard: FAIL — {} regression(s). Either a perf regression slipped in or the \
             budget needs a deliberate `bench_guard --update` with a justification:",
            failures.len()
        );
        for failure in failures {
            eprintln!("  {failure}");
        }
        ExitCode::FAILURE
    }
}

/// Reads the numeric `total_key` and the `sections` pairs (valued by
/// `value_key`) from the JSON document at `path`. Reports the first problem
/// on stderr and returns `None`.
fn read_document(
    path: &str,
    total_key: &str,
    value_key: &str,
) -> Option<(f64, Vec<(String, f64)>)> {
    let read = || -> Result<(f64, Vec<(String, f64)>), String> {
        let text =
            std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
        let document = JsonValue::parse(&text).map_err(|err| format!("{path}: {err}"))?;
        let total = document
            .field(total_key)
            .map_err(|err| format!("{path}: no numeric {total_key}: {err}"))?;
        let sections =
            read_sections(&document, value_key).map_err(|err| format!("{path}: {err}"))?;
        Ok((total, sections))
    };
    read().map_err(|err| eprintln!("bench_guard: {err}")).ok()
}

/// Renders a fresh `ci/bench_budget.json` from the current measurement.
fn render_budget(total: f64, sections: &[(String, f64)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"comment\": \"Wall-clock budgets for `BYTEROBUST_FAST=1 reproduce` on CI hardware, \
         in seconds. bench_guard fails the bench-smoke job when the measured total_wall_secs — \
         or any budgeted section — in BENCH_reproduce.json exceeds 2x its budget. Regenerate \
         deliberately with `bench_guard --update BENCH_reproduce.json ci/bench_budget.json` \
         (with a perf justification in the PR) — never to paper over a regression.\","
    );
    let _ = writeln!(
        out,
        "  \"reproduce_fast_budget_secs\": {:.2},",
        total.max(MIN_BUDGET_SECS)
    );
    out.push_str("  \"sections\": [\n");
    for (i, (name, secs)) in sections.iter().enumerate() {
        let comma = if i + 1 == sections.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"budget_secs\": {:.2}}}{comma}",
            JsonValue::Str(name.clone()).render(),
            secs.max(MIN_BUDGET_SECS)
        );
    }
    out.push_str("  ]\n}\n");
    out
}
