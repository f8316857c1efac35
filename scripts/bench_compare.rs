//! Bench-regression gate: diff a fresh `BENCH_PR<n>.json` against a
//! committed baseline and fail on regressions.
//!
//! Standalone — compile with plain rustc (no cargo, no dependencies):
//!
//! ```sh
//! rustc --edition 2021 -O scripts/bench_compare.rs -o /tmp/bench_compare
//! /tmp/bench_compare BENCH_PR14.json fresh.json
//! # its own unit tests:
//! rustc --edition 2021 --test scripts/bench_compare.rs -o /tmp/bench_compare_test
//! /tmp/bench_compare_test
//! ```
//!
//! Raw medians are not comparable across machines (the committed
//! baseline comes from a developer box, the candidate from a CI runner),
//! so every report carries `calibration_median_ns`: the median of a
//! fixed std-only kernel timed in the same run (see
//! `crates/bench/benches/planner.rs`). The gate compares each group's
//! *calibrated* median, `median_ns / calibration_median_ns`, and a group
//! regresses when that grows by more than the threshold (default 25%)
//! over the baseline's. The kernel uses no repository code, so a
//! slowdown in shared code such as `Table::scan` moves the group medians
//! and not the calibration — the gate sees it. A report without a
//! calibration record fails the gate.
//!
//! Groups present in only one file are reported but not gated; zero
//! shared groups is itself a failure (a rename must update the baseline
//! deliberately, not silently disable the gate). Pass
//! `--max-regression-pct <n>` to change the threshold. `--require
//! <group>` (repeatable) names the gated groups: each must be in both
//! reports — so a renamed or dropped benchmark cannot silently leave the
//! comparison — and once any is named, the other shared groups are
//! reported but not gated, which keeps groups too noisy for the
//! threshold out of the verdict.

use std::process::ExitCode;

/// One parsed bench report.
#[derive(Debug, PartialEq)]
struct Report {
    calibration_ns: f64,
    /// (group name, median ns), in file order.
    groups: Vec<(String, f64)>,
}

/// Parse a bench report. The writer emits the calibration and each
/// result on its own line with fixed keys, so a tolerant line scan is
/// enough — no JSON dependency needed.
fn parse_report(text: &str) -> Result<Report, String> {
    let calibration_ns = text
        .lines()
        .find_map(|line| field_num(line, "\"calibration_median_ns\""))
        .filter(|ns| *ns > 0.0)
        .ok_or("no calibration_median_ns record")?;
    let mut groups = Vec::new();
    for line in text.lines() {
        let Some(name) = field_str(line, "\"name\"") else {
            continue;
        };
        match field_num(line, "\"median_ns\"") {
            Some(ns) => groups.push((name, ns)),
            None => return Err(format!("malformed result line: {line}")),
        }
    }
    if groups.is_empty() {
        return Err("no benchmark records found".to_string());
    }
    Ok(Report {
        calibration_ns,
        groups,
    })
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

impl Report {
    /// The calibrated median of `name`, if the report has the group.
    fn calibrated(&self, name: &str) -> Option<f64> {
        let (_, ns) = self.groups.iter().find(|(n, _)| n == name)?;
        Some(ns / self.calibration_ns)
    }
}

/// The gate's verdict: one table row per group, plus the failures.
struct Verdict {
    rows: Vec<String>,
    failures: Vec<String>,
}

fn compare(
    baseline: &Report,
    candidate: &Report,
    max_regression_pct: f64,
    required: &[String],
) -> Verdict {
    let allowed = 1.0 + max_regression_pct / 100.0;
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    let mut shared = 0usize;
    for (name, _) in &baseline.groups {
        let base = baseline.calibrated(name).expect("baseline group");
        let Some(cand) = candidate.calibrated(name) else {
            rows.push(format!(
                "{name:<32} {base:>12.6} {:>12} {:>9}  baseline-only (not gated)",
                "-", "-"
            ));
            continue;
        };
        shared += 1;
        let ratio = cand / base;
        let gated = required.is_empty() || required.contains(name);
        let regressed = gated && ratio > allowed;
        let verdict = match (gated, regressed) {
            (false, _) => "not required (not gated)",
            (true, true) => "REGRESSED",
            (true, false) => "ok",
        };
        rows.push(format!(
            "{name:<32} {base:>12.6} {cand:>12.6} {ratio:>8.2}x  {verdict}"
        ));
        if regressed {
            failures.push(format!(
                "{name}: calibrated median {cand:.6} vs baseline {base:.6} \
                 ({:.1}% worse, allowed {max_regression_pct:.1}%)",
                (ratio - 1.0) * 100.0
            ));
        }
    }
    for (name, _) in &candidate.groups {
        if baseline.calibrated(name).is_none() {
            rows.push(format!(
                "{name:<32} {:>12} {:>12} {:>9}  candidate-only (not gated)",
                "-", "-", "-"
            ));
        }
    }
    if shared == 0 {
        failures.push(
            "no benchmark groups shared between the reports — the gate would be vacuous"
                .to_string(),
        );
    }
    for name in required {
        if baseline.calibrated(name).is_none() || candidate.calibrated(name).is_none() {
            failures.push(format!(
                "{name}: required group is missing from a report — \
                 renamed or added benchmarks must be carried into the committed baseline"
            ));
        }
    }
    Verdict { rows, failures }
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_report(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut files: Vec<String> = Vec::new();
    let mut max_regression_pct = 25.0f64;
    let mut required: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-regression-pct" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_regression_pct = v,
                None => {
                    eprintln!("--max-regression-pct needs a numeric argument");
                    return ExitCode::FAILURE;
                }
            },
            "--require" => match args.next() {
                Some(name) => required.push(name),
                None => {
                    eprintln!("--require needs a benchmark group name");
                    return ExitCode::FAILURE;
                }
            },
            other => files.push(other.to_string()),
        }
    }
    let [baseline_path, candidate_path] = files.as_slice() else {
        eprintln!("usage: bench_compare [--max-regression-pct N] [--require GROUP]... <baseline.json> <candidate.json>");
        return ExitCode::FAILURE;
    };
    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return ExitCode::FAILURE;
        }
    };

    let verdict = compare(&baseline, &candidate, max_regression_pct, &required);
    println!(
        "{:<32} {:>12} {:>12} {:>9}  verdict",
        "benchmark", "base calib", "cand calib", "ratio"
    );
    for row in &verdict.rows {
        println!("{row}");
    }
    if verdict.failures.is_empty() {
        println!("\nbench gate passed: calibrated medians within {max_regression_pct:.0}% of {baseline_path}");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nbench gate FAILED:");
        for f in &verdict.failures {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(calibration: f64, groups: &[(&str, f64)]) -> Report {
        Report {
            calibration_ns: calibration,
            groups: groups.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn parses_the_bench_report_format() {
        let text = r#"{
  "pr": 14,
  "bench": "planner",
  "unit": "ns",
  "calibration_median_ns": 4000.0,
  "results": [
    {"name": "scan_10k", "median_ns": 800.5},
    {"name": "join_10k", "median_ns": 1.2e4}
  ]
}"#;
        assert_eq!(
            parse_report(text).unwrap(),
            report(4000.0, &[("scan_10k", 800.5), ("join_10k", 12000.0)])
        );
    }

    #[test]
    fn missing_calibration_record_fails() {
        let text = r#"{"results": [
    {"name": "scan_10k", "median_ns": 800.5}
]}"#;
        let err = parse_report(text).unwrap_err();
        assert!(err.contains("calibration"), "{err}");
    }

    #[test]
    fn ratio_is_normalised_by_each_runs_calibration() {
        // The candidate machine is twice as slow across the board: raw
        // medians double, calibrated medians do not move.
        let base = report(1000.0, &[("scan", 500.0)]);
        let cand = report(2000.0, &[("scan", 1000.0)]);
        assert!(compare(&base, &cand, 25.0, &[]).failures.is_empty());
        // A 30% slowdown of the group alone, on the same machine, fails.
        let slow = report(1000.0, &[("scan", 650.0)]);
        let verdict = compare(&base, &slow, 25.0, &[]);
        assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
        assert!(verdict.failures[0].starts_with("scan:"));
    }

    #[test]
    fn required_group_absent_from_report_fails() {
        let base = report(1000.0, &[("scan", 500.0), ("join", 700.0)]);
        let cand = report(1000.0, &[("scan", 500.0)]);
        let required = ["join".to_string()];
        let verdict = compare(&base, &cand, 25.0, &required);
        assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
        assert!(verdict.failures[0].starts_with("join:"));
        // Not required: reported, not gated.
        assert!(compare(&base, &cand, 25.0, &[]).failures.is_empty());
    }

    #[test]
    fn only_required_groups_gate_once_any_is_named() {
        let base = report(1000.0, &[("steady", 500.0), ("noisy", 500.0)]);
        let cand = report(1000.0, &[("steady", 510.0), ("noisy", 900.0)]);
        assert_eq!(compare(&base, &cand, 25.0, &[]).failures.len(), 1);
        let required = ["steady".to_string()];
        assert!(compare(&base, &cand, 25.0, &required).failures.is_empty());
    }

    #[test]
    fn no_shared_groups_fails() {
        let base = report(1000.0, &[("scan", 500.0)]);
        let cand = report(1000.0, &[("join", 500.0)]);
        assert_eq!(compare(&base, &cand, 25.0, &[]).failures.len(), 1);
    }
}
