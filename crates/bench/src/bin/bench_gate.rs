//! `bench_gate` — the CI counter gate.
//!
//! Merges the flat-JSON counter files the experiment binaries write under
//! `--json`, writes the merged set to one file (`--emit`), and compares it
//! **exactly** with the checked-in baseline. The counters are
//! deterministic, so the baseline is a golden file and any difference
//! fails with exit code 1: a counter that moved in either direction (a
//! falling `_z` is a join that lost rows), a baseline counter that was not
//! produced, and a produced counter the baseline does not know.
//!
//! The merged set is written before the baseline is read, so `--emit` onto
//! the baseline itself regenerates it (`ci/bench.sh --regen`).
//!
//! Usage: `bench_gate --baseline FILE [--emit FILE] CURRENT.json
//! [CURRENT2.json ...]`

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use minesweeper_bench::{parse_flat_json, BenchRecord, Table};

type Counters = BTreeMap<String, u64>;

fn load(path: &str) -> Result<Vec<(String, u64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_flat_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compares `current` with `baseline` name by name; returns the report
/// table and one line per counter that differs, is missing, or is extra.
fn gate(baseline: &Counters, current: &Counters) -> (Table, Vec<String>) {
    let mut table = Table::new(&["metric", "baseline", "current", "Δ", "status"]);
    let mut failures = Vec::new();
    let cell = |v: Option<&u64>| v.map_or("—".to_string(), u64::to_string);
    let names: BTreeSet<&String> = baseline.keys().chain(current.keys()).collect();
    for name in names {
        let (base, cur) = (baseline.get(name), current.get(name));
        let (delta, status) = match (base, cur) {
            (Some(b), Some(c)) if b == c => ("0".to_string(), "ok"),
            (Some(&b), Some(&c)) => {
                let delta = format!("{:+}", i128::from(c) - i128::from(b));
                failures.push(format!("{name}: baseline {b}, current {c} (Δ {delta})"));
                (delta, "CHANGED")
            }
            (Some(_), None) => {
                failures.push(format!("{name}: in the baseline but not produced"));
                ("—".to_string(), "MISSING")
            }
            (None, _) => {
                failures.push(format!("{name}: produced but not in the baseline"));
                ("—".to_string(), "EXTRA")
            }
        };
        table.row(&[name.clone(), cell(base), cell(cur), delta, status.into()]);
    }
    (table, failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path: Option<String> = None;
    let mut emit: Option<String> = None;
    let mut current_paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" | "--emit" if i + 1 >= args.len() => {
                eprintln!("{} needs a value", args[i]);
                return ExitCode::from(2);
            }
            "--baseline" => {
                baseline_path = Some(args[i + 1].clone());
                i += 2;
            }
            "--emit" => {
                emit = Some(args[i + 1].clone());
                i += 2;
            }
            path => {
                current_paths.push(path.to_string());
                i += 1;
            }
        }
    }
    let (Some(baseline_path), false) = (baseline_path, current_paths.is_empty()) else {
        eprintln!(
            "usage: bench_gate --baseline FILE [--emit FILE] CURRENT.json [CURRENT2.json ...]"
        );
        return ExitCode::from(2);
    };

    // Merge the current files (rejecting duplicate metric names across
    // them — that would make the comparison ambiguous).
    let mut merged = BenchRecord::new();
    for path in &current_paths {
        let metrics = match load(path) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        for (name, value) in metrics {
            if merged.metrics().iter().any(|(n, _)| *n == name) {
                eprintln!("duplicate metric {name:?} (second copy in {path})");
                return ExitCode::FAILURE;
            }
            merged.metric(name, value);
        }
    }
    if let Some(path) = &emit {
        if let Err(e) = merged.write_json(path) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("merged {} metric(s) into {path}", merged.metrics().len());
    }

    let baseline: Counters = match load(&baseline_path) {
        Ok(m) => m.into_iter().collect(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let current: Counters = merged.metrics().iter().cloned().collect();
    let (table, failures) = gate(&baseline, &current);
    table.print();
    if failures.is_empty() {
        println!(
            "\nbench gate: OK ({} counter(s) equal to the baseline)",
            baseline.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\nbench gate: FAILED");
        for f in &failures {
            eprintln!("  {f}");
        }
        eprintln!("intended? run `ci/bench.sh --regen` and commit the baseline with the reason");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(pairs: &[(&str, u64)]) -> Counters {
        pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn gate_is_exact_in_both_directions_and_in_both_name_sets() {
        let baseline = counters(&[("find_gap_calls", 100), ("z", 40)]);
        assert!(gate(&baseline, &baseline).1.is_empty());

        for (what, current, needle) in [
            (
                "lowered",
                counters(&[("find_gap_calls", 100), ("z", 39)]),
                "z: baseline 40, current 39 (Δ -1)",
            ),
            (
                "raised",
                counters(&[("find_gap_calls", 124), ("z", 40)]),
                "find_gap_calls: baseline 100, current 124 (Δ +24)",
            ),
            (
                "missing",
                counters(&[("find_gap_calls", 100)]),
                "z: in the baseline but not produced",
            ),
            (
                "extra",
                counters(&[("find_gap_calls", 100), ("z", 40), ("seeks", 7)]),
                "seeks: produced but not in the baseline",
            ),
        ] {
            let (table, failures) = gate(&baseline, &current);
            assert_eq!(failures, [needle], "{what}");
            assert_eq!(table.render().lines().count(), 2 + current.len().max(2));
        }
    }
}
