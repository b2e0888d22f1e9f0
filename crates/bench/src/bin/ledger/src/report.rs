//! Result records: the contract line on stdout, the JSON-lines result file,
//! the human table on stderr — and `ledger compare`, which applies the
//! per-metric bounds to two result files.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::metrics::{end_to_end, unit_of, Better};
use crate::stats::{iqr_spread, median, range_spread};

/// One metric of one run: the reported value and the per-window (or
/// per-repetition) values behind it.
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub parts: Vec<f64>,
}

impl Value {
    /// A metric of either table, with the table's unit.
    pub fn new(name: &'static str, value: f64, parts: Vec<f64>) -> Value {
        Value {
            name,
            unit: unit_of(name),
            value,
            parts,
        }
    }
}

/// One run of one workload, traced or not.
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<Value>,
}

impl Record {
    /// No check failed and every metric was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.values.iter().all(|v| v.value.is_finite())
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(v.name),
                    json::number(v.value),
                    json::quote(v.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The benchmark contract's result object: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The result-file line: the contract object plus what `compare` and a
    /// reader need to place it (workload, seed, pass, per-window values).
    pub fn file_line(&self) -> String {
        let parts: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                let list: Vec<String> = v.parts.iter().map(|&p| json::number(p)).collect();
                format!("{}: [{}]", json::quote(v.name), list.join(", "))
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"error_rate\": {}, \"metrics\": {}, \"parts\": {{{}}}}}",
            json::quote(&self.workload),
            self.seed,
            self.trace,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json::number(self.failed as f64 / self.attempted.max(1) as f64),
            self.metrics_json(),
            parts.join(", ")
        )
    }

    /// Every metric by name with its unit, and the spread of its parts.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for v in &self.values {
            let _ = write!(out, "  {:<36} {:>14.4} {:<6}", v.name, v.value, v.unit);
            if v.parts.len() > 1 {
                let parts: Vec<String> = v.parts.iter().map(|p| format!("{p:.4}")).collect();
                let _ = write!(
                    out,
                    " spread {:>5.1}%  [{}]",
                    100.0 * range_spread(&v.parts),
                    parts.join(", ")
                );
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "  {:<36} {:>14.6} ({} failed of {} attempted)",
            "error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        out
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound, and the two sides'
    /// runs overlap: the data cannot tell.
    Unresolved,
}

/// One metric's values on one side of a comparison: one per run, or — for a
/// file holding a single run — that run's per-window values as the spread.
struct Side {
    runs: Vec<f64>,
    window_spread: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.runs.len() >= 2 {
            iqr_spread(&self.runs)
        } else {
            self.window_spread
        }
    }
}

/// `(verdict, change, spread)`: `change` is the share of the baseline
/// median by which `b` is *worse* (negative: better).
fn judge(better: Better, bound: f64, a: &Side, b: &Side) -> (Verdict, f64, f64) {
    let (a_med, b_med) = (median(&a.runs), median(&b.runs));
    let worse_by = |x: f64, y: f64| match better {
        Better::Lower => (y - x) / a_med,
        Better::Higher => (x - y) / a_med,
    };
    let change = worse_by(a_med, b_med);
    let spread = a.spread().max(b.spread());
    let every_pair = |pred: &dyn Fn(f64) -> bool| {
        a.runs
            .iter()
            .all(|&x| b.runs.iter().all(|&y| pred(worse_by(x, y))))
    };
    let verdict = if spread > bound {
        if every_pair(&|w| w < 0.0) {
            Verdict::Improved
        } else if every_pair(&|w| w > bound) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if change > bound {
        Verdict::Regressed
    } else if change < -spread && paired_wins(&a.runs, &b.runs, &worse_by) >= 0.9 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, change, spread)
}

/// Share of run pairs (by position) that `b` wins, ties counting for
/// neither; 1 when the files do not hold the same number of runs.
fn paired_wins(a: &[f64], b: &[f64], worse_by: &dyn Fn(f64, f64) -> f64) -> f64 {
    if a.len() != b.len() {
        return 1.0;
    }
    let wins = a
        .iter()
        .zip(b)
        .filter(|(&x, &y)| worse_by(x, y) < 0.0)
        .count();
    wins as f64 / a.len() as f64
}

/// `(workload, metric) → side` for every untraced record of a result file,
/// plus `workload → (failed, attempted)`.
type Sides = BTreeMap<(String, String), Side>;
type Errors = BTreeMap<String, (f64, f64)>;

fn load(path: &str) -> Result<(Sides, Errors), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (mut sides, mut errors) = (Sides::new(), Errors::new());
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let record = json::parse(line).map_err(|e| bad(&e))?;
        if record.get("trace") == Some(&Json::Bool(true)) {
            continue; // per-layer metrics carry no bounds
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let number = |key: &str| record.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let e = errors.entry(workload.to_string()).or_default();
        *e = (e.0 + number("failed"), e.1 + number("attempted"));
        let metrics = record
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| bad("no metrics"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let parts: Vec<f64> = record
                .get("parts")
                .and_then(|p| p.get(name))
                .and_then(Json::as_array)
                .map(|a| a.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            let side = sides
                .entry((workload.to_string(), name.clone()))
                .or_insert(Side {
                    runs: Vec::new(),
                    window_spread: 0.0,
                });
            side.runs.push(value);
            if parts.len() > 1 {
                side.window_spread = range_spread(&parts);
            }
        }
    }
    Ok((sides, errors))
}

/// Compares result file `b` (the change) against `a` (the baseline): one
/// verdict row per (workload, end-to-end metric). `Ok(true)` when nothing
/// regressed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let ((a, a_err), (b, b_err)) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<14} {:<18} {:>12} {:>12} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "baseline", "change", "worse%", "bound%", "spread%"
    );
    let mut ok = true;
    for ((workload, name), a_side) in &a {
        let (Some(b_side), Some(metric)) =
            (b.get(&(workload.clone(), name.clone())), end_to_end(name))
        else {
            continue;
        };
        let (verdict, change, spread) = judge(metric.better, metric.bound, a_side, b_side);
        ok &= verdict != Verdict::Regressed;
        println!(
            "{workload:<14} {name:<18} {:>12.4} {:>12.4} {:>+8.1} {:>6.0} {:>7.1}  {}",
            median(&a_side.runs),
            median(&b_side.runs),
            100.0 * change,
            100.0 * metric.bound,
            100.0 * spread,
            format!("{verdict:?}").to_lowercase()
        );
    }
    // error_rate has no tolerance: any increase is a regression.
    for (workload, &(failed, attempted)) in &a_err {
        let Some(&(b_failed, b_attempted)) = b_err.get(workload) else {
            continue;
        };
        let (rate_a, rate_b) = (failed / attempted.max(1.0), b_failed / b_attempted.max(1.0));
        let verdict = if rate_b > rate_a {
            ok = false;
            "regressed"
        } else if rate_b < rate_a {
            "improved"
        } else {
            "unchanged"
        };
        println!(
            "{workload:<14} {:<18} {rate_a:>12.6} {rate_b:>12.6} {:>8} {:>6} {:>7}  {verdict}",
            "error_rate", "", "0", ""
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workload::ALL;

    fn side(runs: &[f64]) -> Side {
        Side {
            runs: runs.to_vec(),
            window_spread: 0.0,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let judge = |a: &[f64], b: &[f64]| judge(Better::Lower, 0.10, &side(a), &side(b)).0;
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&base, &[100.2, 100.9, 99.3, 100.4, 99.8]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&base, &[112.0, 113.0, 111.0, 112.5, 111.5]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&base, &[90.0, 91.0, 89.0, 90.5, 89.5]),
            Verdict::Improved
        );
        // 5 % worse is inside the bound.
        assert_eq!(
            judge(&base, &[105.0, 106.0, 104.0, 105.5, 104.5]),
            Verdict::Unchanged
        );
        // A baseline whose own runs spread 40 % resolves nothing …
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &[95.0, 105.0, 85.0, 115.0, 100.0]),
            Verdict::Unresolved
        );
        // … unless every run of the change beats every run of the baseline.
        assert_eq!(
            judge(&noisy, &[50.0, 55.0, 60.0, 52.0, 58.0]),
            Verdict::Improved
        );
        assert_eq!(
            judge(&noisy, &[150.0, 155.0, 160.0, 152.0, 158.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction_and_single_runs_use_window_spread() {
        let (verdict, change, _) = judge(
            Better::Higher,
            0.10,
            &side(&[100.0, 100.0]),
            &side(&[80.0, 80.0]),
        );
        assert_eq!(verdict, Verdict::Regressed);
        assert!((change - 0.2).abs() < 1e-12);
        let single = |v: f64, window_spread| Side {
            runs: vec![v],
            window_spread,
        };
        let verdict = judge(
            Better::Lower,
            0.10,
            &single(100.0, 0.3),
            &single(104.0, 0.02),
        )
        .0;
        assert_eq!(
            verdict,
            Verdict::Unresolved,
            "windows 30 % apart, runs overlap"
        );
        let verdict = judge(
            Better::Lower,
            0.10,
            &single(100.0, 0.03),
            &single(104.0, 0.02),
        )
        .0;
        assert_eq!(verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_record_round_trips_through_its_file_line() {
        let record = Record {
            workload: "path_scan".into(),
            seed: 3,
            trace: false,
            attempted: 10,
            failed: 0,
            values: vec![Value {
                name: "query_p50_ms",
                unit: "ms",
                value: 30.25,
                parts: vec![30.0, 30.25, 31.0],
            }],
        };
        assert!(record.correct());
        let contract = json::parse(&record.contract_line()).unwrap();
        let keys: Vec<&String> = contract.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let dir = std::env::temp_dir().join(format!("ledger-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.json");
        std::fs::write(&path, format!("{}\n", record.file_line())).unwrap();
        let (sides, errors) = load(path.to_str().unwrap()).unwrap();
        let side = &sides[&("path_scan".to_string(), "query_p50_ms".to_string())];
        assert_eq!(side.runs, vec![30.25]);
        assert!((side.window_spread - 1.0 / 30.25).abs() < 1e-12);
        assert_eq!(errors["path_scan"], (0.0, 10.0));
        assert!(compare(path.to_str().unwrap(), path.to_str().unwrap()).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `BENCHMARK.json` at the repository root must list exactly the tables'
    /// workloads and metrics, with their units, directions and bounds.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();
        let listed: Vec<_> = doc
            .get("end_to_end")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let table: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, table);
        let layers: Vec<_> = doc
            .get("per_layer")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let table: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.label().to_string()))
            .collect();
        assert_eq!(layers, table);
        let workloads: Vec<_> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<_> = ALL
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
    }
}
