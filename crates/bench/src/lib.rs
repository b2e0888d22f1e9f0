//! Shared utilities for the experiment binaries.
//!
//! Every experiment has a binary in `src/bin/` that prints a paper-style
//! table and, under `--json FILE`, writes its deterministic **work
//! counters** as a [`BenchRecord`]; `ci/bench.sh` runs the binaries listed
//! in `ci/bench_manifest.txt` and `bench_gate` compares the counters
//! exactly against `ci/bench_baseline.json`. This module provides the table
//! renderer, unit formatting (the paper's `M`/`K` units from Figure 2), the
//! `--flag value` helpers and the counter record. [`timed`] and
//! [`human_time`] exist for the time columns of the printed tables
//! (Figure 2 and Appendix I are runtime tables) and nothing else: no wall
//! time is written to or read from a file here — that is the latency
//! ledger's job (`BENCHMARK.json`).

use std::time::{Duration, Instant};

/// Formats a count the way Figure 2 does: `352M`, `214K`, or plain.
pub fn human(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{}M", n / 1_000_000)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{}K", n / 1_000)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Formats a duration compactly (`1.23s`, `45.6ms`, `789µs`).
pub fn human_time(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// Times a closure, returning `(result, wall_time)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A simple aligned-column table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (lengths must match the header).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(c);
                for _ in c.chars().count()..width[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &width));
        out.push('\n');
        let total: usize = width.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &width));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// The value after the first `flag` in `args`, parsed: `Ok(None)` when
/// the flag is absent, `Err` naming the flag when it is the last argument
/// or its value does not parse.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    match value.parse() {
        Ok(v) => Ok(Some(v)),
        Err(_) => Err(format!("{flag}: cannot parse {value:?}")),
    }
}

/// [`parse_flag`] over `std::env::args`; a malformed flag is a usage
/// error (exit 2), never a silent fall-back to the default.
fn env_flag<T: std::str::FromStr>(flag: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, flag).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Parses a `--flag value` style argument from `std::env::args`, with a
/// default for an absent flag. Exits 2 when the value is missing or does
/// not parse.
pub fn arg_or<T: std::str::FromStr>(flag: &str, default: T) -> T {
    env_flag(flag).unwrap_or(default)
}

/// Parses an optional `--flag value` string argument from `std::env::args`.
/// Exits 2 when the flag is the last argument.
pub fn arg_opt(flag: &str) -> Option<String> {
    env_flag(flag)
}

/// A flat set of named work counters (deterministic — probe points,
/// `FindGap` calls, CDS next calls, seeks, output sizes), serialized as the
/// one-pair-per-line JSON object `bench_gate` compares exactly against the
/// checked-in baseline.
#[derive(Debug, Default, Clone)]
pub struct BenchRecord {
    metrics: Vec<(String, u64)>,
}

impl BenchRecord {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a work counter.
    pub fn metric(&mut self, name: impl Into<String>, value: u64) {
        let name = name.into();
        assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "duplicate metric {name}"
        );
        self.metrics.push((name, value));
    }

    /// The metrics recorded so far, in insertion order.
    pub fn metrics(&self) -> &[(String, u64)] {
        &self.metrics
    }

    /// Renders the flat-JSON object (the format [`parse_flat_json`]
    /// reads back).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i + 1 == self.metrics.len() { "" } else { "," };
            out.push_str(&format!("  \"{name}\": {value}{sep}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Writes the record to `path` as flat JSON.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Parses the flat-JSON metric format emitted by [`BenchRecord::to_json`]:
/// a single object of `"name": count` pairs (no nesting, no strings, no
/// arrays, no fractions — by design, so no JSON dependency is needed).
/// Returns pairs in file order.
pub fn parse_flat_json(text: &str) -> Result<Vec<(String, u64)>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| "expected a top-level JSON object".to_string())?;
    let mut out = Vec::new();
    for raw in body.split(',') {
        let pair = raw.trim();
        if pair.is_empty() {
            continue;
        }
        let (name, value) = pair
            .split_once(':')
            .ok_or_else(|| format!("malformed pair {pair:?}"))?;
        let name = name
            .trim()
            .strip_prefix('"')
            .and_then(|n| n.strip_suffix('"'))
            .ok_or_else(|| format!("metric name must be quoted: {pair:?}"))?;
        let value: u64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad count in {pair:?}: {e}"))?;
        out.push((name.to_string(), value));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_units_match_figure2_style() {
        assert_eq!(human(352_000_000), "352M");
        assert_eq!(human(1_500_000), "1.5M");
        assert_eq!(human(214_000), "214K");
        assert_eq!(human(3_441), "3.4K");
        assert_eq!(human(842), "842");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["Query", "N", "|C|"]);
        t.row(&["Star".into(), "352M".into(), "214K".into()]);
        t.row(&["3-path".into(), "1.5M".into(), "842".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Query"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("352M"));
    }

    #[test]
    fn time_formatting() {
        assert_eq!(human_time(Duration::from_secs(2)), "2.00s");
        assert_eq!(human_time(Duration::from_millis(45)), "45.0ms");
        assert_eq!(human_time(Duration::from_micros(789)), "789µs");
    }

    #[test]
    fn timed_returns_result() {
        let (v, d) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn bench_record_json_round_trips() {
        let mut r = BenchRecord::new();
        r.metric("triangle_hard_m12_generic_next", 12345);
        r.metric("appendixj_m8_ms_probes", 42);
        let json = r.to_json();
        assert!(json.starts_with("{\n"), "{json}");
        assert!(json.contains("\"triangle_hard_m12_generic_next\": 12345,"));
        assert_eq!(parse_flat_json(&json).unwrap(), r.metrics());
    }

    #[test]
    fn parse_flat_json_rejects_garbage() {
        assert!(parse_flat_json("not json").is_err());
        assert!(parse_flat_json("{\"a\" 1}").is_err());
        assert!(parse_flat_json("{\"a\": x}").is_err());
        assert!(parse_flat_json("{a: 1}").is_err(), "unquoted name");
        assert!(parse_flat_json("{\"a\": 2.5}").is_err(), "a wall time");
        assert_eq!(parse_flat_json("{}").unwrap(), vec![]);
        assert_eq!(
            parse_flat_json("{ \"a\": 1, \"b\": 25 }").unwrap(),
            vec![("a".to_string(), 1), ("b".to_string(), 25)]
        );
    }

    #[test]
    fn flags_parse_or_name_what_they_discard() {
        let args: Vec<String> = ["thm27", "--n", "4o96", "--scale", "16", "--json"]
            .map(String::from)
            .to_vec();
        assert_eq!(parse_flag::<usize>(&args, "--scale"), Ok(Some(16)));
        assert_eq!(parse_flag::<usize>(&args, "--mmax"), Ok(None));
        let unparsable = parse_flag::<usize>(&args, "--n").unwrap_err();
        assert!(
            unparsable.contains("--n") && unparsable.contains("4o96"),
            "{unparsable}"
        );
        let trailing = parse_flag::<String>(&args, "--json").unwrap_err();
        assert!(trailing.contains("--json"), "{trailing}");
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_metric_names_rejected() {
        let mut r = BenchRecord::new();
        r.metric("x", 1);
        r.metric("x", 2);
    }
}
