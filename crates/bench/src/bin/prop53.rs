//! Experiment `prop53` — Proposition 5.3: on `Q_w` (here `w = 2`),
//! Minesweeper's CDS must execute `Ω(m^w)` chain merges even though
//! `|C| = O(wm)`. Probe points stay `O(m)` — the cost shows up in
//! backtracks and `Next` calls, exactly the "Line 17" executions the
//! paper's proof counts.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin prop53
//! [--mmax m] [--json FILE]`. With `--json` the deterministic work
//! counters (probe points, backtracks, CDS next calls — `Q_w` instances
//! are fully deterministic) are written as flat JSON for CI's exact
//! `bench_gate`.

use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_cds::ProbeMode;
use minesweeper_core::{canonical_certificate_size, minesweeper_join};
use minesweeper_workloads::prop53::qw_instance;

fn main() {
    let mmax: i64 = arg_or("--mmax", 48);
    let json = arg_opt("--json");
    let mut record = BenchRecord::new();
    println!(
        "Proposition 5.3: Q_2 = R12 ⋈ R13 ⋈ R23 ⋈ U with |C| = O(m);\n\
         Minesweeper's merge work must grow ~m² (backtracks / Next calls).\n"
    );
    let mut table = Table::new(&[
        "m",
        "N",
        "cert UB",
        "probes",
        "backtracks",
        "bt/m^2",
        "next calls",
        "time",
    ]);
    let mut m = 6i64;
    while m <= mmax {
        let inst = qw_instance(2, m);
        let cert = canonical_certificate_size(&inst.db, &inst.query).unwrap();
        let (res, t) =
            timed(|| minesweeper_join(&inst.db, &inst.query, ProbeMode::General).unwrap());
        assert!(res.tuples.is_empty());
        record.metric(format!("prop53_m{m}_probes"), res.stats.probe_points);
        record.metric(format!("prop53_m{m}_backtracks"), res.stats.backtracks);
        record.metric(format!("prop53_m{m}_next"), res.stats.cds_next_calls);
        table.row(&[
            m.to_string(),
            human(inst.db.total_tuples() as u64),
            human(cert),
            human(res.stats.probe_points),
            human(res.stats.backtracks),
            format!("{:.2}", res.stats.backtracks as f64 / (m * m) as f64),
            human(res.stats.cds_next_calls),
            human_time(t),
        ]);
        m *= 2;
    }
    table.print();
    println!(
        "\nPaper's shape: backtracks/m² stays ~constant (the Ω(m^w) lower\n\
         bound for Minesweeper, tight against Theorem 5.1's O(|C|^{{w+1}}))."
    );
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
