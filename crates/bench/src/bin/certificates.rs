//! Experiment `certificates` — the certificate phenomenology of
//! Section 2.2 / Appendix B, measured on the paper's own examples:
//!
//! * B.1: constant-size certificate, empty output;
//! * B.2: `|C| ≪ Z` (constant certificate, linear output);
//! * B.3/B.4: the same data under GAO `(A,B,C)` vs `(C,A,B)` — the
//!   certificate (and Minesweeper's work) changes by a factor of ~N;
//! * B.6: `(A,B)` vs `(B,A)` on matched diagonal relations;
//! * 2.1: the witness-structure example.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin certificates
//! [--n size] [--json FILE]`. With `--json` each example's deterministic
//! work counters (measured `FindGap` certificate proxy, probe points,
//! output size) are written as flat JSON for CI's exact `bench_gate`.

use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_cds::ProbeMode;
use minesweeper_core::{canonical_certificate_size, minesweeper_join, reindex_for_gao};
use minesweeper_workloads::examples::{
    example_2_1, example_b1, example_b2, example_b3, example_b6,
};
use minesweeper_workloads::queries::Instance;

fn report(
    table: &mut Table,
    record: &mut BenchRecord,
    (name, slug): (&str, &str),
    inst: &Instance,
    mode: ProbeMode,
) {
    let n = inst.db.total_tuples() as u64;
    let ub = canonical_certificate_size(&inst.db, &inst.query).unwrap();
    let (res, t) = timed(|| minesweeper_join(&inst.db, &inst.query, mode).unwrap());
    record.metric(
        format!("cert_{slug}_findgap"),
        res.stats.certificate_estimate(),
    );
    record.metric(format!("cert_{slug}_probes"), res.stats.probe_points);
    record.metric(format!("cert_{slug}_z"), res.stats.outputs);
    table.row(&[
        name.to_string(),
        human(n),
        human(ub),
        human(res.stats.certificate_estimate()),
        human(res.stats.outputs),
        human(res.stats.probe_points),
        human_time(t),
    ]);
}

fn main() {
    let n: i64 = arg_or("--n", 20_000);
    let json = arg_opt("--json");
    let mut record = BenchRecord::new();
    println!(
        "Certificate phenomenology (Appendix B), N parameter = {}:\n\
         'cert UB' is the Prop 2.6 canonical certificate (≤ r·N);\n\
         '|C| est' is the measured FindGap count.\n",
        human(n as u64)
    );
    let mut table = Table::new(&["example", "N", "cert UB", "|C| est", "Z", "probes", "time"]);
    report(
        &mut table,
        &mut record,
        ("B.1 (|C|=O(1), Z=0)", "b1"),
        &example_b1(n),
        ProbeMode::Chain,
    );
    report(
        &mut table,
        &mut record,
        ("B.2 (|C|=O(1), Z=N)", "b2"),
        &example_b2(n),
        ProbeMode::Chain,
    );
    report(
        &mut table,
        &mut record,
        ("2.1 (Z=2N)", "e21"),
        &example_2_1(n),
        ProbeMode::Chain,
    );
    report(
        &mut table,
        &mut record,
        ("B.6 GAO (A,B)", "b6"),
        &example_b6(n),
        ProbeMode::Chain,
    );
    // B.3 vs B.4: same data, two GAOs. Keep N small — the (A,B,C) order
    // really does quadratic work.
    let nb = (n as f64).sqrt() as i64 + 1;
    let b3 = example_b3(nb);
    report(
        &mut table,
        &mut record,
        ("B.3 GAO (A,B,C)", "b3"),
        &b3,
        ProbeMode::General,
    );
    let (db2, q2) = reindex_for_gao(&b3.db, &b3.query, &[2, 0, 1]).unwrap();
    let b4 = Instance { db: db2, query: q2 };
    report(
        &mut table,
        &mut record,
        ("B.4 GAO (C,A,B)", "b4"),
        &b4,
        ProbeMode::Chain,
    );
    table.print();
    println!(
        "\nPaper's shape: B.1/B.2 finish in O(1) probes regardless of N and Z\n\
         only adds Θ(Z); B.3 vs B.4 shows the GAO changing |C| by ~N^(1/2)\n\
         on this sizing (Θ(N²) vs Θ(N) in the paper's parameterization)."
    );
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
