//! Experiment `thm27` — Theorem 2.7's `Õ(|C| + Z)` guarantee, shown two
//! ways:
//!
//! 1. **Fixed N, varying |C|** — the block-intersection family (input size
//!    constant at 2n values; the certificate shrinks as blocks grow):
//!    Minesweeper's probe count and runtime must track `|C| ≈ n/b`, not N.
//! 2. **Certificate scaling** — the hidden-certificate path family at
//!    fixed m: probes must grow linearly in M (`|C| = Θ(mM)`) while the
//!    input grows quadratically.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin thm27
//! [--n size] [--m atoms] [--json FILE]`. With `--json` the deterministic
//! work counters are written as flat JSON for CI's exact `bench_gate`.

use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_cds::ProbeMode;
use minesweeper_core::{minesweeper_join, set_intersection};
use minesweeper_storage::TrieRelation;
use minesweeper_workloads::appendix_j::hidden_certificate_instance;
use minesweeper_workloads::intersection::blocks;

fn main() {
    let n: i64 = arg_or("--n", 1 << 16);
    let m: usize = arg_or("--m", 4);
    let json = arg_opt("--json");
    let mut record = BenchRecord::new();
    println!(
        "Theorem 2.7: runtime Õ(|C| + Z) for β-acyclic queries under a NEO.\n\
         Part 1 — set intersection with N = {} fixed, block size b sweeping\n\
         (optimal certificate Θ(N/b)):\n",
        human(2 * n as u64)
    );
    let mut t1 = Table::new(&["b", "N", "|C| est", "probes", "time"]);
    let mut b = 4i64;
    while b <= n / 4 {
        let sets = blocks(n, b);
        let refs: Vec<&TrieRelation> = sets.iter().collect();
        let (res, t) = timed(|| set_intersection(&refs));
        assert!(res.tuples.is_empty());
        record.metric(
            format!("thm27_b{b}_findgap"),
            res.stats.certificate_estimate(),
        );
        record.metric(format!("thm27_b{b}_probes"), res.stats.probe_points);
        t1.row(&[
            b.to_string(),
            human(2 * n as u64),
            human(res.stats.certificate_estimate()),
            human(res.stats.probe_points),
            human_time(t),
        ]);
        b *= 8;
    }
    t1.print();
    println!(
        "\nPart 2 — hidden-certificate path (m = {m}), M sweeping\n\
         (|C| = Θ(mM), N = Θ(mM²)): probes must grow ~linearly in M.\n"
    );
    let mut t2 = Table::new(&["M", "N", "|C| est", "probes", "probes/M", "time"]);
    for chunk in [8i64, 16, 32, 64] {
        let inst = hidden_certificate_instance(m, chunk);
        let (res, t) = timed(|| minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap());
        assert!(res.tuples.is_empty());
        record.metric(
            format!("thm27_M{chunk}_findgap"),
            res.stats.certificate_estimate(),
        );
        record.metric(format!("thm27_M{chunk}_probes"), res.stats.probe_points);
        t2.row(&[
            chunk.to_string(),
            human(inst.db.total_tuples() as u64),
            human(res.stats.certificate_estimate()),
            human(res.stats.probe_points),
            format!("{:.1}", res.stats.probe_points as f64 / chunk as f64),
            human_time(t),
        ]);
    }
    t2.print();
    println!(
        "\nPaper's shape: both sweeps show work ∝ |C| while N is fixed (part 1)\n\
         or grows quadratically faster than the work (part 2)."
    );
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
