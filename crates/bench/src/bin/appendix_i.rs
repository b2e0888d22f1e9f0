//! Experiment `appendix_i` — Theorem I.4: the bow-tie specialization
//! (Algorithm 9) runs in `O((|C| + Z) log N)`. The hidden-certificate
//! instance of Appendix I.3 is the stress test: its `O(1)` certificate is
//! invisible to the "lexicographic neighbour" strategy, and Yannakakis
//! must still scan `S` end to end.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin appendix_i
//! [--nmax size] [--json FILE]`. With `--json` the deterministic work
//! counters (bow-tie and generic-Minesweeper probe points, `FindGap`
//! calls — the I.3 instances are fully deterministic) are written as
//! flat JSON for CI's exact `bench_gate`.

use minesweeper_baselines::yannakakis;
use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_cds::ProbeMode;
use minesweeper_core::{bowtie_join, minesweeper_join};
use minesweeper_workloads::examples::example_i3;

fn main() {
    let nmax: i64 = arg_or("--nmax", 1 << 18);
    let json = arg_opt("--json");
    let mut record = BenchRecord::new();
    println!(
        "Appendix I: bow-tie R(X) ⋈ S(X,Y) ⋈ T(Y) on the I.3 instance\n\
         (|C| = O(1), Z = 0, N sweeping):\n"
    );
    let mut table = Table::new(&[
        "N",
        "bowtie probes",
        "bowtie time",
        "generic MS time",
        "Yannakakis time",
    ]);
    let mut n = 1i64 << 12;
    while n <= nmax {
        let inst = example_i3(n);
        let r = inst.db.relation_by_name("R").unwrap();
        let s = inst.db.relation_by_name("S").unwrap();
        let t = inst.db.relation_by_name("T").unwrap();
        let (bt, t_bt) = timed(|| bowtie_join(r, s, t));
        assert!(bt.tuples.is_empty());
        let (ms, t_ms) =
            timed(|| minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap());
        assert!(ms.tuples.is_empty());
        let (ya, t_ya) = timed(|| yannakakis(&inst.db, &inst.query).unwrap());
        assert!(ya.tuples.is_empty());
        record.metric(format!("apxi_n{n}_bowtie_probes"), bt.stats.probe_points);
        record.metric(format!("apxi_n{n}_ms_probes"), ms.stats.probe_points);
        record.metric(format!("apxi_n{n}_ms_findgap"), ms.stats.find_gap_calls);
        table.row(&[
            human(inst.db.total_tuples() as u64),
            bt.stats.probe_points.to_string(),
            human_time(t_bt),
            human_time(t_ms),
            human_time(t_ya),
        ]);
        n *= 4;
    }
    table.print();
    println!(
        "\nPaper's shape: bow-tie probes stay constant as N grows 64x;\n\
         Yannakakis' runtime grows linearly with N."
    );
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
