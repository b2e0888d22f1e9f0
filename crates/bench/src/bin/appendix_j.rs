//! Experiment `appendix_j` — the separation of Appendix J: on the
//! hidden-certificate path instances, Minesweeper runs in `Õ(mM)` while
//! Yannakakis, Leapfrog Triejoin, the NPRR generic join, and the binary
//! hash plan all need `Ω(mM²)` (they cannot skip the full `(M−1)²` grids).
//!
//! The binary also runs a **skewed parallel workload** per chunk size: a
//! path query whose first GAO attribute is one giant duplicate run, so
//! the sharded executor must engage its nested second-attribute split.
//! Its effective shard count and aggregate work counters are emitted as
//! `appendixj_skew_*` metrics — scheduling-independent (per-shard probe
//! loops are deterministic and the counters are their sum), so CI's
//! `bench_gate` can guard the nested-sharding path.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin appendix_j
//! [--m atoms] [--mmax chunk] [--json FILE]`. With `--json` the
//! deterministic work counters are also written as flat JSON for CI's
//! exact `bench_gate`.

use std::sync::Arc;

use minesweeper_baselines::{
    generic_join, hash_join_plan, index_nested_loop, leapfrog_triejoin, yannakakis,
};
use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_cds::ProbeMode;
use minesweeper_core::{minesweeper_join, plan, Query, Run};
use minesweeper_storage::{builder, Database};
use minesweeper_workloads::appendix_j::hidden_certificate_instance;

/// Workers for the skewed parallel runs — fixed so the shard split (and
/// hence the gated counters) is machine-independent.
const SKEW_THREADS: usize = 4;

/// A path instance `R(a,b) ⋈ S(b,c)` with every S tuple sharing one
/// attribute-2 value: under the planner's nested elimination order
/// `[2,1,0]` that value is a giant duplicate run on the first execution
/// attribute.
fn skewed_instance(n: i64) -> (Database, Query) {
    let mut db = Database::new();
    let r = db
        .add(builder::binary("R", (0..n).map(|i| ((i * 7) % n, i))))
        .unwrap();
    let s = db
        .add(builder::binary("S", (0..n).map(|i| (i, n + 1))))
        .unwrap();
    let q = Query::new(3).atom(r, &[0, 1]).atom(s, &[1, 2]);
    (db, q)
}

fn main() {
    let m: usize = arg_or("--m", 4);
    let mmax: i64 = arg_or("--mmax", 64);
    let json = arg_opt("--json");
    let mut record = BenchRecord::new();
    println!(
        "Appendix J separation: path query with {m} relations, chunk width M\n\
         sweeping M (input N = Θ(m·M²) per relation, |C| = Θ(m·M), Z = 0).\n"
    );
    let mut table = Table::new(&[
        "M",
        "N",
        "MS probes",
        "MS time",
        "Yann time",
        "LFTJ time",
        "LFTJ seeks",
        "NPRR time",
        "Hash time",
        "INLJ time",
    ]);
    let mut chunk = 8i64;
    while chunk <= mmax {
        let inst = hidden_certificate_instance(m, chunk);
        let n = inst.db.total_tuples() as u64;
        let (ms, t_ms) =
            timed(|| minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap());
        assert!(ms.tuples.is_empty());
        let (ya, t_ya) = timed(|| yannakakis(&inst.db, &inst.query).unwrap());
        assert!(ya.tuples.is_empty());
        let (lf, t_lf) = timed(|| leapfrog_triejoin(&inst.db, &inst.query).unwrap());
        assert!(lf.tuples.is_empty());
        let (np, t_np) = timed(|| generic_join(&inst.db, &inst.query).unwrap());
        assert!(np.tuples.is_empty());
        let (hj, t_hj) = timed(|| hash_join_plan(&inst.db, &inst.query).unwrap());
        assert!(hj.tuples.is_empty());
        let (il, t_il) = timed(|| index_nested_loop(&inst.db, &inst.query).unwrap());
        assert!(il.tuples.is_empty());
        record.metric(
            format!("appendixj_m{chunk}_ms_probes"),
            ms.stats.probe_points,
        );
        record.metric(
            format!("appendixj_m{chunk}_ms_findgap"),
            ms.stats.find_gap_calls,
        );
        record.metric(format!("appendixj_m{chunk}_lftj_seeks"), lf.stats.seeks);
        table.row(&[
            chunk.to_string(),
            human(n),
            human(ms.stats.probe_points),
            human_time(t_ms),
            human_time(t_ya),
            human_time(t_lf),
            human(lf.stats.seeks),
            human_time(t_np),
            human_time(t_hj),
            human_time(t_il),
        ]);
        chunk *= 2;
    }
    table.print();
    println!(
        "\nPaper's shape: doubling M doubles Minesweeper's work (probes ∝ mM)\n\
         but quadruples every baseline's (they touch the Θ(M²) grids)."
    );

    println!(
        "\nSkewed parallel workload: one dominant first-GAO-attribute value,\n\
         {SKEW_THREADS} workers — the nested second-attribute split must engage.\n"
    );
    let mut skew_table = Table::new(&["M", "N", "shards", "nested", "Z", "probes", "par time"]);
    let mut chunk = 8i64;
    while chunk <= mmax {
        let n = chunk * 16;
        let (db, q) = skewed_instance(n);
        let db = Arc::new(db);
        let p = plan(&db, &q).expect("skewed instance plans");
        let serial = p.execute(&db).expect("serial run");
        let run = Run {
            threads: Some(SKEW_THREADS),
            ..Run::default()
        };
        let (par, t_par) = timed(|| {
            let bound = p.prepare_exec(&db).expect("skewed instance binds");
            bound.execute(&db, &run)
        });
        let shards = par.shards.as_deref().expect("a worker count was given");
        assert_eq!(
            par.result.tuples, serial.result.tuples,
            "skewed parallel output must stay byte-identical"
        );
        let nested = shards.iter().filter(|s| s.spec.is_nested()).count();
        assert!(
            shards.len() > 1 && nested > 0,
            "nested split must engage on the duplicate run"
        );
        record.metric(
            format!("appendixj_skew_M{chunk}_shards"),
            shards.len() as u64,
        );
        record.metric(
            format!("appendixj_skew_M{chunk}_probes"),
            par.result.stats.probe_points,
        );
        record.metric(
            format!("appendixj_skew_M{chunk}_findgap"),
            par.result.stats.find_gap_calls,
        );
        skew_table.row(&[
            chunk.to_string(),
            human(db.total_tuples() as u64),
            shards.len().to_string(),
            nested.to_string(),
            human(par.result.stats.outputs),
            human(par.result.stats.probe_points),
            human_time(t_par),
        ]);
        chunk *= 2;
    }
    skew_table.print();
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
