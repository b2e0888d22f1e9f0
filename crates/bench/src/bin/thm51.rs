//! Experiment `thm51` — Theorem 5.1: Minesweeper evaluates *any* query
//! whose GAO has elimination width `w` in `Õ(|C|^{w+1} + Z)`, via the
//! shadow-chain `getProbePoint` (Algorithm 6).
//!
//! Workload: the 4-cycle query `E₁(A,B) ⋈ E₂(B,C) ⋈ E₃(C,D) ⋈ E₄(A,D)`
//! (β-cyclic, treewidth 2 — the class where Prop 2.8 rules out
//! `Õ(|C|^{4/3−ε} + Z)` and Theorem 5.1 still guarantees a
//! polynomial-in-|C| bound). Random 4-partite instances of growing size;
//! LFTJ and NPRR provide the worst-case-optimal reference points.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin thm51
//! [--nmax size] [--json FILE]`. With `--json` the deterministic work
//! counters (probe points, CDS next calls, output size, LFTJ seeks — the
//! instances are seeded, so every counter is reproducible) are written
//! as flat JSON for CI's exact `bench_gate`.

use minesweeper_baselines::{generic_join, leapfrog_triejoin};
use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_cds::ProbeMode;
use minesweeper_core::{canonical_certificate_size, minesweeper_join, Query};
use minesweeper_storage::{builder, Database, Val};
use minesweeper_workloads::graphs::erdos_renyi;

fn main() {
    let nmax: i64 = arg_or("--nmax", 512);
    let json = arg_opt("--json");
    let mut record = BenchRecord::new();
    println!(
        "Theorem 5.1: width-2 β-cyclic query (4-cycle) under the general\n\
         shadow-chain getProbePoint; bound Õ(|C|^3 + Z).\n"
    );
    let mut table = Table::new(&[
        "n/side",
        "N",
        "Z",
        "cert UB",
        "MS probes",
        "MS next",
        "MS time",
        "LFTJ time",
        "NPRR time",
    ]);
    let mut n = 64i64;
    while n <= nmax {
        // Random 4-partite edge sets over [0, n) per side.
        let mut db = Database::new();
        let m = (4 * n) as usize;
        let mk = |db: &mut Database, name: &str, seed: u64| {
            let pairs: Vec<(Val, Val)> = erdos_renyi(n, m, seed);
            db.add(builder::binary(name, pairs)).unwrap()
        };
        let e1 = mk(&mut db, "E1", 1);
        let e2 = mk(&mut db, "E2", 2);
        let e3 = mk(&mut db, "E3", 3);
        let e4 = mk(&mut db, "E4", 4);
        let q = Query::new(4)
            .atom(e1, &[0, 1])
            .atom(e2, &[1, 2])
            .atom(e3, &[2, 3])
            .atom(e4, &[0, 3]);
        let cert = canonical_certificate_size(&db, &q).unwrap();
        let (ms, t_ms) = timed(|| minesweeper_join(&db, &q, ProbeMode::General).unwrap());
        let (lf, t_lf) = timed(|| leapfrog_triejoin(&db, &q).unwrap());
        let (np, t_np) = timed(|| generic_join(&db, &q).unwrap());
        assert_eq!(ms.tuples.len(), lf.tuples.len());
        assert_eq!(ms.tuples.len(), np.tuples.len());
        record.metric(format!("thm51_n{n}_z"), ms.stats.outputs);
        record.metric(format!("thm51_n{n}_probes"), ms.stats.probe_points);
        record.metric(format!("thm51_n{n}_next"), ms.stats.cds_next_calls);
        record.metric(format!("thm51_n{n}_lftj_seeks"), lf.stats.seeks);
        table.row(&[
            n.to_string(),
            human(db.total_tuples() as u64),
            human(ms.stats.outputs),
            human(cert),
            human(ms.stats.probe_points),
            human(ms.stats.cds_next_calls),
            human_time(t_ms),
            human_time(t_lf),
            human_time(t_np),
        ]);
        n *= 2;
    }
    table.print();
    println!(
        "\nPaper's shape: Minesweeper completes on β-cyclic inputs with work\n\
         polynomial in |C| (here far below the |C|^3 ceiling); the\n\
         worst-case-optimal algorithms are the stronger choice on dense\n\
         random data — certificate optimality is a *sparse/skewed-data*\n\
         guarantee (Prop 2.8 says no algorithm gets |C|^(4/3−ε) here)."
    );
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
