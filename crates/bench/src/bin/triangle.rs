//! Experiment `triangle` — Theorem 5.4: the dyadic triangle CDS evaluates
//! `Q∆` in `Õ(|C|^{3/2} + Z)` where the generic ConstraintTree needs
//! `Õ(|C|²+Z)`.
//!
//! Two workloads:
//! 1. the **hard instance** (a U-free Prop 5.3 shape: `R = [m]²`,
//!    `S = [m]×{1}`, `T = [m]×{2}`, empty output, `|C| = O(m)`): the
//!    generic CDS pays `Ω(m²)` merges, the dyadic CDS prunes whole
//!    subtrees and stays `Õ(m)`;
//! 2. **random power-law graphs**: triangle listing where both agree on
//!    the output and LFTJ provides the worst-case-optimal baseline.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin triangle
//! [--mmax m] [--edges e] [--json FILE]`. With `--json` the deterministic
//! work counters are also written as flat JSON for CI's exact
//! `bench_gate`.

use minesweeper_baselines::leapfrog_triejoin;
use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_cds::ProbeMode;
use minesweeper_core::{minesweeper_join, triangle_join};
use minesweeper_storage::{builder, Database, Val};
use minesweeper_workloads::graphs::chung_lu;
use minesweeper_workloads::triangle_instance;

fn hard_instance(
    m: Val,
) -> (
    Database,
    minesweeper_storage::RelId,
    minesweeper_storage::RelId,
    minesweeper_storage::RelId,
) {
    let mut db = Database::new();
    let mut r_pairs = Vec::new();
    for a in 1..=m {
        for b in 1..=m {
            r_pairs.push((a, b));
        }
    }
    let r = db.add(builder::binary("R", r_pairs)).unwrap();
    let s = db
        .add(builder::binary("S", (1..=m).map(|b| (b, 1))))
        .unwrap();
    let t = db
        .add(builder::binary("T", (1..=m).map(|a| (a, 2))))
        .unwrap();
    (db, r, s, t)
}

fn main() {
    let mmax: i64 = arg_or("--mmax", 96);
    let edges: usize = arg_or("--edges", 30_000);
    let json = arg_opt("--json");
    let mut record = BenchRecord::new();
    println!(
        "Theorem 5.4, part 1 — hard Q∆ instance (empty output, |C| = O(m)):\n\
         generic CDS work must grow ~m², dyadic CDS ~m.\n"
    );
    let mut t1 = Table::new(&[
        "m",
        "N",
        "generic next",
        "generic time",
        "dyadic next",
        "dyadic time",
    ]);
    let mut m = 12i64;
    while m <= mmax {
        let (db, r, s, t) = hard_instance(m);
        let q = minesweeper_core::triangle::triangle_query(r, s, t);
        let (gen, t_gen) = timed(|| minesweeper_join(&db, &q, ProbeMode::General).unwrap());
        let (tri, t_tri) = timed(|| triangle_join(&db, r, s, t).unwrap());
        assert!(gen.tuples.is_empty() && tri.tuples.is_empty());
        record.metric(
            format!("triangle_hard_m{m}_generic_next"),
            gen.stats.cds_next_calls,
        );
        record.metric(
            format!("triangle_hard_m{m}_dyadic_next"),
            tri.stats.cds_next_calls,
        );
        t1.row(&[
            m.to_string(),
            human(db.total_tuples() as u64),
            human(gen.stats.cds_next_calls),
            human_time(t_gen),
            human(tri.stats.cds_next_calls),
            human_time(t_tri),
        ]);
        m *= 2;
    }
    t1.print();
    println!("\nPart 2 — triangle listing on Chung-Lu graphs ({edges} edges):\n");
    let mut t2 = Table::new(&[
        "nodes",
        "N",
        "Z",
        "dyadic time",
        "generic time",
        "LFTJ time",
    ]);
    for nodes in [1000i64, 4000] {
        let el = chung_lu(nodes, edges, 2.3, 99);
        let (db, r, s, t, q) = triangle_instance(&el);
        let (tri, t_tri) = timed(|| triangle_join(&db, r, s, t).unwrap());
        let (gen, t_gen) = timed(|| minesweeper_join(&db, &q, ProbeMode::General).unwrap());
        let (lf, t_lf) = timed(|| leapfrog_triejoin(&db, &q).unwrap());
        assert_eq!(tri.tuples.len(), lf.tuples.len());
        assert_eq!(gen.tuples.len(), lf.tuples.len());
        record.metric(format!("triangle_list_n{nodes}_z"), tri.tuples.len() as u64);
        record.metric(
            format!("triangle_list_n{nodes}_dyadic_next"),
            tri.stats.cds_next_calls,
        );
        record.metric(format!("triangle_list_n{nodes}_lftj_seeks"), lf.stats.seeks);
        t2.row(&[
            nodes.to_string(),
            human(db.total_tuples() as u64),
            human(tri.tuples.len() as u64),
            human_time(t_tri),
            human_time(t_gen),
            human_time(t_lf),
        ]);
    }
    t2.print();
    println!(
        "\nPaper's shape: part 1 shows the |C|² vs |C|^{{3/2}} separation\n\
         (generic next-calls quadruple per doubling, dyadic ~double)."
    );
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
