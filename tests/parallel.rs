//! Serial vs. sharded-parallel equivalence, property-tested.
//!
//! The sharded executor's contract is exact: for every query and every
//! worker count `K`, [`minesweeper_core::PreparedExec::execute`] with
//! `threads: Some(K)` returns byte-identical tuples to the serial
//! [`minesweeper_core::Plan::execute`],
//! and the aggregate statistics are precisely the sum of the per-shard
//! counters (with `outputs` matching the materialized tuple count). The
//! properties draw random tree-shaped queries from
//! [`minesweeper_workloads::random_queries`] and sweep `K` across the
//! interesting regimes: serial (`K = 1`), genuinely parallel, and
//! `K` far beyond the distinct-value count of the primary relation.
//!
//! Two further properties pin the PR 4 additions: a >90%-skewed first
//! GAO attribute must still produce more than one effective shard (the
//! nested second-attribute split), and a parallel stream consumed for
//! one tuple must cancel the remaining shard work (asserted through the
//! deterministic work counters, not wall-clock).
//!
//! The global-order merge (ISSUE 5) adds the exact-prefix contract:
//! parallel `--limit k` output must be **byte-identical to the serial
//! sorted prefix** — the serial stream's first `k` tuples — under random
//! re-indexed GAOs and random shard/thread counts, and cancelling the
//! merge after `k` must skip most of the suffix's probe work.

use std::sync::Arc;

use minesweeper_join::core::{plan, Execution, Plan, Query, Run, ShardStats, MAX_TASKS_PER_THREAD};
use minesweeper_join::storage::{builder, Database, ExecStats, Tuple};
use minesweeper_workloads::random_queries::{random_tree_instance, TreeQueryConfig};
use proptest::prelude::*;

/// A run on up to `threads` workers, optionally capped.
fn par_run(threads: usize, limit: Option<usize>) -> Run<'static> {
    Run {
        threads: Some(threads),
        limit,
        ..Run::default()
    }
}

/// Drains `p` on up to `threads` workers, optionally capped.
fn sharded(p: &Plan, db: &Arc<Database>, threads: usize, limit: Option<usize>) -> Execution {
    p.prepare_exec(db)
        .expect("prepare")
        .execute(db, &par_run(threads, limit))
}

/// The per-shard accounting of a run that asked for a worker count.
fn shards(e: &Execution) -> &[ShardStats] {
    e.shards.as_deref().expect("a worker count was given")
}

/// Runs both engines and checks output equality + stats-sum consistency.
fn check_equivalence(cfg: TreeQueryConfig, seed: u64, threads: usize) -> Result<(), TestCaseError> {
    let inst = random_tree_instance(cfg, seed);
    let db = Arc::new(inst.db);
    let p = plan(&db, &inst.query).expect("generated queries are valid");
    let serial = p.execute(&db).expect("serial run");
    let par = sharded(&p, &db, threads, None);
    prop_assert_eq!(
        &par.result.tuples,
        &serial.result.tuples,
        "seed {} threads {}: sharded output must be byte-identical",
        seed,
        threads
    );
    prop_assert_eq!(&par.gao, &serial.gao);
    prop_assert!(
        shards(&par).len() <= threads.max(1) * MAX_TASKS_PER_THREAD,
        "task count bounded: {} tasks for {} workers",
        shards(&par).len(),
        threads
    );
    let mut sum = ExecStats::new();
    for s in shards(&par) {
        prop_assert!(s.completed, "an unlimited run exhausts every shard");
        sum.merge(&s.stats);
    }
    prop_assert_eq!(
        sum,
        par.result.stats,
        "aggregate stats must be the exact sum of per-shard stats"
    );
    prop_assert_eq!(par.result.stats.outputs as usize, par.result.tuples.len());
    // Shard specs must tile the output space in lexicographic order:
    // plain shards are contiguous on the first attribute; nested shards
    // share one first interval and are contiguous on the second.
    for w in shards(&par).windows(2) {
        let (a, b) = (w[0].spec, w[1].spec);
        if a.bounds == b.bounds {
            let s1 = a.second.expect("grouped shards are nested");
            let s2 = b.second.expect("grouped shards are nested");
            prop_assert_eq!(s1.hi + 1, s2.lo, "nested slices contiguous");
        } else {
            prop_assert_eq!(a.bounds.hi + 1, b.bounds.lo, "no domain holes");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_equals_serial_on_random_tree_queries(
        seed in 0u64..1_000_000,
        n_attrs in 3usize..6,
        threads in 1usize..9,
    ) {
        let cfg = TreeQueryConfig { n_attrs, ..TreeQueryConfig::default() };
        check_equivalence(cfg, seed, threads)?;
    }

    #[test]
    fn sharded_equals_serial_when_k_exceeds_distinct_values(
        seed in 0u64..1_000_000,
        threads in 32usize..129,
    ) {
        // Domain of 5 values ⇒ the primary relation has at most 5 distinct
        // first values, far below the requested worker count: the split
        // must cap, not pad with empty shards.
        let cfg = TreeQueryConfig {
            n_attrs: 3,
            domain: 5,
            ..TreeQueryConfig::default()
        };
        check_equivalence(cfg, seed, threads)?;
    }

    #[test]
    fn sharded_equals_serial_at_k_one(seed in 0u64..1_000_000) {
        // K = 1 is the serial fallback: one unbounded shard whose stats
        // are the aggregate.
        let cfg = TreeQueryConfig { n_attrs: 4, ..TreeQueryConfig::default() };
        check_equivalence(cfg, seed, 1)?;
    }

    #[test]
    fn sharded_handles_sparse_skewed_instances(
        seed in 0u64..1_000_000,
        threads in 2usize..7,
    ) {
        // Tiny relations over a wide domain: many shards see no output at
        // all, boundary shards are unbalanced, empties are common.
        let cfg = TreeQueryConfig {
            n_attrs: 4,
            tuples_per_edge: 6,
            domain: 100,
            unary_prob: 0.8,
            unary_selectivity: 0.2,
        };
        check_equivalence(cfg, seed, threads)?;
    }
}

/// A path instance `R(a,b) ⋈ S(b,c)` whose planner GAO is `[2,1,0]`
/// (data-blind nested elimination order), with `heavy_share` of S's
/// attribute-2 tuples concentrated on one value — i.e. a duplicate run on
/// the first *execution* attribute.
fn skewed_instance(n: i64, light: i64) -> (Arc<Database>, Query) {
    let mut db = Database::new();
    let r = db
        .add(builder::binary("R", (0..n).map(|i| ((i * 7) % n, i))))
        .unwrap();
    // `light` tuples spread over distinct attribute-2 values; the rest
    // share the single value `n + 1`.
    let s = db
        .add(builder::binary(
            "S",
            (0..n).map(|i| (i, if i < light { i } else { n + 1 })),
        ))
        .unwrap();
    let q = Query::new(3).atom(r, &[0, 1]).atom(s, &[1, 2]);
    (Arc::new(db), q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Acceptance (ISSUE 4): when one first-GAO-attribute value holds
    /// >90% of the primary's tuples, the run must still execute in more
    /// than one effective shard — the nested split engages instead of the
    /// PR 2 serial fallback — with byte-identical output.
    #[test]
    fn dominant_first_value_still_shards(
        n in 60i64..200,
        light_frac in 0usize..10,   // ≤ 9% of tuples off the heavy value
        threads in 2usize..6,
    ) {
        let light = (n as usize * light_frac / 100) as i64;
        let (db, q) = skewed_instance(n, light);
        let p = plan(&db, &q).expect("valid query");
        let serial = p.execute(&db).expect("serial run");
        let par = sharded(&p, &db, threads, None);
        prop_assert_eq!(&par.result.tuples, &serial.result.tuples);
        prop_assert!(
            shards(&par).len() > 1,
            "n={} light={} threads={}: >90% skew must still shard, got {:?}",
            n,
            light,
            threads,
            shards(&par).iter().map(|s| s.spec).collect::<Vec<_>>()
        );
        prop_assert!(
            shards(&par).iter().any(|s| s.spec.is_nested()),
            "the dominant run must be split on the second attribute"
        );
        let mut sum = ExecStats::new();
        for s in shards(&par) {
            sum.merge(&s.stats);
        }
        prop_assert_eq!(sum, par.result.stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance (ISSUE 5): parallel `--limit k` is byte-identical to
    /// the serial sorted prefix under random tree queries (re-indexed
    /// GAOs included — the generator's path shapes routinely force a
    /// non-identity order) and random thread counts. Checked at both
    /// API levels: the incremental stream must reproduce the serial
    /// stream's exact *sequence*, and the limited `execute` must return
    /// the serial prefix sorted in the original numbering.
    #[test]
    fn parallel_limit_is_the_exact_serial_prefix(
        seed in 0u64..1_000_000,
        n_attrs in 3usize..6,
        threads in 1usize..9,
        k in 1usize..30,
    ) {
        let cfg = TreeQueryConfig { n_attrs, ..TreeQueryConfig::default() };
        let inst = random_tree_instance(cfg, seed);
        let db = Arc::new(inst.db);
        let p = plan(&db, &inst.query).expect("generated queries are valid");
        let prepared = p.prepare_exec(&db).expect("prepare");
        let serial: Vec<Tuple> = prepared.open(&db, &Run::default()).take(k).collect();
        let limited = sharded(&p, &db, threads, Some(k));
        let par: Vec<Tuple> = prepared.open(&db, &par_run(threads, Some(k))).collect();
        prop_assert_eq!(
            &par,
            &serial,
            "seed {} threads {} k {}: parallel stream must be the serial sequence",
            seed,
            threads,
            k
        );
        let mut sorted_prefix = serial;
        sorted_prefix.sort_unstable();
        prop_assert_eq!(
            &limited.result.tuples,
            &sorted_prefix,
            "seed {} threads {} k {}: the limited execute must be the serial sorted prefix",
            seed,
            threads,
            k
        );
    }
}

/// Acceptance (ISSUE 5): `msj --threads N --limit k` semantics on a
/// workload whose plan re-indexes — the parallel stream prefix must be
/// byte-identical (content *and* order) to the serial stream's, for every
/// tested thread count and k, including k beyond Z.
#[test]
fn reindexed_limit_prefix_matches_serial_byte_for_byte() {
    let (db, q) = skewed_instance(120, 120);
    let p = plan(&db, &q).unwrap();
    assert!(p.is_reindexed(), "precondition: non-identity GAO");
    let prepared = p.prepare_exec(&db).unwrap();
    let full: Vec<Tuple> = prepared.open(&db, &Run::default()).collect();
    assert!(full.len() > 16, "needs a non-trivial output");
    for threads in [2, 4, 8] {
        for k in [1, 2, 7, full.len() - 1, full.len(), full.len() + 5] {
            let serial: Vec<Tuple> = full.iter().take(k).cloned().collect();
            let par: Vec<Tuple> = prepared.open(&db, &par_run(threads, Some(k))).collect();
            assert_eq!(par, serial, "threads={threads} k={k}");
        }
    }
}

/// Acceptance (ISSUE 5): cancelling the merge after `k` tuples skips most
/// of the suffix's probe work on a re-indexed plan — the work counters,
/// not wall-clock, prove the heap's cancellation fires.
#[test]
fn merge_cancellation_after_k_skips_probe_work_on_reindexed_plan() {
    let (db, q) = skewed_instance(4000, 4000);
    let p = plan(&db, &q).unwrap();
    assert!(p.is_reindexed());
    let full = sharded(&p, &db, 4, None);
    assert!(full.result.tuples.len() > 1000);
    let limited = sharded(&p, &db, 4, Some(3));
    assert!(limited.truncated);
    assert!(
        limited.result.stats.probe_points * 2 < full.result.stats.probe_points,
        "merge cancellation must skip most probe work: {} vs {}",
        limited.result.stats.probe_points,
        full.result.stats.probe_points
    );
    assert!(
        shards(&limited).iter().any(|s| !s.completed),
        "capped or cancelled shards must be flagged"
    );
}

/// Acceptance (ISSUE 4): a parallel stream consumed for one tuple and
/// finished must stop all workers early — the total probe work stays far
/// below a full parallel run's, proving shards were cancelled rather
/// than materialized.
#[test]
fn limit_one_parallel_stream_cancels_all_workers() {
    let mut db = Database::new();
    let r = db.add(builder::unary("R", 0..20_000)).unwrap();
    let s = db.add(builder::unary("S", 0..20_000)).unwrap();
    let q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
    let p = plan(&db, &q).unwrap();
    let db = Arc::new(db);
    let full = sharded(&p, &db, 4, None);
    assert_eq!(full.result.tuples.len(), 20_000);

    // Stream with a per-shard limit of 1, take one tuple, finish.
    let prepared = p.prepare_exec(&db).unwrap();
    let mut stream = prepared.open(&db, &par_run(4, Some(1)));
    assert_eq!(stream.next(), Some(vec![0]));
    let report = stream.finish();
    let report_shards = report.shards.expect("a worker count was given");
    assert!(
        report.stats.probe_points * 4 < full.result.stats.probe_points,
        "limit-1 stream must skip almost all probe work: {} vs {}",
        report.stats.probe_points,
        full.result.stats.probe_points
    );
    assert!(
        report.stats.outputs < 64,
        "no shard materialized beyond its cap: {} outputs",
        report.stats.outputs
    );
    assert!(
        report_shards.iter().any(|s| !s.completed),
        "capped or cancelled shards must be flagged"
    );
    // The report covers every planned shard task, cancelled ones with
    // zero counters, and the sum still reconciles.
    let mut sum = ExecStats::new();
    for s in &report_shards {
        sum.merge(&s.stats);
    }
    assert_eq!(sum, report.stats);
}

/// The same cancellation through the engine front door: a `--threads`
/// plus `--limit` statement stream stops after its rows without running
/// the remaining shards.
#[test]
fn engine_parallel_stream_with_limit_terminates_early() {
    use minesweeper_join::engine::{Engine, ExecOptions};
    let mut e = Engine::new();
    e.load_tsv(
        "R",
        &(0..20_000).map(|i| format!("{i}\n")).collect::<String>(),
    )
    .unwrap();
    e.load_tsv(
        "S",
        &(0..20_000).map(|i| format!("{i}\n")).collect::<String>(),
    )
    .unwrap();
    let stmt = e.prepare("R(x), S(x)").unwrap();
    let full_stats = stmt
        .execute(&ExecOptions::default().with_threads(4).with_stats())
        .unwrap()
        .stats
        .unwrap();
    let stream = stmt
        .stream(&ExecOptions::default().with_threads(4).with_limit(1))
        .unwrap();
    let rows: Vec<_> = stream.collect();
    assert_eq!(rows.len(), 1, "limit enforced");
    // A fresh stream, finished after one row, exposes the counters.
    let mut stream = stmt
        .stream(&ExecOptions::default().with_threads(4).with_limit(1))
        .unwrap();
    assert!(stream.next().is_some());
    let (stats, shards) = stream.finish();
    assert!(
        stats.probe_points * 4 < full_stats.probe_points,
        "parallel stream limit must cancel shard work: {} vs {}",
        stats.probe_points,
        full_stats.probe_points
    );
    let shards = shards.expect("parallel path reports shards");
    assert!(shards.iter().any(|s| !s.completed));
}
