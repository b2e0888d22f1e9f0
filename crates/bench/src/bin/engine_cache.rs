//! Experiment `engine_cache` — what the `Engine` front door amortizes.
//!
//! The certificate bound `Õ(|C| + Z)` prices the *probe loop*, assuming
//! ordered indexes consistent with the GAO already exist. A service that
//! re-plans and physically re-indexes per call pays that setup cost every
//! time. This harness runs Example B.3's parity instance — written order
//! not a NEO (so the planner must re-index), empty output, certificate
//! `O(n)` against input `Θ(n²)` — in two regimes:
//!
//! 1. **re-plan per call** — `plan()` + `execute()` each repetition, the
//!    pre-Engine API shape: every call rebuilds the re-indexed relations;
//! 2. **prepared** — one `Engine::prepare_query` (plan + re-index, both
//!    cached), then `execute` repetitions that go straight to the probe
//!    loop.
//!
//! Both regimes produce identical output and identical *probe* work; the
//! separation is pure setup overhead, and it grows with the input while
//! the probe work tracks the certificate. A second `prepare_query` is
//! also asserted to hit the statement cache with the same plan identity.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin engine_cache
//! [--n size] [--reps k] [--json FILE]`.

use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_core::{plan, Query};
use minesweeper_join::engine::{Engine, ExecOptions};
use minesweeper_storage::{Database, RelationBuilder, Val};

/// Example B.3's parity instance: `R(A,C)` holds even `C`s, `S(B,C)` odd
/// `C`s, so `R(A,C) ⋈ S(B,C)` is empty with a certificate of `O(n)`
/// comparisons under the (C,A,B) nested elimination order — but the
/// written (A,B,C) order is not a NEO, so every un-cached execution must
/// physically re-index all `2n²` tuples first. Setup cost `Θ(n²)`, probe
/// cost `Õ(n)`: exactly the gap the prepared-statement cache closes.
fn parity_instance(n: Val) -> (Database, Query) {
    let mut db = Database::new();
    let mut rb = RelationBuilder::new("R", 2);
    let mut sb = RelationBuilder::new("S", 2);
    for a in 1..=n {
        for k in 1..=n {
            rb.push(&[a, 2 * k]);
            sb.push(&[a, 2 * k - 1]);
        }
    }
    let r = db.add(rb.build().unwrap()).unwrap();
    let s = db.add(sb.build().unwrap()).unwrap();
    let q = Query::new(3).atom(r, &[0, 2]).atom(s, &[1, 2]);
    (db, q)
}

fn main() {
    let n: Val = arg_or("--n", 64);
    let reps: usize = arg_or("--reps", 20);
    let json = arg_opt("--json");
    let mut record = BenchRecord::new();
    println!(
        "Engine amortization: B.3-shaped query (re-index required, empty\n\
         output, certificate O(n)) at n = {n}, {reps} executions per regime.\n"
    );
    let (db, q) = parity_instance(n);
    let p = plan(&db, &q).unwrap();
    assert!(p.is_reindexed(), "instance must force a re-index");

    // Regime 1: re-plan + re-index on every call.
    let (replan_rows, t_replan) = timed(|| {
        let mut last = 0usize;
        for _ in 0..reps {
            last = plan(&db, &q)
                .unwrap()
                .execute(&db)
                .unwrap()
                .result
                .tuples
                .len();
        }
        last
    });

    // Regime 2: prepare once, probe loop only afterwards.
    let engine = Engine::from_database(db);
    let opts = ExecOptions::default().with_stats();
    let ((prepared_rows, probes_per_exec), t_prepared) = timed(|| {
        let stmt = engine.prepare_query(&q).unwrap();
        assert!(!stmt.cache_hit(), "first prepare builds the entry");
        let mut last = 0usize;
        let mut probes = 0u64;
        for _ in 0..reps {
            let res = stmt.execute(&opts).unwrap();
            last = res.rows.len();
            probes = res.stats.expect("stats requested").probe_points;
        }
        (last, probes)
    });
    assert_eq!(replan_rows, prepared_rows, "identical output either way");

    // A repeat prepare must hit the cache with the same plan identity.
    let first_id = {
        let stmt = engine.prepare_query(&q).unwrap();
        assert!(stmt.cache_hit(), "second prepare is a cache hit");
        stmt.plan_id()
    };
    let again = engine.prepare_query(&q).unwrap();
    assert_eq!(again.plan_id(), first_id, "plan identity is stable");

    record.metric("engine_cache_z", prepared_rows as u64);
    record.metric("engine_cache_probes_per_exec", probes_per_exec);

    let mut table = Table::new(&["regime", "execs", "Z", "probes/exec", "total time"]);
    table.row(&[
        "re-plan per call".into(),
        reps.to_string(),
        human(prepared_rows as u64),
        human(probes_per_exec),
        human_time(t_replan),
    ]);
    table.row(&[
        "prepared (cached)".into(),
        reps.to_string(),
        human(prepared_rows as u64),
        human(probes_per_exec),
        human_time(t_prepared),
    ]);
    table.print();
    println!(
        "\nExpected shape: identical probe work, but the re-plan regime pays a\n\
         full physical re-index per execution — the prepared regime amortizes\n\
         it across all {reps} runs ({}x here).",
        (t_replan.as_secs_f64() / t_prepared.as_secs_f64().max(1e-9)).round()
    );
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
