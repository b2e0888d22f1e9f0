//! Integration tests of the plan/execute split and the streaming executor:
//! plans are built without execution, streams terminate early with
//! measurably less probe work, and mid-stream statistics are live.

use std::sync::Arc;

use minesweeper_join::core::{execute, naive_join, plan, Query, Run};
use minesweeper_join::storage::{builder, Database, Tuple, Val};

/// Example B.2's shape scaled up: `R = [N]`, `S = {(N, 10i)}` — certificate
/// `O(1)` but `Z = N`, the worst case for a materialize-then-truncate
/// `LIMIT k`.
fn z_much_bigger_than_k(n: Val) -> (Arc<Database>, Query) {
    let mut db = Database::new();
    let r = db.add(builder::unary("R", 1..=n)).unwrap();
    let s = db
        .add(builder::binary("S", (1..=n).map(|i| (n, 10 * i))))
        .unwrap();
    let q = Query::new(2).atom(r, &[0]).atom(s, &[0, 1]);
    (Arc::new(db), q)
}

/// The acceptance test for the streaming executor:
/// `plan → stream → take(k)` must do strictly less probe work (fewer
/// `probe_points` *and* fewer `find_gap_calls`) than a full `execute()`
/// when `Z ≫ k`.
#[test]
fn stream_take_k_does_strictly_less_work_than_execute() {
    let n: Val = 2000;
    let k = 5usize;
    let (db, q) = z_much_bigger_than_k(n);

    let p = plan(&db, &q).unwrap();
    let exec = p.prepare_exec(&db).unwrap();
    let mut stream = exec.open(&db, &Run::default());
    let first_k: Vec<Tuple> = stream.by_ref().take(k).collect();
    assert_eq!(first_k.len(), k);
    let early = stream.stats();

    let full = execute(&db, &q).unwrap();
    assert_eq!(full.result.tuples.len(), n as usize, "Z = N");
    let total = full.result.stats;

    assert!(
        early.probe_points < total.probe_points,
        "take({k}) probed {} points, full run {}",
        early.probe_points,
        total.probe_points
    );
    assert!(
        early.find_gap_calls < total.find_gap_calls,
        "take({k}) made {} FindGap calls, full run {}",
        early.find_gap_calls,
        total.find_gap_calls
    );
    // Not just less — *asymptotically* less: the skipped suffix is ~N
    // tuples, so the early stop must be two orders of magnitude cheaper
    // here.
    assert!(
        early.probe_points * 100 < total.probe_points,
        "early {} vs total {}",
        early.probe_points,
        total.probe_points
    );
}

#[test]
fn plan_is_reusable_and_deterministic() {
    let (db, q) = z_much_bigger_than_k(50);
    let p = plan(&db, &q).unwrap();
    // Stream twice and execute twice off one plan; all runs agree.
    let exec = p.prepare_exec(&db).unwrap();
    let s1: Vec<Tuple> = exec.open(&db, &Run::default()).collect();
    let s2: Vec<Tuple> = exec.open(&db, &Run::default()).collect();
    assert_eq!(s1, s2);
    let e1 = p.execute(&db).unwrap().result.tuples;
    let e2 = p.execute(&db).unwrap().result.tuples;
    assert_eq!(e1, e2);
    let mut sorted = s1;
    sorted.sort();
    assert_eq!(sorted, e1);
}

#[test]
fn stream_matches_naive_on_reindexed_plans() {
    // Example B.7's query forces a non-identity NEO, so the stream has to
    // translate tuples back to the original numbering on the fly.
    let mut db = Database::new();
    let mut rb = minesweeper_join::storage::RelationBuilder::new("R", 3);
    for a in 1..=5 {
        for b in 1..=5 {
            rb.push(&[a, b, (a * b) % 4 + 1]);
        }
    }
    let r = db.add(rb.build().unwrap()).unwrap();
    let s = db
        .add(builder::binary("S", (1..=5).flat_map(|a| [(a, 1), (a, 3)])))
        .unwrap();
    let t = db
        .add(builder::binary("T", (1..=5).flat_map(|b| [(b, 1), (b, 3)])))
        .unwrap();
    let q = Query::new(3)
        .atom(r, &[0, 1, 2])
        .atom(s, &[0, 2])
        .atom(t, &[1, 2]);
    let db = Arc::new(db);
    let p = plan(&db, &q).unwrap();
    assert!(p.is_reindexed());
    let exec = p.prepare_exec(&db).unwrap();
    let mut got: Vec<Tuple> = exec.open(&db, &Run::default()).collect();
    got.sort();
    assert_eq!(got, naive_join(&db, &q).unwrap());
}

#[test]
fn mid_stream_stats_are_monotone_and_final() {
    let (db, q) = z_much_bigger_than_k(200);
    let p = plan(&db, &q).unwrap();
    let exec = p.prepare_exec(&db).unwrap();
    let mut stream = exec.open(&db, &Run::default());
    let mut last_probe_points = 0;
    let mut yielded = 0u64;
    while let Some(_t) = stream.next() {
        yielded += 1;
        let s = stream.stats();
        assert_eq!(s.outputs, yielded, "outputs counts yielded tuples");
        assert!(
            s.probe_points >= last_probe_points,
            "counters never move backwards"
        );
        last_probe_points = s.probe_points;
        if yielded == 10 {
            break;
        }
    }
    // Draining the rest still works after a pause-and-inspect.
    let rest: Vec<Tuple> = stream.by_ref().collect();
    assert_eq!(yielded as usize + rest.len(), 200);
    assert_eq!(stream.next(), None, "exhausted, and fused");
}

#[test]
fn exhausted_stream_stats_match_batch_execute() {
    let (db, q) = z_much_bigger_than_k(100);
    let p = plan(&db, &q).unwrap();
    let exec = p.prepare_exec(&db).unwrap();
    let mut stream = exec.open(&db, &Run::default());
    let streamed: Vec<Tuple> = stream.by_ref().collect();
    let batch = p.execute(&db).unwrap();
    assert_eq!(streamed.len(), batch.result.tuples.len());
    // Same plan, same loop: the drained stream's counters equal the batch
    // run's.
    assert_eq!(stream.stats(), batch.result.stats);
}

#[test]
fn plan_borrows_nothing_and_outlives_databases() {
    // A Plan owns its mapping: it can be built, the planning inputs can go
    // away, and it still executes against any compatible database.
    let q;
    let p;
    {
        let mut db = Database::new();
        let r = db.add(builder::unary("R", [1, 2, 3])).unwrap();
        let s = db.add(builder::unary("S", [2, 3, 4])).unwrap();
        q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
        p = plan(&db, &q).unwrap();
        // db dropped here.
    }
    let mut db2 = Database::new();
    db2.add(builder::unary("R", [10, 20])).unwrap();
    db2.add(builder::unary("S", [20, 30])).unwrap();
    let db2 = Arc::new(db2);
    let exec = p.prepare_exec(&db2).unwrap();
    let got: Vec<Tuple> = exec.open(&db2, &Run::default()).collect();
    assert_eq!(got, vec![vec![20]]);
}
