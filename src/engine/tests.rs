//! Unit tests of the engine front door, end to end through its seams
//! (kept in one module so the test names stay `engine::tests::*`).

use super::*;
use minesweeper_core::ExplainCache;
use minesweeper_storage::Value;

fn flights_engine() -> Engine {
    let mut e = Engine::new();
    e.add_relation(
        "F",
        &[ColumnType::Str, ColumnType::Str],
        [
            vec![Value::from("jfk"), Value::from("lhr")],
            vec![Value::from("lhr"), Value::from("nrt")],
            vec![Value::from("sfo"), Value::from("jfk")],
            vec![Value::from("jfk"), Value::from("nrt")],
        ],
    )
    .unwrap();
    e
}

#[test]
fn string_join_round_trips() {
    let e = flights_engine();
    let stmt = e.prepare("F(a, b), F(b, c)").unwrap();
    assert!(!stmt.cache_hit());
    let res = stmt.execute(&ExecOptions::default()).unwrap();
    assert_eq!(res.columns, vec!["a", "b", "c"]);
    let rows: Vec<Vec<&str>> = res
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.as_str().unwrap()).collect())
        .collect();
    assert!(rows.contains(&vec!["jfk", "lhr", "nrt"]));
    assert!(rows.contains(&vec!["sfo", "jfk", "lhr"]));
    assert!(rows.contains(&vec!["sfo", "jfk", "nrt"]));
    assert_eq!(rows.len(), 3);
}

#[test]
fn repeat_prepare_hits_the_cache_with_stable_identity() {
    let e = flights_engine();
    let first = e.prepare("F(a, b), F(b, c)").unwrap();
    assert!(!first.cache_hit());
    let id0 = first.plan_id();
    // Different variable names, same shape: cache hit, same plan —
    // and both statements are alive at once.
    let stmt = e.prepare("F(x, y), F(y, z)").unwrap();
    assert!(stmt.cache_hit());
    assert_eq!(stmt.plan_id(), id0);
    assert_eq!(stmt.columns(), vec!["x", "y", "z"]);
    let ep = stmt.explain(&ExecOptions::default()).unwrap();
    assert_eq!(
        ep.cache,
        Some(ExplainCache {
            hit: true,
            plan_id: id0
        })
    );
    assert_eq!(
        first.execute(&ExecOptions::default()).unwrap().rows,
        stmt.execute(&ExecOptions::default()).unwrap().rows
    );
}

#[test]
fn literal_values_share_one_cache_entry() {
    let e = flights_engine();
    let to_nrt = e.prepare("F(a, \"nrt\")").unwrap();
    let to_lhr = e.prepare("F(a, \"lhr\")").unwrap();
    let plain = e.prepare("F(a, b)").unwrap();
    // One shape, one plan — the literal is a per-statement seed.
    assert_eq!(to_nrt.plan_id(), to_lhr.plan_id());
    assert_eq!(to_nrt.plan_id(), plain.plan_id());
    assert!(to_lhr.cache_hit() && plain.cache_hit());
    let nrt = to_nrt.execute(&ExecOptions::default()).unwrap();
    assert_eq!(
        nrt.rows,
        vec![vec![Value::from("jfk")], vec![Value::from("lhr")]]
    );
    let lhr = to_lhr.execute(&ExecOptions::default()).unwrap();
    assert_eq!(lhr.rows, vec![vec![Value::from("jfk")]]);
    assert_eq!(
        plain.execute(&ExecOptions::default()).unwrap().rows.len(),
        4
    );
}

#[test]
fn literals_constrain_and_are_hidden() {
    let e = flights_engine();
    let stmt = e.prepare("F(a, \"nrt\")").unwrap();
    assert_eq!(stmt.columns(), vec!["a"]);
    let res = stmt.execute(&ExecOptions::default()).unwrap();
    assert_eq!(
        res.rows,
        vec![vec![Value::from("jfk")], vec![Value::from("lhr")]]
    );
    // A literal that appears in no data row matches nothing — and
    // leaves no trace in the catalog or dictionary.
    let rels = e.db().len();
    let words = e.dict().len();
    let none = e
        .prepare("F(a, \"never-seen\")")
        .unwrap()
        .execute(&ExecOptions::default())
        .unwrap();
    assert!(none.rows.is_empty());
    assert_eq!(e.db().len(), rels, "no literal relations created");
    assert_eq!(e.dict().len(), words, "no literal interning");
}

#[test]
fn int_literal_and_type_checks() {
    let mut e = Engine::new();
    e.add_relation(
        "R",
        &[ColumnType::Int, ColumnType::Str],
        [
            vec![Value::Int(1), Value::from("one")],
            vec![Value::Int(2), Value::from("two")],
        ],
    )
    .unwrap();
    let res = e
        .prepare("R(2, name)")
        .unwrap()
        .execute(&ExecOptions::default())
        .unwrap();
    assert_eq!(res.rows, vec![vec![Value::from("two")]]);
    // Binding a string literal into the int column is a type error.
    assert!(matches!(
        e.prepare("R(\"x\", name)"),
        Err(EngineError::TypeMismatch { .. })
    ));
    // And an int literal into the string column likewise.
    assert!(matches!(
        e.prepare("R(x, 7)"),
        Err(EngineError::TypeMismatch { .. })
    ));
}

#[test]
fn baseline_dispatch_never_builds_the_reindex() {
    // A shape whose written order is not a NEO: the Minesweeper path
    // must re-index, but a baseline runs on the stored indexes, so
    // the expensive bind must stay unbuilt until a planner path asks.
    let mut e = Engine::new();
    e.load_tsv("R", "1 2\n3 4\n").unwrap();
    e.load_tsv("S", "5 2\n6 4\n").unwrap();
    let stmt = e.prepare("R(a, c), S(b, c)").unwrap();
    assert!(stmt.plan().is_reindexed());
    assert!(stmt.entry.exec.get().is_none(), "lazy until needed");
    let base = stmt
        .execute(&ExecOptions::default().with_algo("naive"))
        .unwrap();
    assert!(
        stmt.entry.exec.get().is_none(),
        "baseline dispatch skips the physical re-index"
    );
    let ms = stmt.execute(&ExecOptions::default()).unwrap();
    assert!(stmt.entry.exec.get().is_some(), "built on first use");
    assert_eq!(base.rows, ms.rows);
}

#[test]
fn row_arity_reported_distinctly() {
    let mut e = Engine::new();
    let err = e
        .add_relation(
            "R",
            &[ColumnType::Int, ColumnType::Int],
            [vec![Value::Int(1), Value::Int(2), Value::Int(3)]],
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::RowArity {
                expected: 2,
                got: 3,
                ..
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("3 cells"), "{err}");
}

#[test]
fn value_type_checked_at_load() {
    let mut e = Engine::new();
    let err = e
        .add_relation("R", &[ColumnType::Int], [vec![Value::from("not-an-int")]])
        .unwrap_err();
    assert!(matches!(err, EngineError::ValueType { column: 0, .. }));
}

#[test]
fn unknown_algo_reported() {
    let e = flights_engine();
    let stmt = e.prepare("F(a, b)").unwrap();
    let err = stmt
        .execute(&ExecOptions::default().with_algo("quantum"))
        .unwrap_err();
    assert!(matches!(err, EngineError::UnknownAlgorithm(_)));
    assert!(
        matches!(
            stmt.dispatch_kind(&ExecOptions::default().with_algo("minesweeper-par")),
            Ok(DispatchKind::Parallel(t)) if t >= 1
        ),
        "minesweeper-par resolves to a concrete worker count"
    );
}
