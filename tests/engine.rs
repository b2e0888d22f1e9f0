//! Integration tests of the `Engine` / `PreparedStatement` front door:
//! plan + re-index caching, typed dictionary-encoded values, uniform
//! `ExecOptions` dispatch, and the structured explain.

use proptest::prelude::*;

use minesweeper_join::baselines::algorithms;
use minesweeper_join::core::naive_join;
use minesweeper_join::engine::{Engine, EngineError, ExecOptions};
use minesweeper_join::storage::{builder, ColumnType, Database, Val, Value};
use minesweeper_join::text::TextError;

fn sv(s: &str) -> Value {
    Value::from(s)
}

/// Airports with an out-of-NEO ternary so the planner must re-index.
fn routes_engine() -> Engine {
    let mut e = Engine::new();
    // Leg(origin, dest, carrier): written (A,B,C) order is not a NEO for
    // the query below joined with ByCarrier(A,C) and ToCity(B,C).
    e.add_relation(
        "Leg",
        &[ColumnType::Str, ColumnType::Str, ColumnType::Str],
        [
            vec![sv("jfk"), sv("lhr"), sv("ba")],
            vec![sv("jfk"), sv("lhr"), sv("aa")],
            vec![sv("sfo"), sv("nrt"), sv("ua")],
            vec![sv("sfo"), sv("lhr"), sv("ba")],
        ],
    )
    .unwrap();
    e.add_relation(
        "ByCarrier",
        &[ColumnType::Str, ColumnType::Str],
        [
            vec![sv("jfk"), sv("ba")],
            vec![sv("sfo"), sv("ba")],
            vec![sv("sfo"), sv("ua")],
        ],
    )
    .unwrap();
    e.add_relation(
        "ToCity",
        &[ColumnType::Str, ColumnType::Str],
        [
            vec![sv("lhr"), sv("ba")],
            vec![sv("nrt"), sv("ua")],
            vec![sv("lhr"), sv("aa")],
        ],
    )
    .unwrap();
    e
}

const ROUTES_QUERY: &str = "Leg(a, b, c), ByCarrier(a, c), ToCity(b, c)";

/// Acceptance: a repeated prepare/execute performs zero planning and zero
/// re-indexing — the second statement is a cache hit with the *same* plan
/// identity, its explain says so, and nothing about the plan changed.
#[test]
fn repeated_execute_reuses_plan_and_reindexed_relations() {
    let e = routes_engine();
    let opts = ExecOptions::default().with_stats();
    let (first_rows, first_id, first_gao) = {
        let stmt = e.prepare(ROUTES_QUERY).unwrap();
        assert!(!stmt.cache_hit(), "first prepare builds the entry");
        assert!(stmt.plan().is_reindexed(), "query must force a re-index");
        let ep = stmt.explain(&opts).unwrap();
        let cache = ep.cache.clone().expect("engine explain carries cache info");
        assert!(!cache.hit);
        // Two executes on one statement: same rows, no re-prepare.
        let r1 = stmt.execute(&opts).unwrap();
        let r2 = stmt.execute(&opts).unwrap();
        assert_eq!(r1.rows, r2.rows);
        (r1.rows, stmt.plan_id(), stmt.plan().gao().clone())
    };
    // A fresh prepare of the same shape — different variable names — hits
    // the cache: identical plan identity, identical decisions, and the
    // explain reports the hit.
    let stmt = e
        .prepare("Leg(x, y, z), ByCarrier(x, z), ToCity(y, z)")
        .unwrap();
    assert!(stmt.cache_hit());
    assert_eq!(stmt.plan_id(), first_id, "plan identity is stable");
    assert_eq!(stmt.plan().gao(), &first_gao);
    let ep = stmt.explain(&opts).unwrap();
    assert_eq!(
        ep.cache.as_ref().map(|c| (c.hit, c.plan_id)),
        Some((true, first_id))
    );
    assert!(ep.to_json().contains("\"hit\":true"), "{}", ep.to_json());
    let rows = stmt.execute(&opts).unwrap().rows;
    assert_eq!(rows, first_rows);
}

/// The same `ExecOptions` dispatch drives every evaluator — serial,
/// sharded, and each baseline — and all agree on a string workload.
#[test]
fn all_algorithms_dispatch_uniformly_through_execute() {
    let e = routes_engine();
    let stmt = e.prepare(ROUTES_QUERY).unwrap();
    let expect = stmt.execute(&ExecOptions::default()).unwrap().rows;
    assert!(!expect.is_empty());
    for algo in algorithms() {
        let opts = ExecOptions::default()
            .with_algo(algo.name())
            .with_threads(3);
        let got = stmt.execute(&opts).unwrap();
        assert_eq!(got.rows, expect, "{} disagrees", algo.name());
    }
    // Unknown names fail fast.
    assert!(matches!(
        stmt.execute(&ExecOptions::default().with_algo("quantum")),
        Err(EngineError::UnknownAlgorithm(_))
    ));
}

/// Streaming respects the limit and the serial stream is lazy.
#[test]
fn stream_and_limit_paths() {
    let mut e = Engine::new();
    e.load_tsv("R", &(0..200).map(|i| format!("{i}\n")).collect::<String>())
        .unwrap();
    e.load_tsv(
        "S",
        &(0..200).map(|i| format!("{}\n", i * 2)).collect::<String>(),
    )
    .unwrap();
    let stmt = e.prepare("R(x), S(x)").unwrap();
    let full = stmt.execute(&ExecOptions::default()).unwrap();
    assert_eq!(full.rows.len(), 100);
    assert!(!full.truncated);
    // Serial limit: pushdown, truncated flag set, fewer probe points.
    let limited = stmt
        .execute(&ExecOptions::default().with_limit(5).with_stats())
        .unwrap();
    assert_eq!(limited.rows, full.rows[..5].to_vec());
    assert!(limited.truncated);
    let full_stats = stmt
        .execute(&ExecOptions::default().with_stats())
        .unwrap()
        .stats
        .unwrap();
    assert!(
        limited.stats.unwrap().probe_points * 4 < full_stats.probe_points,
        "limit pushdown must skip probe work"
    );
    // Parallel limit: bounded per shard, truncated to the cap.
    let par = stmt
        .execute(
            &ExecOptions::default()
                .with_threads(4)
                .with_limit(5)
                .with_stats(),
        )
        .unwrap();
    assert_eq!(par.rows, full.rows[..5].to_vec(), "identity GAO prefix");
    assert!(par.truncated);
    for s in par.shards.as_deref().unwrap_or(&[]) {
        assert!(s.stats.outputs <= 5, "per-shard cap holds");
    }
    // Stream: lazy, decoded, capped.
    let streamed: Vec<_> = stmt
        .stream(&ExecOptions::default().with_limit(3))
        .unwrap()
        .collect();
    assert_eq!(streamed, full.rows[..3].to_vec());
}

/// Engine-level prepare errors keep the text layer's diagnostics.
#[test]
fn prepare_error_paths() {
    let e = routes_engine();
    assert!(matches!(
        e.prepare("Nope(x, y)"),
        Err(EngineError::Text(TextError::UnknownRelation(n))) if n == "Nope"
    ));
    assert!(matches!(
        e.prepare("ByCarrier(x)"),
        Err(EngineError::Text(TextError::AtomArity {
            atom: 1,
            relation_arity: 2,
            ..
        }))
    ));
    assert!(matches!(
        e.prepare("ByCarrier(x y)"),
        Err(EngineError::Text(TextError::BadQuery(_)))
    ));
    assert!(matches!(
        e.prepare("ByCarrier(x, y), ToCity(y, x)"),
        Err(EngineError::Text(TextError::BadQuery(msg))) if msg.contains("GAO order")
    ));
    assert!(matches!(e.prepare(""), Err(EngineError::Text(_))));
}

/// The explain carries the shard strategy exactly when the options select
/// the parallel engine.
#[test]
fn explain_reports_shards_and_algorithm() {
    let e = routes_engine();
    let stmt = e.prepare(ROUTES_QUERY).unwrap();
    let serial = stmt.explain(&ExecOptions::default()).unwrap();
    assert!(serial.shards.is_none());
    let par = stmt
        .explain(&ExecOptions::default().with_threads(4))
        .unwrap();
    assert_eq!(par.shards.as_ref().map(|s| s.threads), Some(4));
    assert!(par.render().contains("parallel: up to 4"));
    let base = stmt
        .explain(&ExecOptions::default().with_algo("lftj"))
        .unwrap();
    assert_eq!(base.algorithm, "leapfrog", "aliases resolve in explain");
}

fn flights_engine() -> Engine {
    let mut e = Engine::new();
    e.add_relation(
        "F",
        &[ColumnType::Str, ColumnType::Str],
        [
            vec![sv("jfk"), sv("lhr")],
            vec![sv("lhr"), sv("nrt")],
            vec![sv("sfo"), sv("jfk")],
            vec![sv("jfk"), sv("nrt")],
            vec![sv("sfo"), sv("lhr")],
        ],
    )
    .unwrap();
    e
}

/// A literal may occupy an earlier column than an already-bound variable:
/// the engine must find a GAO placing the hidden literal attribute before
/// `b` instead of rejecting the query.
#[test]
fn literal_before_a_bound_variable_is_accepted() {
    let e = flights_engine();
    let stmt = e.prepare("F(a, b), F(\"jfk\", b)").unwrap();
    assert_eq!(stmt.columns(), vec!["a", "b"]);
    let res = stmt.execute(&ExecOptions::default()).unwrap();
    let rows: Vec<Vec<&str>> = res
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.as_str().unwrap()).collect())
        .collect();
    // Destinations jfk reaches (lhr, nrt), joined with every origin that
    // also reaches them.
    assert!(rows.contains(&vec!["jfk", "lhr"]), "{rows:?}");
    assert!(rows.contains(&vec!["sfo", "lhr"]), "{rows:?}");
    assert!(rows.contains(&vec!["jfk", "nrt"]), "{rows:?}");
    assert!(rows.contains(&vec!["lhr", "nrt"]), "{rows:?}");
    assert_eq!(rows.len(), 4, "{rows:?}");
}

#[test]
fn parallel_limit_equal_to_result_size_is_not_truncated() {
    let e = flights_engine();
    let stmt = e.prepare("F(a, b)").unwrap();
    let full = stmt.execute(&ExecOptions::default()).unwrap();
    let exact = stmt
        .execute(
            &ExecOptions::default()
                .with_threads(4)
                .with_limit(full.rows.len()),
        )
        .unwrap();
    assert_eq!(exact.rows, full.rows);
    assert!(!exact.truncated, "nothing was cut");
    let cut = stmt
        .execute(&ExecOptions::default().with_threads(4).with_limit(1))
        .unwrap();
    assert!(cut.truncated);
    assert_eq!(cut.rows.len(), 1);
}

#[test]
fn serial_limited_stats_exclude_the_truncation_peek() {
    let e = flights_engine();
    let stmt = e.prepare("F(a, b)").unwrap();
    let limited = stmt
        .execute(&ExecOptions::default().with_limit(2).with_stats())
        .unwrap();
    assert!(limited.truncated);
    assert_eq!(
        limited.stats.unwrap().outputs,
        2,
        "stats reflect only the shown prefix, not the peek"
    );
}

#[test]
fn stale_query_handle_errors_instead_of_panicking() {
    use minesweeper_join::core::Query;
    use minesweeper_join::storage::RelId;
    let e = flights_engine();
    let bogus = Query::new(1).atom(RelId(99), &[0]);
    assert!(matches!(
        e.prepare_query(&bogus),
        Err(EngineError::Storage(_))
    ));
}

/// Brute-force string-level natural join of the two binary relations
/// (shared second/first column), the model for the property test below.
fn string_model_join(r: &[(String, String)], s: &[(String, String)]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = Vec::new();
    for (a, b) in r {
        for (b2, c) in s {
            if b == b2 {
                let row = vec![a.clone(), b.clone(), c.clone()];
                if !out.contains(&row) {
                    out.push(row);
                }
            }
        }
    }
    out
}

/// A small word pool so joins actually match; no word parses as an
/// integer, keeping the columns Str-typed.
const WORDS: [&str; 6] = ["ash", "birch", "cedar", "doug", "elm", "fir"];

fn word_strategy() -> impl Strategy<Value = String> {
    (0..WORDS.len()).prop_map(|i| WORDS[i].to_string())
}

fn string_pairs(max_len: usize) -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec((word_strategy(), word_strategy()), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dictionary round-trip: encoding strings to dense ids, joining in
    /// the integer domain, and decoding at the boundary equals (a) the
    /// string-level model join and (b) a naive join over the relabelled
    /// integer relations, tuple for tuple.
    #[test]
    fn dictionary_round_trip_matches_relabelled_run(
        r in string_pairs(16),
        s in string_pairs(16),
    ) {
        if r.is_empty() || s.is_empty() {
            return Ok(());
        }
        let mut e = Engine::new();
        e.add_relation(
            "R",
            &[ColumnType::Str, ColumnType::Str],
            r.iter().map(|(a, b)| vec![sv(a), sv(b)]),
        )
        .unwrap();
        e.add_relation(
            "S",
            &[ColumnType::Str, ColumnType::Str],
            s.iter().map(|(b, c)| vec![sv(b), sv(c)]),
        )
        .unwrap();
        let stmt = e.prepare("R(a, b), S(b, c)").unwrap();
        let rows = stmt.execute(&ExecOptions::default()).unwrap().rows;
        let got: Vec<Vec<String>> = rows
            .iter()
            .map(|row| row.iter().map(|v| v.as_str().unwrap().to_string()).collect())
            .collect();

        // (a) Same *set* as the string-level model join.
        let mut model = string_model_join(&r, &s);
        let mut got_sorted = got.clone();
        model.sort();
        got_sorted.sort();
        prop_assert_eq!(&got_sorted, &model);

        // (b) Byte-identical to the i64-relabelled run: encode the same
        // tuples with the engine's dictionary, join natively, decode.
        let enc = |w: &str| e.dict().id_of(w).expect("every loaded word interned");
        let mut db = Database::new();
        let rid = db
            .add(builder::binary("R", r.iter().map(|(a, b)| (enc(a), enc(b)))))
            .unwrap();
        let sid = db
            .add(builder::binary("S", s.iter().map(|(b, c)| (enc(b), enc(c)))))
            .unwrap();
        let q = minesweeper_join::core::Query::new(3)
            .atom(rid, &[0, 1])
            .atom(sid, &[1, 2]);
        let relabelled: Vec<Vec<String>> = naive_join(&db, &q)
            .unwrap()
            .iter()
            .map(|t| {
                t.iter()
                    .map(|&v: &Val| e.dict().resolve(v).unwrap().to_string())
                    .collect()
            })
            .collect();
        prop_assert_eq!(&got, &relabelled, "decoded order mirrors the encoded order");
    }
}

// ------------------------------------------------ the equivalence matrix
//
// One table pins that every way of running a statement — materialized
// `execute`, the decoded `stream`, and the rendered body — is the same
// evaluation under every option combination the front doors can express.

/// Output rows as text cells, the common currency of the three paths.
fn text_rows(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect()
}

/// Splits a rendered body into its data rows and its `# …` marker line.
fn parse_body(body: &str) -> (Vec<Vec<String>>, Option<String>) {
    let mut lines = body.lines();
    assert!(lines.next().is_some_and(|h| h.starts_with('#')), "{body}");
    let mut rows = Vec::new();
    let mut marker = None;
    for line in lines {
        if line.starts_with("# …") {
            assert!(marker.replace(line.to_string()).is_none(), "{body}");
        } else {
            assert!(marker.is_none(), "the marker is the last line: {body}");
            rows.push(line.split('\t').map(str::to_string).collect());
        }
    }
    (rows, marker)
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

fn matrix_engine() -> Engine {
    let ints = |rows: Vec<Vec<i64>>| {
        rows.into_iter()
            .map(|r| r.into_iter().map(Value::Int).collect())
    };
    let mut e = Engine::new();
    e.add_relation(
        "A",
        &[ColumnType::Int],
        ints((0..40).map(|i| vec![i]).collect()),
    )
    .unwrap();
    e.add_relation(
        "B",
        &[ColumnType::Int],
        ints((0..40).map(|i| vec![3 * i]).collect()),
    )
    .unwrap();
    // Example B.7's shape: the written (a, b, c) order is not a NEO.
    let grid = || (1..=6).flat_map(|a| (1..=6).map(move |b| (a, b)));
    e.add_relation(
        "R",
        &[ColumnType::Int; 3],
        ints(grid().map(|(a, b)| vec![a, b, (a * b) % 4 + 1]).collect()),
    )
    .unwrap();
    e.add_relation(
        "S",
        &[ColumnType::Int; 2],
        ints(
            (1..=6)
                .flat_map(|a| (1..=4).map(move |c| vec![a, c]))
                .collect(),
        ),
    )
    .unwrap();
    e.add_relation(
        "T",
        &[ColumnType::Int; 2],
        ints((1..=6).flat_map(|b| [vec![b, 1], vec![b, 3]]).collect()),
    )
    .unwrap();
    e.add_relation(
        "G",
        &[ColumnType::Str, ColumnType::Str],
        [vec![sv("ash"), sv("tree")], vec![sv("fir"), sv("tree")]],
    )
    .unwrap();
    // One heavy duplicate run: every Q tuple shares z = 9, and the path's
    // GAO puts z first, so `threads=4` nested-splits the run on y.
    let n = 2_000;
    e.add_relation(
        "P",
        &[ColumnType::Int; 2],
        ints((0..n).map(|i| vec![(i * 7) % n, i]).collect()),
    )
    .unwrap();
    e.add_relation(
        "Q",
        &[ColumnType::Int; 2],
        ints((0..n).map(|i| vec![i, 9]).collect()),
    )
    .unwrap();
    e
}

/// The option matrix's queries: (text, must re-index?).
const MATRIX_QUERIES: [(&str, bool); 5] = [
    ("A(x), B(x)", false),
    ("R(a, b, c), S(a, c), T(b, c)", true),
    ("R(a, b, 3), T(b, 3)", true),
    ("G(n, \"never-seen\")", false),
    ("P(x, y), Q(y, z)", true),
];

/// One binder, two front doors: for every literal-free matrix query (and
/// a written order that forces a GAO reordering) `text::parse_query` and
/// `Engine::prepare` agree on attribute names, GAO positions and atom
/// bindings; for the literal ones `parse_query` refuses, as documented.
#[test]
fn parse_query_and_prepare_bind_identically() {
    use minesweeper_join::text::{parse_query, TextError};

    let e = matrix_engine();
    let db = e.db();
    let reordered = ("S(a, c), R(a, b, c), T(b, c)", true);
    for (text, _) in MATRIX_QUERIES.into_iter().chain([reordered]) {
        let stmt = e.prepare(text).unwrap();
        if text.contains(['"', '3']) {
            assert!(
                matches!(parse_query(text, &db), Err(TextError::BadQuery(m)) if m.contains("Engine")),
                "{text}"
            );
            continue;
        }
        let parsed = parse_query(text, &db).unwrap();
        assert_eq!(
            parsed.attr_names,
            stmt.columns(),
            "{text}: names by GAO position"
        );
        assert_eq!(
            &parsed.query,
            stmt.plan().query(),
            "{text}: atoms and positions"
        );
    }
    // First appearance says a, c, b; R's column order forces a, b, c.
    let stmt = e.prepare(reordered.0).unwrap();
    assert_eq!(stmt.columns(), ["a", "b", "c"], "closest consistent order");
}

#[test]
fn execute_stream_and_body_agree_across_the_option_matrix() {
    use minesweeper_join::render::{body_string, write_body};
    use std::time::{Duration, Instant};

    let e = matrix_engine();
    let queries = MATRIX_QUERIES;
    type Mode = fn(ExecOptions) -> ExecOptions;
    let modes: [(&str, Mode); 4] = [
        ("serial", |o| o),
        ("threads=1", |o| o.with_threads(1)),
        ("threads=4", |o| o.with_threads(4)),
        ("algo=leapfrog", |o| o.with_algo("leapfrog")),
    ];
    for (text, reindexed) in queries {
        let stmt = e.prepare(text).unwrap();
        if reindexed {
            assert!(stmt.plan().is_reindexed(), "{text}: precondition");
        }
        let reference = stmt.execute(&ExecOptions::default()).unwrap().rows;
        let z = reference.len();
        let all = text_rows(&reference);
        if text.starts_with('A') {
            assert!(!stmt.plan().is_reindexed(), "{text}: precondition");
        }
        if text.starts_with('P') {
            // Every shard outgrows its 64-tuple channel, so the streaming
            // `threads=4` cells park later workers behind the in-order
            // consumer.
            let par = ExecOptions::default().with_threads(4);
            let split = stmt.explain(&par).unwrap().shards.unwrap();
            assert_eq!(split.strategy, "nested", "{text}: precondition");
            let shards = stmt.execute(&par.with_stats()).unwrap().shards.unwrap();
            assert!(
                shards.len() > 1 && shards.iter().all(|s| s.stats.outputs > 64),
                "{text}: precondition {shards:?}"
            );
        }
        assert!(
            if text.starts_with('G') { z == 0 } else { z > 2 },
            "{text}: Z = {z}"
        );
        let limits = sorted(vec![
            None,
            Some(0),
            Some(1),
            Some(z.saturating_sub(1)),
            Some(z),
            Some(z + 1),
        ]);
        for (mode, with_mode) in modes {
            for limit in limits.iter().copied() {
                for deadline in [None, Some(Instant::now() + Duration::from_secs(3600))] {
                    let mut opts = with_mode(ExecOptions::default().with_stats());
                    opts.limit = limit;
                    opts.deadline = deadline;
                    let ctx = format!(
                        "{text} [{mode} limit={limit:?} deadline={}]",
                        deadline.is_some()
                    );
                    let k = limit.unwrap_or(usize::MAX);
                    let baseline = mode.starts_with("algo");

                    // The three paths yield the same rows.
                    let exec = stmt.execute(&opts).unwrap();
                    let mut stream = stmt.stream(&opts).unwrap();
                    let streamed = text_rows(&stream.by_ref().collect::<Vec<_>>());
                    let stream_truncated = streamed.len() == k && stream.truncated();
                    assert!(!stream.deadline_expired(), "{ctx}");
                    let (body_rows, marker) = parse_body(&body_string(&stmt, &opts).unwrap());
                    let executed = text_rows(&exec.rows);
                    assert_eq!(executed.len(), z.min(k), "{ctx}");
                    if baseline || !reindexed || k >= z {
                        // Sorted order and certification order coincide.
                        assert_eq!(executed, all[..z.min(k)], "{ctx}");
                    } else {
                        assert!(executed.iter().all(|r| all.contains(r)), "{ctx}");
                    }
                    assert_eq!(sorted(streamed.clone()), sorted(executed.clone()), "{ctx}");
                    match limit {
                        // Unlimited bodies are the materialized, sorted rows.
                        None => assert_eq!(body_rows, executed, "{ctx}"),
                        // Limited bodies are the stream's prefix, in its order.
                        Some(_) => assert_eq!(body_rows, streamed, "{ctx}"),
                    }

                    // `truncated` ⇔ a marker line, worded per evaluator.
                    assert_eq!(exec.truncated, k < z, "{ctx}");
                    assert_eq!(stream_truncated, exec.truncated, "{ctx}");
                    let expect_marker = match (exec.truncated, baseline) {
                        (false, _) => None,
                        (true, true) => Some(format!("# … {} more", z - k)),
                        (true, false) => Some(format!("# … output truncated at {k}")),
                    };
                    assert_eq!(marker, expect_marker, "{ctx}");

                    // Shard accounting exactly when the sharded engine was
                    // asked for — `threads=1` included — and actually ran.
                    let sharded = mode.starts_with("threads") && z > 0;
                    assert_eq!(exec.shards.is_some(), sharded, "{ctx}");
                    if mode == "threads=1" && sharded {
                        assert_eq!(exec.shards.as_ref().unwrap().len(), 1, "{ctx}");
                    }

                    // In-thread limits: counters cover the shown prefix
                    // only — `stream().take(k)` with no truncation peek.
                    if let (Some(k), "serial" | "threads=1") = (limit, mode) {
                        let mut unlimited = opts.clone();
                        unlimited.limit = None;
                        unlimited.threads = 0;
                        let mut prefix = stmt.stream(&unlimited).unwrap();
                        assert_eq!(prefix.by_ref().take(k).count(), z.min(k), "{ctx}");
                        let want = prefix.stats().find_gap_calls;
                        assert_eq!(exec.stats.as_ref().unwrap().find_gap_calls, want, "{ctx}");
                        let body = write_body(&mut Vec::new(), &stmt, &opts).unwrap();
                        assert_eq!(body.stats.find_gap_calls, want, "{ctx}");
                        assert_eq!(body.rows, z.min(k), "{ctx}");
                    }
                }
            }
        }
        // A statement that needs no evaluation still rejects unknown names.
        let bad = ExecOptions::default().with_algo("quantum");
        assert!(
            matches!(stmt.execute(&bad), Err(EngineError::UnknownAlgorithm(_))),
            "{text}"
        );
        assert!(
            matches!(stmt.stream(&bad), Err(EngineError::UnknownAlgorithm(_))),
            "{text}"
        );
        assert!(
            matches!(
                body_string(&stmt, &bad),
                Err(EngineError::UnknownAlgorithm(_))
            ),
            "{text}"
        );
    }
}
