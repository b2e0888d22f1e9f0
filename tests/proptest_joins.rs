//! Property-based tests: randomized databases and constraint streams,
//! checked against models and the naive join; and hostile input lines,
//! which no parser may panic on.

use proptest::prelude::*;

use minesweeper_join::baselines::{adaptive_intersection, leapfrog_triejoin};
use minesweeper_join::cds::{
    Constraint, ConstraintTree, IntervalSet, Pattern, ProbeMode, ProbeStats,
};
use minesweeper_join::core::{
    minesweeper_join, naive_join, reindex_for_gao, set_intersection, triangle_join, Query,
};
use minesweeper_join::durability::record::{fnv64, parse_record, unescape_cell};
use minesweeper_join::server::protocol::{parse_request, parse_response_line};
use minesweeper_join::storage::{builder, Database, TrieRelation, Val};
use minesweeper_join::text::{parse_query_ast, parse_relation, parse_typed_relation};

fn pairs_strategy(max_len: usize, dom: Val) -> impl Strategy<Value = Vec<(Val, Val)>> {
    prop::collection::vec((0..dom, 0..dom), 0..max_len)
}

fn vals_strategy(max_len: usize, dom: Val) -> impl Strategy<Value = Vec<Val>> {
    prop::collection::vec(0..dom, 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Minesweeper (chain mode) equals the naive join on random bow-ties.
    #[test]
    fn bowtie_matches_naive(
        r in vals_strategy(10, 12),
        s in pairs_strategy(30, 12),
        t in vals_strategy(10, 12),
    ) {
        let mut db = Database::new();
        let rid = db.add(builder::unary("R", r)).unwrap();
        let sid = db.add(builder::binary("S", s)).unwrap();
        let tid = db.add(builder::unary("T", t)).unwrap();
        let q = Query::new(2).atom(rid, &[0]).atom(sid, &[0, 1]).atom(tid, &[1]);
        let mut got = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap().tuples;
        got.sort();
        prop_assert_eq!(got, naive_join(&db, &q).unwrap());
    }

    /// Minesweeper (general mode) equals the naive join on random
    /// triangles, and the dyadic triangle join agrees too.
    #[test]
    fn triangle_matches_naive(e in pairs_strategy(40, 10)) {
        let mut db = Database::new();
        let r = db.add(builder::binary("R", e.clone())).unwrap();
        let s = db.add(builder::binary("S", e.clone())).unwrap();
        let t = db.add(builder::binary("T", e)).unwrap();
        let q = Query::new(3).atom(r, &[0, 1]).atom(s, &[1, 2]).atom(t, &[0, 2]);
        let expect = naive_join(&db, &q).unwrap();
        let mut got = minesweeper_join(&db, &q, ProbeMode::General).unwrap().tuples;
        got.sort();
        prop_assert_eq!(&got, &expect);
        let mut tri = triangle_join(&db, r, s, t).unwrap().tuples;
        tri.sort();
        prop_assert_eq!(&tri, &expect);
    }

    /// Two-hop path: Minesweeper ≡ LFTJ ≡ naive.
    #[test]
    fn path_matches_lftj(
        e1 in pairs_strategy(25, 9),
        e2 in pairs_strategy(25, 9),
    ) {
        let mut db = Database::new();
        let a = db.add(builder::binary("E1", e1)).unwrap();
        let b = db.add(builder::binary("E2", e2)).unwrap();
        let q = Query::new(3).atom(a, &[0, 1]).atom(b, &[1, 2]);
        let expect = naive_join(&db, &q).unwrap();
        let mut ms = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap().tuples;
        ms.sort();
        prop_assert_eq!(&ms, &expect);
        let mut lf = leapfrog_triejoin(&db, &q).unwrap().tuples;
        lf.sort();
        prop_assert_eq!(&lf, &expect);
    }

    /// Set intersection: Minesweeper ≡ DLM-adaptive ≡ sorted-set model.
    #[test]
    fn intersection_matches_model(
        a in vals_strategy(40, 60),
        b in vals_strategy(40, 60),
        c in vals_strategy(40, 60),
    ) {
        use std::collections::BTreeSet;
        let model: Vec<Val> = {
            let sa: BTreeSet<_> = a.iter().copied().collect();
            let sb: BTreeSet<_> = b.iter().copied().collect();
            let sc: BTreeSet<_> = c.iter().copied().collect();
            sa.intersection(&sb).copied().filter(|v| sc.contains(v)).collect()
        };
        let ra = builder::unary("A", a);
        let rb = builder::unary("B", b);
        let rc = builder::unary("C", c);
        let refs: Vec<&TrieRelation> = vec![&ra, &rb, &rc];
        let ms: Vec<Val> = set_intersection(&refs).tuples.iter().map(|t| t[0]).collect();
        prop_assert_eq!(&ms, &model);
        let ad: Vec<Val> =
            adaptive_intersection(&refs).tuples.iter().map(|t| t[0]).collect();
        prop_assert_eq!(&ad, &model);
    }

    /// Re-indexing under a random GAO permutation preserves join
    /// semantics.
    #[test]
    fn gao_reindex_preserves_semantics(
        e1 in pairs_strategy(20, 8),
        e2 in pairs_strategy(20, 8),
        perm_seed in 0usize..6,
    ) {
        let perms = [
            [0usize, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
        ];
        let order = perms[perm_seed];
        let mut db = Database::new();
        let a = db.add(builder::binary("E1", e1)).unwrap();
        let b = db.add(builder::binary("E2", e2)).unwrap();
        let q = Query::new(3).atom(a, &[0, 1]).atom(b, &[1, 2]);
        let expect = naive_join(&db, &q).unwrap();
        let (db2, q2) = reindex_for_gao(&db, &q, &order).unwrap();
        let res = minesweeper_join(&db2, &q2, ProbeMode::General).unwrap();
        // Translate back: output column i holds original attribute
        // order[i].
        let mut inv = [0usize; 3];
        for (i, &o) in order.iter().enumerate() {
            inv[o] = i;
        }
        let mut mapped: Vec<Vec<Val>> = res
            .tuples
            .iter()
            .map(|t| (0..3).map(|o| t[inv[o]]).collect())
            .collect();
        mapped.sort();
        prop_assert_eq!(mapped, expect);
    }

    /// The interval set matches a naive bit-set model under arbitrary
    /// insertion sequences.
    #[test]
    fn interval_set_model(ops in prop::collection::vec((0i64..64, 0i64..8), 1..40)) {
        let mut s = IntervalSet::new();
        let mut model = [false; 80];
        for (lo, len) in ops {
            let hi = lo + len;
            s.insert_closed(lo, hi);
            for v in lo..=hi {
                model[v as usize] = true;
            }
            for v in 0..72 {
                prop_assert_eq!(s.covers(v), model[v as usize]);
            }
            for v in 0..72 {
                let expect = (v..80).find(|&u| !model[u as usize]).unwrap_or(80);
                prop_assert_eq!(s.next(v).min(80), expect);
            }
        }
    }

    /// `get_probe_point` only returns active tuples, never repeats them
    /// once excluded, and terminates on a boxed space.
    #[test]
    fn probe_points_are_active_and_fresh(
        cs in prop::collection::vec(
            (0usize..3, prop::collection::vec((0i64..5, prop::bool::ANY), 0..2), -1i64..5, 0i64..5),
            0..10
        )
    ) {
        let mut cds = ConstraintTree::new(3, ProbeMode::General);
        let mut st = ProbeStats::default();
        // Box to [0,4]^3.
        for d in 0..3usize {
            let p = Pattern::all_star(d);
            cds.insert_constraint(&Constraint::new(p.clone(), minesweeper_join::cds::NEG_INF, 0), &mut st);
            cds.insert_constraint(&Constraint::new(p, 4, minesweeper_join::cds::POS_INF), &mut st);
        }
        let mut constraints = Vec::new();
        for (depth, pat, lo, len) in cs {
            let comps: Vec<minesweeper_join::cds::PatternComp> = pat
                .into_iter()
                .take(depth)
                .map(|(v, star)| if star {
                    minesweeper_join::cds::PatternComp::Star
                } else {
                    minesweeper_join::cds::PatternComp::Eq(v)
                })
                .collect();
            if comps.len() < depth {
                continue;
            }
            let c = Constraint::new(Pattern(comps), lo, lo + len);
            cds.insert_constraint(&c, &mut st);
            constraints.push(c);
        }
        let mut seen = std::collections::HashSet::new();
        let mut guard = 0;
        while let Some(t) = cds.get_probe_point(&mut st) {
            prop_assert!(!constraints.iter().any(|c| c.covers(&t)), "covered probe {:?}", t);
            prop_assert!(seen.insert(t.clone()), "repeated probe {:?}", t);
            cds.insert_constraint(&Constraint::point_exclusion(&t), &mut st);
            guard += 1;
            prop_assert!(guard <= 200, "runaway");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The write path's lazy merge: a versioned relation under random
    /// insert/delete batches equals a set model, and its [`MergeView`]
    /// is observationally equivalent to the materialized snapshot —
    /// same tuples, same `FindGap` gaps at every probe.
    ///
    /// [`MergeView`]: minesweeper_join::storage::MergeView
    #[test]
    fn versioned_relation_merge_matches_set_model(
        base in pairs_strategy(25, 9),
        ins in pairs_strategy(12, 9),
        del in pairs_strategy(12, 9),
        probes in prop::collection::vec(-1i64..11, 1..10),
    ) {
        use std::collections::BTreeSet;
        use minesweeper_join::storage::{ExecStats, VersionedRelation, WriteOp};

        let base_set: BTreeSet<(Val, Val)> = base.iter().copied().collect();
        let mut model: BTreeSet<(Val, Val)> = base_set.clone();
        let mut rel = VersionedRelation::from_base(builder::binary("R", base_set));

        let mut ops: Vec<WriteOp> = Vec::new();
        for &(a, b) in &ins {
            ops.push(WriteOp::Insert(vec![a, b]));
            model.insert((a, b));
        }
        for &(a, b) in &del {
            ops.push(WriteOp::Delete(vec![a, b]));
            model.remove(&(a, b));
        }
        rel.apply(&ops).unwrap();

        // Logical content equals the model, via the materialized
        // snapshot and via the lazy merge iterator alike.
        let expect: Vec<Vec<Val>> = model.iter().map(|&(a, b)| vec![a, b]).collect();
        prop_assert_eq!(rel.snapshot().to_tuples(), expect.clone());
        let view = rel.merge_view();
        prop_assert_eq!(view.iter_tuples().collect::<Vec<_>>(), expect);
        prop_assert_eq!(rel.len(), model.len());

        // FindGap through the merge view is bit-identical to FindGap on
        // the materialized trie: at the root, and one level down under
        // every root child.
        let snap = rel.snapshot().clone();
        let mut s1 = ExecStats::new();
        let mut s2 = ExecStats::new();
        for &a in &probes {
            prop_assert_eq!(
                view.find_gap(&view.root(), a, &mut s1),
                snap.find_gap(snap.root(), a, &mut s2)
            );
        }
        for &(x, _) in &model {
            let mnode = view.child_by_value(&view.root(), x, &mut s1).unwrap();
            let tnode = snap.child(snap.root(), snap.find_gap(snap.root(), x, &mut s2).lo_coord);
            for &a in &probes {
                prop_assert_eq!(
                    view.find_gap(&mnode, a, &mut s1),
                    snap.find_gap(tnode, a, &mut s2)
                );
            }
        }
    }
}

/// Words a hostile client or a damaged data directory can put on a line,
/// space-separated: request, response and WAL verbs, option keys, integers
/// at and past the 64-bit limits, `%` escapes (valid, truncated, non-hex,
/// non-UTF-8), query punctuation, comment and NUL characters, multibyte
/// text.
const HOSTILE: &str = "Q PREPARE EXEC UNPREPARE W INSERT DELETE COMPACT CHECKPOINT BATCH \
    PING STATS QUIT OK ERR PROTO I D * ; -- | algo= algo=leapfrog threads= limit= timeout= \
    explain explain=json = 18446744073709551616 18446744073709551615 9223372036854775808 \
    -9223372036854775809 -9223372036854775808 0 -1 +7 1e3 % %- %2 %25 %zz %ff %e2%82 \
    %e2%8b%88 %20%3b R x ( ) , \" \"nyc ⋈ é 🦀 \u{0} #";

/// What goes between two hostile words.
const SEPARATORS: &[&str] = &[" ", " ", "", "\t", "  ", "\r\n", "\n"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The seven parsers reachable from the wire or a data directory
    /// return their error value on hostile input and never panic. Half of
    /// the WAL lines carry a valid checksum and a `W <lsn>` head, so the
    /// record grammar past the checksum is reached too.
    #[test]
    fn hostile_input_never_panics(
        words in prop::collection::vec(
            (0..HOSTILE.split(' ').count(), 0..SEPARATORS.len()),
            0..16
        ),
        wal_shaped in prop::bool::ANY,
    ) {
        let vocabulary: Vec<&str> = HOSTILE.split(' ').collect();
        let line: String = words
            .iter()
            .flat_map(|&(w, sep)| [vocabulary[w], SEPARATORS[sep]])
            .collect();
        let _ = parse_request(&line);
        let _ = parse_response_line(&line);
        let _ = unescape_cell(&line);
        let _ = parse_query_ast(&line);
        let _ = parse_relation("R", &line);
        let _ = parse_typed_relation("R", &line);
        let _ = parse_record(&line);
        let body = if wal_shaped { format!("W 7 {line}") } else { line };
        let _ = parse_record(&format!("{:016x} {body}", fnv64(body.as_bytes())));
    }
}
