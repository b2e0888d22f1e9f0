//! The triangle query with the dyadic CDS (Section 5.3, Appendix L,
//! Theorem 5.4).
//!
//! `Q∆ = R(A,B) ⋈ S(B,C) ⋈ T(A,C)` under GAO `(A, B, C)`. The outer
//! exploration is the generic Algorithm 2 — the one probe loop of
//! [`crate::stream`], whose constraints have exactly the seven shapes the
//! [`TriangleCds`](minesweeper_cds::TriangleCds) stores; only the CDS
//! changes. Its probe-point search is the corrected Algorithm 10, whose
//! dyadic subtree pruning explores `O(|C|)` `(a, b)` prefixes instead of
//! the generic CDS's `Ω(|C|²)` — total runtime `Õ(|C|^{3/2} + Z)`.

use minesweeper_storage::{Database, RelId, TrieRelation};

use crate::minesweeper::{drain, JoinResult};
use crate::query::{Query, QueryError};
use crate::stream::{CdsChoice, ProbeCtx};

/// Evaluates `R(A,B) ⋈ S(B,C) ⋈ T(A,C)` with the triangle CDS. The three
/// relations must be binary.
pub fn triangle_join(
    db: &Database,
    r: RelId,
    s: RelId,
    t: RelId,
) -> Result<JoinResult, QueryError> {
    let query = triangle_query(r, s, t);
    query.validate(db)?;
    let b_domain = b_domain_bound(db.relation(r), db.relation(s));
    Ok(drain(&ProbeCtx {
        db,
        query: &query,
        cds: CdsChoice::Triangle { b_domain },
        inv: None,
    }))
}

/// The `B` domain must cover every `B` value occurring in the data
/// (`R`'s second column, `S`'s first column); the dyadic tree rounds up to
/// a power of two.
fn b_domain_bound(r: &TrieRelation, s: &TrieRelation) -> i64 {
    let r_max = r.iter_tuples().map(|t| t[1]).max().unwrap_or(0);
    let s_max = s.first_column().last().copied().unwrap_or(0);
    r_max.max(s_max) + 1
}

/// Convenience: the triangle query as a generic [`Query`] (for running the
/// baseline generic Minesweeper on the same instance).
pub fn triangle_query(r: RelId, s: RelId, t: RelId) -> Query {
    Query::new(3)
        .atom(r, &[0, 1])
        .atom(s, &[1, 2])
        .atom(t, &[0, 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minesweeper::minesweeper_join;
    use crate::naive::naive_join;
    use crate::stream::ShardProbe;
    use minesweeper_cds::ProbeMode;
    use minesweeper_storage::{
        builder, equi_depth_shards, nested_shards, second_level_profile, Database, ShardBounds,
        ShardSpec, Tuple, Val, NEG_INF, POS_INF,
    };

    fn triangle_db(edges: &[(Val, Val)]) -> (Database, RelId, RelId, RelId) {
        let mut db = Database::new();
        let r = db.add(builder::binary("R", edges.iter().copied())).unwrap();
        let s = db.add(builder::binary("S", edges.iter().copied())).unwrap();
        let t = db.add(builder::binary("T", edges.iter().copied())).unwrap();
        (db, r, s, t)
    }

    /// A fixed Chung–Lu power-law graph (γ = 2.3) over `0..n`: both
    /// endpoints of each of `m` draws come from the weight distribution
    /// `∝ (i+1)^(−1/(γ−1))`; self-loops are dropped.
    fn chung_lu(n: usize, m: usize) -> Vec<(Val, Val)> {
        let mut seed = 0x0c4e_6c75u64;
        let mut unit = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let cumulative: Vec<f64> = (0..n)
            .scan(0.0, |acc, i| {
                *acc += ((i + 1) as f64).powf(-1.0 / 1.3);
                Some(*acc)
            })
            .collect();
        let total = cumulative[n - 1];
        let mut vertex = move || cumulative.partition_point(|&c| c < unit() * total) as Val;
        (0..m)
            .map(|_| (vertex(), vertex()))
            .filter(|(u, v)| u != v)
            .collect()
    }

    #[test]
    fn small_graph_triangles() {
        let (db, r, s, t) = triangle_db(&[(1, 2), (2, 3), (1, 3), (3, 4), (2, 4)]);
        let res = triangle_join(&db, r, s, t).unwrap();
        let mut got = res.tuples.clone();
        got.sort();
        assert_eq!(got, vec![vec![1, 2, 3], vec![2, 3, 4]]);
    }

    #[test]
    fn no_triangles_bipartite() {
        // Bipartite graphs have no directed (a<b<c) triangles.
        let edges: Vec<(Val, Val)> = (0..10).map(|i| (i, i + 10)).collect();
        let (db, r, s, t) = triangle_db(&edges);
        let res = triangle_join(&db, r, s, t).unwrap();
        assert!(res.tuples.is_empty());
    }

    #[test]
    fn agrees_with_generic_and_naive_on_random_graphs() {
        let mut seed = 0xfeedface2468u64;
        let mut rng = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for _ in 0..15 {
            let edges: Vec<(Val, Val)> = (0..rng(40) + 5)
                .map(|_| (rng(12) as Val, rng(12) as Val))
                .collect();
            let (db, r, s, t) = triangle_db(&edges);
            let mut fast = triangle_join(&db, r, s, t).unwrap().tuples;
            fast.sort();
            let q = triangle_query(r, s, t);
            let mut generic = minesweeper_join(&db, &q, ProbeMode::General)
                .unwrap()
                .tuples;
            generic.sort();
            let brute = naive_join(&db, &q).unwrap();
            assert_eq!(fast, brute);
            assert_eq!(generic, brute);
        }
    }

    #[test]
    fn dyadic_arm_is_confined_by_shards_seeds_and_caps() {
        let (db, r, s, t) = triangle_db(&chung_lu(300, 2_000));
        let whole = triangle_join(&db, r, s, t).unwrap().tuples;
        assert!(whole.len() > 20, "the graph must have triangles to split");
        let query = triangle_query(r, s, t);
        let ctx = ProbeCtx {
            db: &db,
            query: &query,
            cds: CdsChoice::Triangle {
                b_domain: b_domain_bound(db.relation(r), db.relation(s)),
            },
            inv: None,
        };
        let open =
            |spec, seeds: &[(usize, Val)], cap| ShardProbe::open(&ctx, spec, seeds, cap, None);
        let all =
            |mut p: ShardProbe<'_>| -> Vec<Tuple> { std::iter::from_fn(|| p.next()).collect() };

        // Shards: an equi-depth split of A, and a nested split of the
        // heaviest A value on B, each concatenated in spec order.
        let rel = db.relation(r);
        let weights = rel.first_level_tuple_counts();
        let equi_depth: Vec<ShardSpec> = equi_depth_shards(rel.first_column(), &weights, 6)
            .into_iter()
            .map(ShardSpec::plain)
            .collect();
        let heavy = (0..weights.len()).max_by_key(|&i| weights[i]).unwrap();
        let v = rel.first_column()[heavy];
        let (child_vals, child_weights) = second_level_profile(rel, v);
        let slices = nested_shards(ShardBounds { lo: v, hi: v }, &child_vals, &child_weights, 4);
        assert!(slices.len() > 1 && slices.iter().all(|s| s.is_nested()));
        let nested: Vec<ShardSpec> = std::iter::once(ShardSpec::plain(ShardBounds {
            lo: NEG_INF,
            hi: v - 1,
        }))
        .chain(slices)
        .chain(std::iter::once(ShardSpec::plain(ShardBounds {
            lo: v + 1,
            hi: POS_INF,
        })))
        .collect();
        for specs in [equi_depth, nested] {
            assert!(specs.len() > 1);
            let joined: Vec<Tuple> = specs
                .iter()
                .flat_map(|&spec| all(open(spec, &[], usize::MAX)))
                .collect();
            assert_eq!(joined, whole, "specs {specs:?}");
        }

        // Seeds: pinning one attribute yields exactly the tuples holding
        // that value there — `⟨⟩`, `⟨*⟩` and `⟨*,*⟩` seed shapes alike.
        let pivot = whole[whole.len() / 2].clone();
        for (k, &val) in pivot.iter().enumerate() {
            let want: Vec<Tuple> = whole.iter().filter(|u| u[k] == val).cloned().collect();
            assert_eq!(
                all(open(ShardSpec::unbounded(), &[(k, val)], usize::MAX)),
                want
            );
        }

        // Caps: the first k tuples, one evidence tuple, counters frozen at
        // the cap.
        let k = whole.len() / 3;
        let mut capped = open(ShardSpec::unbounded(), &[], k);
        let prefix: Vec<Tuple> = std::iter::from_fn(|| capped.next()).collect();
        assert_eq!(prefix, whole[..k]);
        let at_cap = capped.stats();
        assert_eq!(at_cap.outputs, k as u64);
        assert_eq!(capped.evidence().as_ref(), Some(&whole[k]));
        assert_eq!(capped.evidence(), None, "the evidence is one-shot");
        assert_eq!(capped.stats(), at_cap);
        assert!(!capped.into_shard_stats().completed);
    }

    #[test]
    fn distinct_relations_per_atom() {
        let mut db = Database::new();
        let r = db.add(builder::binary("R", [(0, 1), (2, 3)])).unwrap();
        let s = db.add(builder::binary("S", [(1, 5), (3, 6)])).unwrap();
        let t = db.add(builder::binary("T", [(0, 5), (2, 7)])).unwrap();
        let res = triangle_join(&db, r, s, t).unwrap();
        assert_eq!(res.tuples, vec![vec![0, 1, 5]]);
    }

    #[test]
    fn rejects_non_binary_relations() {
        let mut db = Database::new();
        let u = db.add(builder::unary("U", [1])).unwrap();
        let s = db.add(builder::binary("S", [(1, 2)])).unwrap();
        let t = db.add(builder::binary("T", [(1, 2)])).unwrap();
        assert!(triangle_join(&db, u, s, t).is_err());
    }

    #[test]
    fn empty_edge_set() {
        let (db, r, s, t) = triangle_db(&[]);
        let res = triangle_join(&db, r, s, t).unwrap();
        assert!(res.tuples.is_empty());
        assert!(res.stats.probe_points <= 2);
    }
}
