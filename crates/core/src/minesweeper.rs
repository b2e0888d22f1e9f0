//! The Minesweeper outer algorithm (Algorithm 2, Section 3.4).
//!
//! Each iteration takes an active tuple `t` from the CDS and *explores
//! around `t`* in every relation: at atom depth `p`, for every vector
//! `v ∈ {ℓ, h}^p` of low/high branch choices whose index prefix is in
//! range, a `FindGap` at coordinate `t_{s(p+1)}` yields the bracketing pair
//! `(i^{(v,ℓ)}, i^{(v,h)})`. If the all-exact path matches `t`'s projection
//! in every relation, `t` is an output and only the point exclusion
//! `⟨t₁, …, t_{n−1}, (t_n − 1, t_n + 1)⟩` is inserted; otherwise every
//! discovered non-empty gap becomes a constraint
//! `⟨R[i^{(v₁)}], …, R[i^{(v)}], (R[i^{(v,ℓ)}], R[i^{(v,h)}])⟩` with the
//! equality components placed at the atom's GAO positions and wildcards
//! elsewhere (Theorem 3.2 charges each iteration to a certificate
//! comparison or an output tuple). Exploring under *both* bracketing
//! children is exactly what Algorithm 9 does for the bow-tie (Appendix
//! I.3): it finds certificates the lexicographic neighbour alone misses.
//!
//! The probe loop itself lives in [`crate::stream`] as a resumable state
//! machine; [`minesweeper_join`] is the drain-everything wrapper around
//! it. Two deviations from the pseudocode: branches whose bracketing
//! coordinate is out of range are skipped (their index tuples are
//! undefined), and the `ℓ`/`h` branches are deduplicated on exact hits —
//! the duplicate `FindGap` calls would return identical constraints.

use minesweeper_cds::ProbeMode;
use minesweeper_storage::{Database, ExecStats, ShardSpec, Tuple};

use crate::query::{Query, QueryError};
use crate::stream::{CdsChoice, ProbeCtx, ShardProbe};

/// Output tuples plus execution statistics.
#[derive(Debug, Clone)]
pub struct JoinResult {
    /// Output tuples in probe order (lexicographic over the GAO).
    pub tuples: Vec<Tuple>,
    /// Counters: `find_gap_calls` is the paper's empirical `|C|` measure.
    pub stats: ExecStats,
}

/// Runs Minesweeper on `query` over `db` with the given probe mode,
/// materializing the whole output.
///
/// Use [`ProbeMode::Chain`] when the GAO is a nested elimination order
/// (β-acyclic queries, Theorem 2.7) and [`ProbeMode::General`] otherwise
/// (Theorem 5.1); [`crate::choose_gao`] picks this automatically — or use
/// [`crate::plan()`] / [`crate::PreparedExec::open`] for the planned,
/// lazily streaming form of the same loop.
///
/// ```
/// use minesweeper_cds::ProbeMode;
/// use minesweeper_core::{minesweeper_join, Query};
/// use minesweeper_storage::{builder, Database};
///
/// let mut db = Database::new();
/// let r = db.add(builder::binary("R", [(1, 2), (4, 5)])).unwrap();
/// let s = db.add(builder::binary("S", [(2, 9), (5, 8)])).unwrap();
/// let q = Query::new(3).atom(r, &[0, 1]).atom(s, &[1, 2]);
/// let res = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap();
/// assert_eq!(res.tuples, vec![vec![1, 2, 9], vec![4, 5, 8]]);
/// ```
pub fn minesweeper_join(
    db: &Database,
    query: &Query,
    mode: ProbeMode,
) -> Result<JoinResult, QueryError> {
    query.validate(db)?;
    Ok(drain(&ProbeCtx {
        db,
        query,
        cds: CdsChoice::Tree(mode),
        inv: None,
    }))
}

/// Runs one unconfined probe loop to exhaustion.
pub(crate) fn drain(ctx: &ProbeCtx<'_>) -> JoinResult {
    let mut probe = ShardProbe::open(ctx, ShardSpec::unbounded(), &[], usize::MAX, None);
    let tuples: Vec<Tuple> = std::iter::from_fn(|| probe.next()).collect();
    JoinResult {
        tuples,
        stats: probe.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minesweeper_storage::{builder, RelationBuilder, Val};

    fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
        v.sort();
        v
    }

    /// Appendix D.1's query Q₂: R(A₁) ⋈ S(A₁,A₂) ⋈ T(A₂,A₃) ⋈ U(A₃) with
    /// an empty output.
    #[test]
    fn worked_example_d1_empty_output() {
        let n: Val = 6;
        let mut db = Database::new();
        let r = db.add(builder::unary("R", 1..=n)).unwrap();
        let mut sb = RelationBuilder::new("S", 2);
        for a in 1..=n {
            for b in 1..=n {
                sb.push(&[a, b]);
            }
        }
        let s = db.add(sb.build().unwrap()).unwrap();
        let t = db.add(builder::binary("T", [(2, 2), (2, 4)])).unwrap();
        let u = db.add(builder::unary("U", [1, 3])).unwrap();
        let q = Query::new(3)
            .atom(r, &[0])
            .atom(s, &[0, 1])
            .atom(t, &[1, 2])
            .atom(u, &[2]);
        // GAO (A₁, A₂, A₃) is a nested elimination order for this path
        // query.
        let h = q.hypergraph();
        assert!(minesweeper_hypergraph::is_nested_elimination_order(
            &h,
            &[0, 1, 2]
        ));
        let res = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap();
        assert!(res.tuples.is_empty());
        // The run must not visit all N² S-pairs: certificate here is O(1).
        assert!(
            res.stats.probe_points < 20,
            "too many probes: {}",
            res.stats.probe_points
        );
    }

    #[test]
    fn two_way_unary_join() {
        let mut db = Database::new();
        let r = db.add(builder::unary("R", [1, 3, 5, 7])).unwrap();
        let s = db.add(builder::unary("S", [3, 4, 7, 9])).unwrap();
        let q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
        let res = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap();
        assert_eq!(sorted(res.tuples), vec![vec![3], vec![7]]);
        assert_eq!(res.stats.outputs, 2);
    }

    #[test]
    fn binary_join_matches_naive() {
        let mut db = Database::new();
        let r = db
            .add(builder::binary("R", [(1, 2), (1, 5), (2, 4), (3, 1)]))
            .unwrap();
        let s = db
            .add(builder::binary("S", [(2, 7), (4, 1), (4, 9), (5, 5)]))
            .unwrap();
        // R(A,B) ⋈ S(B,C).
        let q = Query::new(3).atom(r, &[0, 1]).atom(s, &[1, 2]);
        let res = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap();
        let expect = vec![vec![1, 2, 7], vec![1, 5, 5], vec![2, 4, 1], vec![2, 4, 9]];
        assert_eq!(sorted(res.tuples), expect);
    }

    #[test]
    fn empty_relation_gives_empty_output_quickly() {
        let mut db = Database::new();
        let r = db.add(builder::unary("R", [])).unwrap();
        let s = db.add(builder::unary("S", 0..1000)).unwrap();
        let q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
        let res = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap();
        assert!(res.tuples.is_empty());
        assert!(res.stats.probe_points <= 2, "constant-certificate instance");
    }

    #[test]
    fn example_b1_constant_certificate() {
        // R = [N], S = {(N+1, i+N)}: the single comparison R[N] < S[1]
        // certifies emptiness; Minesweeper must finish in O(1) probes.
        let n: Val = 500;
        let mut db = Database::new();
        let r = db.add(builder::unary("R", 1..=n)).unwrap();
        let s = db
            .add(builder::binary("S", (1..=n).map(|i| (n + 1, i + n))))
            .unwrap();
        let q = Query::new(2).atom(r, &[0]).atom(s, &[0, 1]);
        let res = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap();
        assert!(res.tuples.is_empty());
        assert!(res.stats.find_gap_calls < 12);
        assert!(res.stats.probe_points < 5);
    }

    #[test]
    fn example_b2_output_larger_than_certificate() {
        // R = [N], S = {(N, 10i)}: certificate is O(1) but Z = N.
        let n: Val = 64;
        let mut db = Database::new();
        let r = db.add(builder::unary("R", 1..=n)).unwrap();
        let s = db
            .add(builder::binary("S", (1..=n).map(|i| (n, 10 * i))))
            .unwrap();
        let q = Query::new(2).atom(r, &[0]).atom(s, &[0, 1]);
        let res = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap();
        assert_eq!(res.tuples.len(), n as usize);
        assert!(res.tuples.iter().all(|t| t[0] == n));
        // Probes ≈ 2Z + O(1) (one gap probe between consecutive outputs),
        // never N·Z.
        assert!(res.stats.probe_points <= 2 * n as u64 + 8);
    }

    #[test]
    fn self_join_same_relation_twice() {
        let mut db = Database::new();
        let e = db
            .add(builder::binary("E", [(1, 2), (2, 3), (3, 1), (2, 1)]))
            .unwrap();
        // Path of length 2 over the same edge relation: E(A,B) ⋈ E(B,C).
        let q = Query::new(3).atom(e, &[0, 1]).atom(e, &[1, 2]);
        let res = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap();
        let expect = vec![
            vec![1, 2, 1],
            vec![1, 2, 3],
            vec![2, 1, 2],
            vec![2, 3, 1],
            vec![3, 1, 2],
        ];
        assert_eq!(sorted(res.tuples), expect);
    }

    #[test]
    fn general_mode_on_triangle_query() {
        let mut db = Database::new();
        let edges = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)];
        let r = db.add(builder::binary("R", edges)).unwrap();
        let s = db.add(builder::binary("S", edges)).unwrap();
        let t = db.add(builder::binary("T", edges)).unwrap();
        // Q∆ = R(A,B) ⋈ S(B,C) ⋈ T(A,C): triangles (1,2,3), (2,3,4).
        let q = Query::new(3)
            .atom(r, &[0, 1])
            .atom(s, &[1, 2])
            .atom(t, &[0, 2]);
        let res = minesweeper_join(&db, &q, ProbeMode::General).unwrap();
        assert_eq!(sorted(res.tuples), vec![vec![1, 2, 3], vec![2, 3, 4]]);
    }
}
