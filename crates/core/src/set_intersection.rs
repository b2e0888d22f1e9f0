//! Minesweeper specialized to set intersection (Appendix H, Algorithm 8).
//!
//! `Q∩ = S₁(A) ⋈ … ⋈ S_m(A)`. The CDS degenerates to a single interval
//! set; each iteration probes the current active value in every set,
//! outputs it when all agree, and otherwise inserts the discovered gaps
//! `(S_i[x^ℓ_i], S_i[x^h_i])`. Theorem H.4: the run takes
//! `O((|C| + Z)·m·log N)` — near instance optimality for intersection,
//! matching Demaine–López-Ortiz–Munro-style adaptive intersection
//! (Section 6.2).

use minesweeper_cds::{IntervalSet, POS_INF, PROBE_START};
use minesweeper_storage::{ExecStats, TrieRelation};

use crate::minesweeper::JoinResult;

/// Intersects `m ≥ 1` unary relations (Algorithm 8).
///
/// Panics if any relation is not unary.
///
/// ```
/// use minesweeper_core::set_intersection;
/// use minesweeper_storage::builder::unary;
/// let a = unary("A", [1, 3, 5]);
/// let b = unary("B", [3, 4, 5]);
/// let res = set_intersection(&[&a, &b]);
/// assert_eq!(res.tuples, vec![vec![3], vec![5]]);
/// ```
pub fn set_intersection(sets: &[&TrieRelation]) -> JoinResult {
    assert!(!sets.is_empty(), "need at least one set");
    assert!(
        sets.iter().all(|s| s.arity() == 1),
        "set intersection expects unary relations"
    );
    let mut stats = ExecStats::new();
    let mut cds = IntervalSet::new();
    let mut tuples = Vec::new();
    loop {
        stats.cds_next_calls += 1;
        let t = cds.next(PROBE_START);
        if t == POS_INF {
            break;
        }
        stats.probe_points += 1;
        let mut all_exact = true;
        let mut changed = false;
        for s in sets {
            let gap = s.find_gap(s.root(), t, &mut stats);
            if !gap.exact() {
                all_exact = false;
                // Gap (S[x^ℓ], S[x^h]) — insert as an exclusion interval.
                stats.constraints_inserted += 1;
                changed |= cds.insert_open(gap.lo_val, gap.hi_val);
            }
        }
        if all_exact {
            stats.outputs += 1;
            tuples.push(vec![t]);
            stats.constraints_inserted += 1;
            cds.insert_open(t - 1, t + 1);
        } else {
            debug_assert!(changed, "a non-output probe must be ruled out");
        }
    }
    JoinResult { tuples, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minesweeper_storage::builder::unary;
    use minesweeper_storage::Val;

    fn vals(r: &JoinResult) -> Vec<Val> {
        r.tuples.iter().map(|t| t[0]).collect()
    }

    #[test]
    fn basic_intersection() {
        let a = unary("A", [1, 3, 5, 7, 9]);
        let b = unary("B", [3, 4, 7, 10]);
        let c = unary("C", [0, 3, 7, 11]);
        let res = set_intersection(&[&a, &b, &c]);
        assert_eq!(vals(&res), vec![3, 7]);
        assert_eq!(res.stats.outputs, 2);
    }

    #[test]
    fn single_set_streams_through() {
        let a = unary("A", [2, 4, 6]);
        let res = set_intersection(&[&a]);
        assert_eq!(vals(&res), vec![2, 4, 6]);
    }

    #[test]
    fn disjoint_ranges_constant_certificate() {
        // A ends before B begins: one gap kills everything; probes must be
        // O(1) even though both sets are large.
        let n: Val = 2000;
        let a = unary("A", 0..n);
        let b = unary("B", n..2 * n);
        let res = set_intersection(&[&a, &b]);
        assert!(res.tuples.is_empty());
        assert!(
            res.stats.probe_points <= 3,
            "probes = {}",
            res.stats.probe_points
        );
        assert!(res.stats.find_gap_calls <= 6);
    }

    #[test]
    fn interleaved_needs_linear_work() {
        // Evens vs odds: the optimal certificate is Θ(N); the algorithm
        // stays within a constant factor of it.
        let n: Val = 300;
        let a = unary("A", (0..n).map(|i| 2 * i));
        let b = unary("B", (0..n).map(|i| 2 * i + 1));
        let res = set_intersection(&[&a, &b]);
        assert!(res.tuples.is_empty());
        assert!(res.stats.probe_points as i64 <= 2 * n + 4);
    }

    #[test]
    fn empty_input_set() {
        let a = unary("A", []);
        let b = unary("B", [1, 2]);
        let res = set_intersection(&[&a, &b]);
        assert!(res.tuples.is_empty());
        assert_eq!(res.stats.probe_points, 1);
    }

    #[test]
    fn identical_sets_output_everything() {
        let a = unary("A", [5, 10, 15]);
        let b = unary("B", [5, 10, 15]);
        let res = set_intersection(&[&a, &b]);
        assert_eq!(vals(&res), vec![5, 10, 15]);
        // One gap probe between consecutive outputs: probes = 2Z + O(1).
        assert!(res.stats.probe_points <= 8);
    }

    #[test]
    #[should_panic(expected = "unary")]
    fn non_unary_rejected() {
        let b = minesweeper_storage::builder::binary("B", [(1, 2)]);
        set_intersection(&[&b]);
    }
}
