//! Domain sharding for parallel execution.
//!
//! The Minesweeper probe loop is independent across disjoint intervals of
//! the *first* GAO attribute: constraints discovered while probing inside
//! one interval never exclude points of another, so each interval can be
//! swept by its own probe loop with its own constraint store. This module
//! provides the value-domain partitioning that makes those intervals: an
//! **equi-depth** split of `(−∞, +∞)` into at most `k` contiguous
//! [`ShardBounds`], weighted by how many tuples of the primary relation
//! fall under each distinct first-column value
//! ([`crate::TrieRelation::first_level_tuple_counts`]).
//!
//! Skew is handled in two stages. First, [`equi_depth_shards`] **isolates
//! heavy values**: a value whose weight alone reaches twice the ideal
//! per-shard depth is cut out into its own single-value interval, so the
//! light remainder still splits evenly around it. Second, a single-value
//! interval is the unit a caller can split *again* on the **second** GAO
//! attribute — a [`ShardSpec`] pairs the first-attribute interval with an
//! optional second-attribute interval, which is how one giant duplicate
//! run (every tuple sharing one first value) still becomes many parallel
//! tasks instead of a serial fallback. A shard is never emitted empty:
//! when the data cannot feed `k` shards, fewer come back, down to a
//! single unbounded shard.
//!
//! Both stages emit their intervals in ascending order, and the slices
//! they describe are disjoint in the plane of the first two GAO
//! coordinates. So a caller that concatenates per-shard outputs in the
//! order the shards were produced gets the serial GAO-lexicographic
//! stream, with no comparison key and no merge.

use crate::backend::TrieStorage;
use crate::trie::NodeId;
use crate::value::{Val, NEG_INF, POS_INF};

/// One contiguous, inclusive interval `[lo, hi]` of the first GAO
/// attribute's domain (`lo = −∞` / `hi = +∞` at the outer shards). Shards
/// returned by [`equi_depth_shards`] are disjoint, sorted, and cover the
/// whole domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardBounds {
    /// Inclusive lower endpoint ([`NEG_INF`] for the first shard).
    pub lo: Val,
    /// Inclusive upper endpoint ([`POS_INF`] for the last shard).
    pub hi: Val,
}

impl ShardBounds {
    /// The single shard covering the entire domain.
    pub fn unbounded() -> Self {
        ShardBounds {
            lo: NEG_INF,
            hi: POS_INF,
        }
    }

    /// True when the shard covers the entire domain (serial execution).
    pub fn is_unbounded(&self) -> bool {
        self.lo == NEG_INF && self.hi == POS_INF
    }

    /// True when `v` lies inside the (inclusive) interval.
    pub fn contains(&self, v: Val) -> bool {
        self.lo <= v && v <= self.hi
    }
}

impl std::fmt::Display for ShardBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}, {}]",
            crate::value::fmt_val(self.lo),
            crate::value::fmt_val(self.hi)
        )
    }
}

/// One parallel probe-loop task: an interval of the first GAO attribute
/// plus, for **nested** shards, an interval of the *second* GAO attribute.
///
/// A nested shard's first interval always contains exactly one value of
/// the primary relation's first column: it is one slice of a heavy
/// duplicate run that a plain first-attribute split could not divide
/// (the second-attribute interval does the dividing). Ordering specs by
/// `(bounds, second)` is ordering the output space lexicographically, so
/// concatenating per-spec outputs in spec order reproduces the serial
/// GAO-lexicographic stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Interval of the first GAO attribute (single-valued when nested).
    pub bounds: ShardBounds,
    /// Interval of the second GAO attribute; `None` for plain shards.
    pub second: Option<ShardBounds>,
}

impl ShardSpec {
    /// A plain (non-nested) shard over a first-attribute interval.
    pub fn plain(bounds: ShardBounds) -> Self {
        ShardSpec {
            bounds,
            second: None,
        }
    }

    /// The single spec covering the entire output space.
    pub fn unbounded() -> Self {
        ShardSpec::plain(ShardBounds::unbounded())
    }

    /// True when this spec restricts the second GAO attribute as well.
    pub fn is_nested(&self) -> bool {
        self.second.is_some()
    }

    /// True when `(a0, a1)` — the first two GAO coordinates of a tuple —
    /// falls inside this spec's slice of the output space (`a1` is ignored
    /// by plain specs). The parallel consumer asserts it, in debug builds,
    /// for every tuple it takes from a shard.
    pub fn contains(&self, a0: Val, a1: Val) -> bool {
        self.bounds.contains(a0)
            && match self.second {
                None => true,
                Some(b2) => b2.contains(a1),
            }
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.second {
            None => write!(f, "{}", self.bounds),
            Some(b2) => write!(f, "{}×{}", self.bounds, b2),
        }
    }
}

/// Splits the domain into at most `k` equi-depth shards, isolating heavy
/// values.
///
/// `values` are the distinct first-column values of the primary relation
/// (sorted ascending, as [`crate::TrieRelation::first_column`] returns them) and
/// `weights[i]` is the number of tuples under `values[i]`. The split is
/// greedy equi-depth: cut whenever the running weight reaches the next
/// multiple of `total / k`, so every shard holds at least one distinct
/// value and roughly `total / k` tuples. A **heavy** value — one whose
/// weight alone reaches `2 · total / k` — is additionally cut out into an
/// interval of its own, so callers can split it further on the second GAO
/// attribute ([`ShardSpec`]) instead of letting it drag neighbours into an
/// oversized shard. Fewer than `k` shards come back when there are fewer
/// than `k` distinct values or when skew concentrates the weight — never
/// an empty shard, never a panic.
pub fn equi_depth_shards(values: &[Val], weights: &[usize], k: usize) -> Vec<ShardBounds> {
    assert_eq!(values.len(), weights.len(), "one weight per value");
    debug_assert!(values.windows(2).all(|w| w[0] < w[1]), "values sorted");
    let k = k.max(1);
    if k == 1 || values.len() <= 1 {
        return vec![ShardBounds::unbounded()];
    }
    let total: u64 = weights.iter().map(|&w| w as u64).sum();
    if total == 0 {
        return vec![ShardBounds::unbounded()];
    }
    // Heaviness is judged against the *requested* split (the ideal
    // per-shard depth total/k), while the cut budget below is clamped to
    // the distinct-value count — with few distinct values a dominant run
    // must still be isolated so callers can nested-split it.
    let requested = k as u64;
    let heavy = |w: usize| (w as u64) * requested >= 2 * total;
    let k = k.min(values.len()) as u64;
    // Interior cut points: shard j ends before the first value whose
    // cumulative weight crosses j·total/k. Greedy from the left; a heavy
    // value can swallow several targets, which is exactly what funds the
    // two isolation cuts placed around it.
    let mut cuts: Vec<Val> = Vec::with_capacity(k as usize - 1);
    let mut acc: u64 = 0;
    let mut next_target = 1u64;
    for (i, &w) in weights.iter().enumerate() {
        if heavy(w) && i > 0 {
            // Close the light prefix before the heavy value.
            cuts.push(values[i]);
        }
        acc += w as u64;
        // `acc * k >= target * total` ⇔ acc >= target·total/k, exactly.
        while next_target < k && acc * k >= next_target * total {
            next_target += 1;
            if i + 1 < values.len() {
                cuts.push(values[i + 1]);
            }
        }
        if heavy(w) && i + 1 < values.len() {
            // Close the heavy value's own interval after it.
            cuts.push(values[i + 1]);
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    // A heavy value consumes at least two equi-depth targets, so its two
    // isolation cuts are already funded; enforce the ≤ k contract anyway.
    cuts.truncate(k as usize - 1);
    let mut shards = Vec::with_capacity(cuts.len() + 1);
    let mut lo = NEG_INF;
    for &c in &cuts {
        shards.push(ShardBounds { lo, hi: c - 1 });
        lo = c;
    }
    shards.push(ShardBounds { lo, hi: POS_INF });
    shards
}

/// Splits one heavy duplicate run on the **second** attribute: `bounds`
/// is a first-attribute interval containing exactly one primary value,
/// and `child_values` / `child_weights` profile the second attribute
/// inside that run. Returns up to `k` nested [`ShardSpec`]s sharing
/// `bounds`, whose second-attribute intervals partition `(−∞, +∞)` — or
/// a single plain spec when the children cannot feed more than one
/// shard.
pub fn nested_shards(
    bounds: ShardBounds,
    child_values: &[Val],
    child_weights: &[usize],
    k: usize,
) -> Vec<ShardSpec> {
    let sub = equi_depth_shards(child_values, child_weights, k);
    if sub.len() <= 1 {
        return vec![ShardSpec::plain(bounds)];
    }
    sub.into_iter()
        .map(|b2| ShardSpec {
            bounds,
            second: Some(b2),
        })
        .collect()
}

/// The sorted second-level values under the trie node reached by
/// descending `[v]` from the root, paired with their subtree tuple
/// counts — the weight vector [`nested_shards`] consumes. Empty when `v`
/// is not a first-column value or the relation is unary.
pub fn second_level_profile<S: TrieStorage>(rel: &S, v: Val) -> (Vec<Val>, Vec<usize>) {
    if rel.arity() < 2 {
        return (Vec::new(), Vec::new());
    }
    let (node, matched) = rel.descend(&[v]);
    if matched != 1 {
        return (Vec::new(), Vec::new());
    }
    profile_of(rel, node)
}

fn profile_of<S: TrieStorage>(rel: &S, node: NodeId) -> (Vec<Val>, Vec<usize>) {
    (
        rel.child_values(node).to_vec(),
        rel.child_tuple_counts(node),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::TrieRelation;

    fn check_cover(shards: &[ShardBounds]) {
        assert!(!shards.is_empty());
        assert_eq!(shards[0].lo, NEG_INF);
        assert_eq!(shards.last().unwrap().hi, POS_INF);
        for w in shards.windows(2) {
            assert_eq!(w[0].hi + 1, w[1].lo, "contiguous: {} {}", w[0], w[1]);
        }
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let values: Vec<Val> = (0..8).collect();
        let weights = vec![1usize; 8];
        let shards = equi_depth_shards(&values, &weights, 4);
        check_cover(&shards);
        assert_eq!(shards.len(), 4);
        // Each shard holds exactly two of the eight values.
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(values.iter().filter(|&&v| s.contains(v)).count(), 2, "{i}");
        }
    }

    #[test]
    fn skewed_weight_is_isolated_in_its_own_shard() {
        // One value carries 90% of the tuples: it must own a single-value
        // shard so callers can nested-split it, and the split must stay at
        // most k with no empty shard.
        let values: Vec<Val> = vec![1, 2, 3, 4];
        let weights = vec![1usize, 90, 1, 1];
        let shards = equi_depth_shards(&values, &weights, 4);
        check_cover(&shards);
        assert!(shards.len() <= 4);
        let own = shards
            .iter()
            .find(|s| s.contains(2))
            .expect("heavy value covered");
        assert!(own.lo == own.hi, "heavy value must sit alone, got {own}");
        for s in &shards {
            assert!(
                values.iter().any(|&v| s.contains(v)),
                "no shard may be empty of primary values: {s}"
            );
        }
    }

    #[test]
    fn giant_duplicate_run_degrades_to_one_shard() {
        // All tuples share one first value (the duplicate-run skew case):
        // a single unbounded shard, no panic — nesting happens upstream.
        let shards = equi_depth_shards(&[7], &[1_000_000], 8);
        assert_eq!(shards, vec![ShardBounds::unbounded()]);
    }

    #[test]
    fn more_shards_than_values_caps_at_values() {
        let values: Vec<Val> = vec![10, 20, 30];
        let shards = equi_depth_shards(&values, &[5, 5, 5], 64);
        check_cover(&shards);
        assert_eq!(shards.len(), 3);
        for (s, &v) in shards.iter().zip(&values) {
            assert!(s.contains(v));
        }
    }

    #[test]
    fn k_one_and_empty_are_unbounded() {
        assert_eq!(
            equi_depth_shards(&[1, 2, 3], &[1, 1, 1], 1),
            vec![ShardBounds::unbounded()]
        );
        assert_eq!(
            equi_depth_shards(&[], &[], 4),
            vec![ShardBounds::unbounded()]
        );
        assert_eq!(
            equi_depth_shards(&[5], &[0], 3),
            vec![ShardBounds::unbounded()],
            "zero total weight"
        );
    }

    #[test]
    fn heavy_isolation_never_exceeds_k() {
        // Two heavy values still respect the ≤ k contract, and at a k
        // where both are heavy (weight ≥ 2·total/k) each sits alone.
        let values: Vec<Val> = (0..6).collect();
        let weights = vec![100usize, 100, 1, 1, 1, 1];
        for k in 2..=6 {
            let shards = equi_depth_shards(&values, &weights, k);
            check_cover(&shards);
            assert!(shards.len() <= k, "k={k}: {}", shards.len());
        }
        let shards = equi_depth_shards(&values, &weights, 6);
        for heavy in [0, 1] {
            let own = shards.iter().find(|s| s.contains(heavy)).unwrap();
            assert!(
                values
                    .iter()
                    .filter(|&&v| own.contains(v))
                    .all(|&v| v == heavy),
                "heavy value {heavy} shares {own}"
            );
        }
    }

    #[test]
    fn relation_shards_weigh_by_tuple_count() {
        // First value 1 has 4 tuples, values 2 and 3 have 1 each: with two
        // shards the cut must isolate value 1.
        let rel = TrieRelation::from_tuples(
            "R",
            2,
            vec![
                vec![1, 1],
                vec![1, 2],
                vec![1, 3],
                vec![1, 4],
                vec![2, 1],
                vec![3, 1],
            ],
        )
        .unwrap();
        let root = rel.root();
        let shards = equi_depth_shards(rel.child_values(root), &rel.child_tuple_counts(root), 2);
        check_cover(&shards);
        assert_eq!(shards.len(), 2);
        assert!(shards[0].contains(1) && !shards[0].contains(2));
        assert!(shards[1].contains(2) && shards[1].contains(3));
    }

    #[test]
    fn nested_shards_split_a_heavy_run() {
        let run = ShardBounds { lo: 7, hi: 7 };
        let children: Vec<Val> = (0..10).collect();
        let weights = vec![3usize; 10];
        let specs = nested_shards(run, &children, &weights, 4);
        assert_eq!(specs.len(), 4);
        for s in &specs {
            assert_eq!(s.bounds, run);
            assert!(s.is_nested());
        }
        // The second-attribute intervals cover the whole domain.
        let seconds: Vec<ShardBounds> = specs.iter().map(|s| s.second.unwrap()).collect();
        check_cover(&seconds);
        // A run with a single child cannot split: one plain spec.
        let single = nested_shards(run, &[4], &[100], 4);
        assert_eq!(single, vec![ShardSpec::plain(run)]);
    }

    #[test]
    fn second_level_profile_reads_the_subtree() {
        let rel = TrieRelation::from_tuples(
            "R",
            3,
            vec![vec![7, 1, 1], vec![7, 1, 2], vec![7, 4, 1], vec![9, 2, 2]],
        )
        .unwrap();
        let (vals, weights) = second_level_profile(&rel, 7);
        assert_eq!(vals, vec![1, 4]);
        assert_eq!(weights, vec![2, 1]);
        let (vals, weights) = second_level_profile(&rel, 8);
        assert!(vals.is_empty() && weights.is_empty(), "absent value");
        let unary = TrieRelation::from_tuples("U", 1, vec![vec![7]]).unwrap();
        assert!(second_level_profile(&unary, 7).0.is_empty());
    }

    #[test]
    fn spec_display_and_contains() {
        let s = ShardSpec::plain(ShardBounds { lo: 3, hi: 9 });
        assert!(s.contains(3, NEG_INF) && !s.contains(10, 0));
        assert_eq!(s.to_string(), "[3, 9]");
        let n = ShardSpec {
            bounds: ShardBounds { lo: 7, hi: 7 },
            second: Some(ShardBounds { lo: 2, hi: 5 }),
        };
        assert!(n.contains(7, 2) && n.contains(7, 5));
        assert!(!n.contains(7, 6) && !n.contains(6, 3));
        assert_eq!(n.to_string(), "[7, 7]×[2, 5]");
        assert!(ShardSpec::unbounded().contains(0, 0));
    }

    #[test]
    fn bounds_display_and_contains() {
        let s = ShardBounds { lo: 3, hi: 9 };
        assert!(s.contains(3) && s.contains(9) && !s.contains(10));
        assert_eq!(s.to_string(), "[3, 9]");
        assert_eq!(ShardBounds::unbounded().to_string(), "[-inf, +inf]");
    }
}
