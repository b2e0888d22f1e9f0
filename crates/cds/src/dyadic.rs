//! The dyadic interval tree of Appendix L.1.1.
//!
//! Let the `B` domain be `[0, 2^d)`. Tree nodes are indexed by
//! `(level, idx)` with `level ∈ 0..=d` and `idx ∈ [0, 2^level)`; node
//! `(ℓ, i)` represents the dyadic `B`-range
//! `[i·2^{d−ℓ}, (i+1)·2^{d−ℓ})`, the root `(0, 0)` covering everything and
//! leaves `(d, b)` covering single values. Every node carries an interval
//! set over the `C` domain (`I(˚, x)` in the paper's notation), maintained
//! under the invariant (7):
//!
//! ```text
//!     I(˚, x) = I(˚, x·0) ∩ I(˚, x·1)
//! ```
//!
//! i.e. a `C` value is covered at an internal node iff it is covered for
//! *every* leaf below — which is what lets the triangle `getProbePoint`
//! prune whole `B`-subtrees in one `Next` call. Insertions happen at
//! leaves (constraints `⟨˚, b, (c₁, c₂)⟩`) and propagate upward lazily:
//! only the *newly covered* pieces are intersected with the sibling's
//! coverage, so the total propagation work is amortized against insertions
//! (Proposition L.1).

use std::collections::BTreeMap;

use crate::interval::IntervalSet;
use crate::Val;

/// A node address: `(level, idx)`.
pub type DyadicNode = (u32, i64);

/// The dyadic tree over `B`-domain `[0, 2^bits)` with `C`-interval sets at
/// every node (lazily allocated).
#[derive(Debug, Clone)]
pub struct DyadicIntervalTree {
    bits: u32,
    nodes: BTreeMap<DyadicNode, IntervalSet>,
}

impl DyadicIntervalTree {
    /// Creates a tree whose leaves are `0..2^bits`.
    pub fn new(bits: u32) -> Self {
        assert!(bits <= 40, "dyadic domain limited to 2^40");
        DyadicIntervalTree {
            bits,
            nodes: BTreeMap::new(),
        }
    }

    /// Smallest tree covering values `0..domain_size`.
    pub fn for_domain(domain_size: Val) -> Self {
        let mut bits = 0u32;
        while (1i64 << bits) < domain_size.max(1) {
            bits += 1;
        }
        Self::new(bits)
    }

    /// `d`: the number of levels below the root.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of leaves, `2^d`.
    pub fn domain_size(&self) -> Val {
        1i64 << self.bits
    }

    /// The `B`-range `[lo, hi]` (closed) represented by a node.
    pub fn range_of(&self, node: DyadicNode) -> (Val, Val) {
        let (level, idx) = node;
        assert!(level <= self.bits && idx >= 0 && idx < (1i64 << level));
        let size = 1i64 << (self.bits - level);
        (idx * size, (idx + 1) * size - 1)
    }

    /// The leaf of value `b`.
    pub fn leaf_of(&self, b: Val) -> DyadicNode {
        assert!((0..self.domain_size()).contains(&b), "b={b} outside domain");
        (self.bits, b)
    }

    /// The root-to-leaf path of `b`: `(0, 0), (1, _), …, (bits, b)`.
    pub fn path_to(&self, b: Val) -> impl Iterator<Item = DyadicNode> + '_ {
        assert!((0..self.domain_size()).contains(&b), "b={b} outside domain");
        (0..=self.bits).map(move |level| (level, b >> (self.bits - level)))
    }

    /// The `C`-interval set at a node, if allocated.
    pub fn set(&self, node: DyadicNode) -> Option<&IntervalSet> {
        self.nodes.get(&node)
    }

    /// Inserts the closed `C`-range `[lo, hi]` at leaf `b` and propagates
    /// newly covered pieces upward, maintaining invariant (7). Returns the
    /// number of `IntervalSet` insertions performed (diagnostics for the
    /// amortization claim of Proposition L.1).
    pub fn insert_leaf_closed(&mut self, b: Val, lo: Val, hi: Val) -> usize {
        if lo > hi {
            return 0;
        }
        let leaf = self.leaf_of(b);
        let mut ops = 1usize;
        let mut newly = self
            .nodes
            .entry(leaf)
            .or_default()
            .insert_closed_returning_new(lo, hi);
        let (mut level, mut idx) = leaf;
        while level > 0 && !newly.is_empty() {
            let sibling = (level, idx ^ 1);
            // Pieces covered at BOTH children propagate to the parent.
            let mut up: Vec<(Val, Val)> = Vec::new();
            if let Some(sib) = self.nodes.get(&sibling) {
                for &(plo, phi) in &newly {
                    up.extend(sib.covered_within(plo, phi));
                }
            }
            if up.is_empty() {
                break;
            }
            level -= 1;
            idx >>= 1;
            let parent = self.nodes.entry((level, idx)).or_default();
            let mut parent_new = Vec::new();
            for (plo, phi) in up {
                ops += 1;
                parent_new.extend(parent.insert_closed_returning_new(plo, phi));
            }
            newly = parent_new;
        }
        ops
    }

    /// Inserts the *open* `C`-interval `(l, r)` at leaf `b` (paper syntax).
    pub fn insert_leaf_open(&mut self, b: Val, l: Val, r: Val) -> usize {
        let lo = l.saturating_add(1);
        let hi = r.saturating_sub(1);
        if lo > hi {
            0
        } else {
            self.insert_leaf_closed(b, lo, hi)
        }
    }

    /// Number of allocated nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DyadicIntervalTree {
        /// Verifies invariant (7) at every allocated internal node over the
        /// given `C`-window (test helper; cost is linear in tree size ×
        /// window).
        fn check_invariant(&self, c_lo: Val, c_hi: Val) -> bool {
            for (&(level, idx), set) in &self.nodes {
                if level == self.bits {
                    continue;
                }
                let l = self.nodes.get(&(level + 1, idx * 2));
                let r = self.nodes.get(&(level + 1, idx * 2 + 1));
                for c in c_lo..=c_hi {
                    let both = l.is_some_and(|s| s.covers(c)) && r.is_some_and(|s| s.covers(c));
                    if set.covers(c) != both {
                        return false;
                    }
                }
            }
            // Also: unallocated internal nodes must genuinely cover nothing,
            // i.e. no pair of allocated children may jointly cover a value.
            for (&(level, idx), set) in &self.nodes {
                if level == 0 || set.is_empty() {
                    continue;
                }
                let parent = (level - 1, idx >> 1);
                if self.nodes.contains_key(&parent) {
                    continue;
                }
                let sib = self.nodes.get(&(level, idx ^ 1));
                for c in c_lo..=c_hi {
                    if set.covers(c) && sib.is_some_and(|s| s.covers(c)) {
                        return false;
                    }
                }
            }
            true
        }
    }

    #[test]
    fn geometry() {
        let t = DyadicIntervalTree::new(3);
        assert_eq!(t.domain_size(), 8);
        assert_eq!(t.range_of((0, 0)), (0, 7));
        assert_eq!(t.range_of((1, 1)), (4, 7));
        assert_eq!(t.range_of((3, 5)), (5, 5));
        let path: Vec<_> = t.path_to(5).collect();
        assert_eq!(path, vec![(0, 0), (1, 1), (2, 2), (3, 5)]);
        assert_eq!(t.leaf_of(5), (3, 5));
    }

    #[test]
    fn for_domain_rounds_up() {
        assert_eq!(DyadicIntervalTree::for_domain(1).bits(), 0);
        assert_eq!(DyadicIntervalTree::for_domain(2).bits(), 1);
        assert_eq!(DyadicIntervalTree::for_domain(5).bits(), 3);
        assert_eq!(DyadicIntervalTree::for_domain(8).bits(), 3);
        assert_eq!(DyadicIntervalTree::for_domain(9).bits(), 4);
    }

    #[test]
    fn propagation_to_parent_requires_both_children() {
        let mut t = DyadicIntervalTree::new(2); // leaves 0..4
        t.insert_leaf_closed(0, 10, 20);
        // Parent (1,0) has no coverage yet — sibling leaf 1 is empty.
        assert!(t.set((1, 0)).is_none() || t.set((1, 0)).unwrap().is_empty());
        t.insert_leaf_closed(1, 15, 25);
        // Now [15,20] is covered at both leaves → parent gets [15,20].
        let p = t.set((1, 0)).unwrap();
        assert!(p.covers(15) && p.covers(20));
        assert!(!p.covers(14) && !p.covers(21));
        // Root still empty (right half uncovered).
        assert!(t.set((0, 0)).is_none() || t.set((0, 0)).unwrap().is_empty());
        assert!(t.check_invariant(0, 40));
    }

    #[test]
    fn full_cover_reaches_root() {
        let mut t = DyadicIntervalTree::new(2);
        for b in 0..4 {
            t.insert_leaf_closed(b, 5, 9);
        }
        let root = t.set((0, 0)).unwrap();
        assert_eq!(root.covered_within(5, 9), vec![(5, 9)]);
        assert_eq!(root.next(5), 10);
        assert_eq!(root.next(4), 4);
        assert!(t.check_invariant(0, 20));
    }

    #[test]
    fn open_insert_translates() {
        let mut t = DyadicIntervalTree::new(1);
        assert_eq!(t.insert_leaf_open(0, 5, 6), 0, "(5,6) is empty");
        t.insert_leaf_open(0, 5, 8); // covers {6,7}
        assert!(t.set((1, 0)).unwrap().covers(6));
        assert!(!t.set((1, 0)).unwrap().covers(5));
    }

    #[test]
    fn randomized_invariant_check() {
        let mut seed = 0xdeadbeefcafeu64;
        let mut rng = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        let mut t = DyadicIntervalTree::new(3);
        for _ in 0..120 {
            let b = rng(8) as Val;
            let lo = rng(24) as Val;
            let hi = lo + rng(6) as Val;
            t.insert_leaf_closed(b, lo, hi);
            assert!(t.check_invariant(0, 32));
        }
        // Cross-check root coverage against the intersection of all leaves.
        for c in 0..32 {
            let all = (0..8).all(|b| t.set((3, b)).is_some_and(|s| s.covers(c)));
            let root = t.set((0, 0)).is_some_and(|s| s.covers(c));
            assert_eq!(root, all, "c={c}");
        }
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn leaf_out_of_domain_panics() {
        DyadicIntervalTree::new(2).leaf_of(4);
    }
}
