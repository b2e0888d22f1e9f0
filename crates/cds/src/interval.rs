//! The `IntervalList` building block (Appendix E.2, Proposition E.3).
//!
//! An [`IntervalSet`] stores a union of integer ranges over `i64`. The
//! paper's intervals are *open* `(l, r)` with `l, r ∈ ℤ ∪ {−∞, +∞}`; over an
//! integer domain the open interval `(l, r)` covers exactly the closed
//! integer range `[l+1, r−1]`, which is how we store them. Overlapping and
//! adjacent ranges are merged eagerly, so the structure always holds
//! pairwise-disjoint, non-adjacent closed ranges — giving `O(log W)`
//! `covers`/`next` and amortized `O(log W)` `insert` (each merge consumes a
//! previously inserted range, Prop E.3).

use std::collections::BTreeMap;

use crate::{Val, NEG_INF, POS_INF};

/// A set of disjoint closed integer ranges, keyed by their low endpoint.
///
/// ```
/// use minesweeper_cds::IntervalSet;
/// let mut s = IntervalSet::new();
/// s.insert_open(2, 7);        // the paper's open gap (2, 7) = {3,…,6}
/// assert!(s.covers(3) && !s.covers(7));
/// assert_eq!(s.next(3), 7);   // smallest uncovered value ≥ 3
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// `lo → hi` with `lo ≤ hi`; ranges pairwise disjoint and separated by
    /// at least one free integer.
    map: BTreeMap<Val, Val>,
}

impl IntervalSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no range is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of maximal ranges currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Iterates the maximal ranges in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = (Val, Val)> + '_ {
        self.map.iter().map(|(&lo, &hi)| (lo, hi))
    }

    /// The paper's `covers(v)`: is `v` inside some stored range?
    pub fn covers(&self, v: Val) -> bool {
        self.map
            .range(..=v)
            .next_back()
            .is_some_and(|(_, &hi)| hi >= v)
    }

    /// The paper's `Next(v)`: the smallest `v' ≥ v` not covered by any
    /// range. Saturates at [`POS_INF`], which callers treat as "no free
    /// value".
    pub fn next(&self, v: Val) -> Val {
        let mut v = v;
        while let Some((_, &hi)) = self.map.range(..=v).next_back() {
            if hi < v {
                break;
            }
            if hi == POS_INF {
                return POS_INF;
            }
            v = hi + 1;
        }
        v
    }

    /// Inserts the *open* interval `(l, r)` (paper syntax). Empty open
    /// intervals — those containing no integer — are ignored and return
    /// `false`. Returns `true` if coverage grew.
    pub fn insert_open(&mut self, l: Val, r: Val) -> bool {
        let lo = if l == NEG_INF {
            NEG_INF.saturating_add(1)
        } else {
            l.saturating_add(1)
        };
        let hi = if r == POS_INF {
            POS_INF.saturating_sub(1)
        } else {
            r.saturating_sub(1)
        };
        if lo > hi {
            return false;
        }
        self.insert_closed(lo, hi)
    }

    /// Inserts the closed range `[lo, hi]`, merging as needed. Returns
    /// `true` if any previously-free integer became covered.
    pub fn insert_closed(&mut self, lo: Val, hi: Val) -> bool {
        !self.insert_closed_returning_new(lo, hi).is_empty()
    }

    /// Inserts `[lo, hi]` and returns the maximal sub-ranges of `[lo, hi]`
    /// that were *not* covered before (the "newly covered" pieces). The
    /// dyadic tree of Appendix L uses these to drive upward propagation.
    pub fn insert_closed_returning_new(&mut self, lo: Val, hi: Val) -> Vec<(Val, Val)> {
        assert!(lo <= hi, "insert_closed requires lo <= hi");
        // Find the merge window: every stored range that overlaps or is
        // adjacent to [lo, hi].
        let mut new_lo = lo;
        let mut new_hi = hi;
        let mut absorbed: Vec<Val> = Vec::new();
        // Scan only the ranges that can touch [lo−1, hi+1]: start from the
        // last range beginning at or before `lo` (it may reach into the
        // window) and stop past `hi+1`.
        let right_probe = if hi == POS_INF { POS_INF } else { hi + 1 };
        let scan_start = self
            .map
            .range(..=lo)
            .next_back()
            .map(|(&s, _)| s)
            .unwrap_or(lo);
        if scan_start <= right_probe {
            for (&s, &e) in self.map.range(scan_start..=right_probe) {
                // Adjacent-or-overlapping: e ≥ lo − 1.
                if e >= lo.saturating_sub(1) {
                    absorbed.push(s);
                    new_lo = new_lo.min(s);
                    new_hi = new_hi.max(e);
                }
            }
        }
        // Compute newly covered pieces of [lo, hi] (complement of old
        // coverage restricted to [lo, hi]).
        let mut newly = Vec::new();
        let mut cursor = lo;
        for &s in &absorbed {
            let e = self.map[&s];
            // Overlap of [s, e] with [lo, hi].
            let os = s.max(lo);
            let oe = e.min(hi);
            if os > oe {
                continue; // merely adjacent, no overlap
            }
            if cursor < os {
                newly.push((cursor, os - 1));
            }
            cursor = cursor.max(oe.saturating_add(1));
            if cursor > hi {
                break;
            }
        }
        if cursor <= hi {
            newly.push((cursor, hi));
        }
        for s in absorbed {
            self.map.remove(&s);
        }
        self.map.insert(new_lo, new_hi);
        newly
    }

    /// Returns the parts of `[lo, hi]` covered by this set, in order. Used
    /// for sibling intersection in the dyadic tree.
    pub fn covered_within(&self, lo: Val, hi: Val) -> Vec<(Val, Val)> {
        assert!(lo <= hi);
        let mut out = Vec::new();
        // Start from the last range with start ≤ lo (it may reach into the
        // window), then walk forward.
        let first = self.map.range(..=lo).next_back().map(|(&s, _)| s);
        let start = first.unwrap_or(lo);
        for (&s, &e) in self.map.range(start..) {
            if s > hi {
                break;
            }
            let os = s.max(lo);
            let oe = e.min(hi);
            if os <= oe {
                out.push((os, oe));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_covers_nothing() {
        let s = IntervalSet::new();
        assert!(!s.covers(0));
        assert_eq!(s.next(-5), -5);
        assert!(s.is_empty());
    }

    #[test]
    fn open_interval_semantics() {
        let mut s = IntervalSet::new();
        // (2, 5) covers {3, 4} only.
        assert!(s.insert_open(2, 5));
        assert!(!s.covers(2));
        assert!(s.covers(3));
        assert!(s.covers(4));
        assert!(!s.covers(5));
        // (5, 6) is empty over the integers.
        assert!(!s.insert_open(5, 6));
        // (5, 5) is empty as well.
        assert!(!s.insert_open(5, 5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn next_skips_over_ranges() {
        let mut s = IntervalSet::new();
        s.insert_closed(3, 4);
        s.insert_closed(6, 9);
        assert_eq!(s.next(0), 0);
        assert_eq!(s.next(3), 5);
        assert_eq!(s.next(5), 5);
        assert_eq!(s.next(6), 10);
        // Chained ranges are crossed in one call.
        s.insert_closed(5, 5);
        assert_eq!(s.next(3), 10);
        assert_eq!(s.len(), 1, "adjacent ranges merged");
    }

    #[test]
    fn infinities() {
        let mut s = IntervalSet::new();
        // (−∞, 3): covers everything below 3.
        s.insert_open(NEG_INF, 3);
        assert!(s.covers(NEG_INF + 1));
        assert!(s.covers(2));
        assert!(!s.covers(3));
        assert_eq!(s.next(-100), 3);
        // (10, +∞).
        s.insert_open(10, POS_INF);
        assert!(s.covers(11));
        assert!(s.covers(POS_INF - 1));
        assert_eq!(s.next(11), POS_INF);
        // Close the hole [3, 10].
        s.insert_closed(3, 10);
        assert_eq!(s.next(-50), POS_INF, "entire line covered");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merging_overlaps_and_adjacency() {
        let mut s = IntervalSet::new();
        s.insert_closed(10, 20);
        s.insert_closed(30, 40);
        assert_eq!(s.len(), 2);
        // Overlap both.
        s.insert_closed(15, 35);
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().next(), Some((10, 40)));
        // Adjacent on the left merges.
        s.insert_closed(5, 9);
        assert_eq!(s.iter().next(), Some((5, 40)));
        // Contained insert changes nothing.
        assert!(!s.insert_closed(6, 7));
    }

    #[test]
    fn newly_covered_pieces() {
        let mut s = IntervalSet::new();
        s.insert_closed(5, 10);
        s.insert_closed(20, 25);
        let new = s.insert_closed_returning_new(0, 30);
        assert_eq!(new, vec![(0, 4), (11, 19), (26, 30)]);
        let new = s.insert_closed_returning_new(0, 30);
        assert!(new.is_empty());
    }

    #[test]
    fn covered_within_window() {
        let mut s = IntervalSet::new();
        s.insert_closed(5, 10);
        s.insert_closed(20, 25);
        assert_eq!(s.covered_within(0, 30), vec![(5, 10), (20, 25)]);
        assert_eq!(s.covered_within(7, 22), vec![(7, 10), (20, 22)]);
        assert_eq!(s.covered_within(11, 19), vec![]);
    }

    /// Randomized cross-check against a naive bit-set model on a small
    /// domain.
    #[test]
    fn model_check_small_domain() {
        const DOM: i64 = 64;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..200 {
            let mut s = IntervalSet::new();
            let mut model = [false; DOM as usize];
            for _ in 0..20 {
                let a = (rng() % DOM as u64) as i64;
                let b = (rng() % DOM as u64) as i64;
                let (lo, hi) = (a.min(b), a.max(b));
                s.insert_closed(lo, hi);
                for v in lo..=hi {
                    model[v as usize] = true;
                }
                for v in 0..DOM {
                    assert_eq!(s.covers(v), model[v as usize], "covers({v})");
                }
                for v in 0..DOM {
                    let expect = (v..DOM).find(|&u| !model[u as usize]).unwrap_or(DOM);
                    let got = s.next(v).min(DOM);
                    assert_eq!(got, expect, "next({v})");
                }
            }
        }
    }
}
