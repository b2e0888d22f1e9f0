//! The specialized CDS for the triangle query (Appendix L).
//!
//! For `Q∆ = R(A,B) ⋈ S(B,C) ⋈ T(A,C)` under GAO `(A, B, C)` the generic
//! `ConstraintTree` wastes `Ω(|C|²)` time re-discovering that many `(a, b)`
//! prefixes are dead. The triangle CDS instead stores
//!
//! * `I()`       — `A`-gaps `⟨(l,r), ˚, ˚⟩`,
//! * `I(˚)`      — `B`-gaps `⟨˚, (l,r), ˚⟩`,
//! * `I(=a)`     — `B`-gaps `⟨a, (l,r), ˚⟩` (one set per `a`),
//! * `I(=a, ˚)`  — `C`-gaps `⟨a, ˚, (l,r)⟩`,
//! * `I(˚, ˚)`   — `C`-gaps `⟨˚, ˚, (l,r)⟩` (not produced by `Q∆` itself
//!   but supported for completeness),
//! * `I(˚, =b)`  — `C`-gaps `⟨˚, b, (l,r)⟩` in a [`DyadicIntervalTree`]
//!   whose internal nodes cache intersections (invariant (7)),
//! * `I(=a, =b)` — output exclusions `⟨a, b, (c−1, c+1)⟩`,
//!
//! plus the per-`(a, dyadic node)` monotone scan caches of Algorithm 10.
//! `get_probe_point` walks `a → b → (dyadic descent) → c`; a subtree whose
//! cached scan hits `+∞` is pruned by inserting its whole `B`-range into
//! `I(=a)` — this is the step that brings the probe count down from
//! `Ω(|C|²)` pairs to `O(|C|)` explored pairs (Theorem 5.4).
//!
//! This implementation corrects two gaps in the paper's Algorithm 10
//! pseudocode: the `b = +∞` case inserts an `A`-exclusion (otherwise the
//! algorithm would loop), and the dyadic descent follows the root-to-leaf
//! path of the currently selected *free* `b` (so the returned probe is
//! guaranteed active with respect to `B`-constraints as well).

use std::collections::BTreeMap;

use crate::constraint::Constraint;
use crate::dyadic::{DyadicIntervalTree, DyadicNode};
use crate::interval::IntervalSet;
use crate::pattern::PatternComp;
use crate::tree::ProbeStats;
use crate::{Val, NEG_INF, POS_INF, PROBE_START};

/// The triangle constraint data structure.
pub struct TriangleCds {
    /// `A`-gaps.
    a_set: IntervalSet,
    /// `B`-gaps under pattern `⟨˚⟩` (plus the domain clamp).
    b_star: IntervalSet,
    /// `B`-gaps under `⟨a⟩`.
    b_under_a: BTreeMap<Val, IntervalSet>,
    /// `C`-gaps under `⟨a, ˚⟩`.
    c_under_a: BTreeMap<Val, IntervalSet>,
    /// `C`-gaps under `⟨˚, ˚⟩`.
    c_global: IntervalSet,
    /// `C`-gaps under `⟨˚, b⟩`, with dyadic intersection caching.
    dyadic: DyadicIntervalTree,
    /// `C`-gaps under `⟨a, b⟩` (output exclusions).
    c_under_ab: BTreeMap<(Val, Val), IntervalSet>,
    /// Monotone scan cache per `(a, dyadic node)` (Algorithm 10's
    /// `GetCache`/`Cache`).
    cache: BTreeMap<(Val, DyadicNode), Val>,
}

impl TriangleCds {
    /// Creates the CDS for `B`-domain `0..b_domain` (rounded up to a power
    /// of two internally). Probes for `b` outside the domain are
    /// suppressed by clamping `I(˚)` — sound because no data value lies
    /// there, matching the paper's `N = 2^d` setup.
    pub fn new(b_domain: Val) -> Self {
        let dyadic = DyadicIntervalTree::for_domain(b_domain);
        let mut b_star = IntervalSet::new();
        b_star.insert_closed(NEG_INF + 1, -1);
        b_star.insert_closed(dyadic.domain_size(), POS_INF - 1);
        TriangleCds {
            a_set: IntervalSet::new(),
            b_star,
            b_under_a: BTreeMap::new(),
            c_under_a: BTreeMap::new(),
            c_global: IntervalSet::new(),
            dyadic,
            c_under_ab: BTreeMap::new(),
            cache: BTreeMap::new(),
        }
    }

    /// Inserts a constraint over the 3-attribute output space. Accepts
    /// exactly the pattern shapes the triangle outer algorithm produces.
    pub fn insert_constraint(&mut self, c: &Constraint, stats: &mut ProbeStats) {
        stats.constraints_inserted += 1;
        if c.is_empty_interval() {
            return;
        }
        use PatternComp::{Eq, Star};
        match c.pattern.0.as_slice() {
            [] => {
                self.a_set.insert_open(c.lo, c.hi);
            }
            [Star] => {
                self.b_star.insert_open(c.lo, c.hi);
            }
            [Eq(a)] => {
                self.b_under_a
                    .entry(*a)
                    .or_default()
                    .insert_open(c.lo, c.hi);
            }
            [Star, Star] => {
                self.c_global.insert_open(c.lo, c.hi);
            }
            [Eq(a), Star] => {
                self.c_under_a
                    .entry(*a)
                    .or_default()
                    .insert_open(c.lo, c.hi);
            }
            [Star, Eq(b)] => {
                if (0..self.dyadic.domain_size()).contains(b) {
                    self.dyadic.insert_leaf_open(*b, c.lo, c.hi);
                }
                // b outside the clamped domain: already dead, ignore.
            }
            [Eq(a), Eq(b)] => {
                self.c_under_ab
                    .entry((*a, *b))
                    .or_default()
                    .insert_open(c.lo, c.hi);
            }
            _ => panic!("triangle CDS expects 3-attribute constraints, got {c}"),
        }
    }

    /// Smallest value `≥ from` free of all the given sets.
    fn next_union(sets: &[Option<&IntervalSet>], from: Val, stats: &mut ProbeStats) -> Val {
        let mut v = from;
        loop {
            let mut moved = false;
            for s in sets.iter().flatten() {
                stats.next_calls += 1;
                let nv = s.next(v);
                if nv != v {
                    v = nv;
                    moved = true;
                }
            }
            if !moved || v == POS_INF {
                return v;
            }
        }
    }

    /// Algorithm 10 (corrected): returns an active tuple `(a, b, c)` or
    /// `None` when the constraints cover the whole output space.
    pub fn get_probe_point(&mut self, stats: &mut ProbeStats) -> Option<[Val; 3]> {
        'a_loop: loop {
            stats.next_calls += 1;
            let a = self.a_set.next(PROBE_START);
            if a == POS_INF {
                return None;
            }
            let mut b_from = PROBE_START;
            'b_loop: loop {
                let b =
                    Self::next_union(&[self.b_under_a.get(&a), Some(&self.b_star)], b_from, stats);
                if b == POS_INF {
                    // No B value viable under a: exclude a (the analogue of
                    // Algorithm 10 line 28 for the exhausted-B case).
                    stats.constraints_inserted += 1;
                    self.a_set.insert_closed(a, a);
                    continue 'a_loop;
                }
                debug_assert!(
                    (0..self.dyadic.domain_size()).contains(&b),
                    "clamping keeps b in the dyadic domain"
                );
                // Dyadic descent along the path of b; prune C-exhausted
                // subtrees.
                let path: Vec<DyadicNode> = self.dyadic.path_to(b).collect();
                for node in path {
                    let key = (a, node);
                    let z = self.cache.get(&key).copied().unwrap_or(PROBE_START);
                    let is_leaf = node.0 == self.dyadic.bits();
                    let c = Self::next_union(
                        &[
                            self.c_under_a.get(&a),
                            Some(&self.c_global),
                            self.dyadic.set(node),
                            if is_leaf {
                                self.c_under_ab.get(&(a, b))
                            } else {
                                None
                            },
                        ],
                        z,
                        stats,
                    );
                    self.cache.insert(key, c);
                    if c == POS_INF {
                        // Subtree exhausted: ⟨a, range(node), ˚⟩.
                        let (blo, bhi) = self.dyadic.range_of(node);
                        stats.constraints_inserted += 1;
                        self.b_under_a.entry(a).or_default().insert_closed(blo, bhi);
                        b_from = bhi.saturating_add(1);
                        continue 'b_loop;
                    }
                    if is_leaf {
                        stats.probe_points += 1;
                        return Some([a, b, c]);
                    }
                }
                unreachable!("descent ends at a leaf or prunes");
            }
        }
    }

    /// Test helper: is the tuple covered by some stored constraint? (The
    /// scan caches are intentionally ignored — they only ever skip covered
    /// values.)
    pub fn covers_tuple(&self, t: &[Val; 3]) -> bool {
        let [a, b, c] = *t;
        if self.a_set.covers(a) {
            return true;
        }
        if self.b_star.covers(b) || self.b_under_a.get(&a).is_some_and(|s| s.covers(b)) {
            return true;
        }
        if self.c_global.covers(c)
            || self.c_under_a.get(&a).is_some_and(|s| s.covers(c))
            || self.c_under_ab.get(&(a, b)).is_some_and(|s| s.covers(c))
        {
            return true;
        }
        (0..self.dyadic.domain_size()).contains(&b)
            && self
                .dyadic
                .set(self.dyadic.leaf_of(b))
                .is_some_and(|s| s.covers(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::tree::{ConstraintTree, ProbeMode};
    use PatternComp::{Eq, Star};

    fn stats() -> ProbeStats {
        ProbeStats::default()
    }

    /// Constrain a TriangleCds and a generic General-mode ConstraintTree
    /// identically; both must enumerate the same active set.
    fn cross_check(constraints: &[Constraint], b_domain: Val, box_hi: Val) {
        let mut tri = TriangleCds::new(b_domain);
        let mut gen = ConstraintTree::new(3, ProbeMode::General);
        let mut st1 = stats();
        let mut st2 = stats();
        // Confine A and C to [0, box_hi] on both sides; B is clamped by the
        // triangle CDS itself, so clamp the generic one to the dyadic
        // domain.
        let b_max = {
            let mut bits = 0;
            while (1i64 << bits) < b_domain.max(1) {
                bits += 1;
            }
            (1i64 << bits) - 1
        };
        let boxed: Vec<Constraint> = vec![
            Constraint::new(Pattern::empty(), NEG_INF, 0),
            Constraint::new(Pattern::empty(), box_hi, POS_INF),
            Constraint::new(Pattern::all_star(1), NEG_INF, 0),
            Constraint::new(Pattern::all_star(1), b_max, POS_INF),
            Constraint::new(Pattern::all_star(2), NEG_INF, 0),
            Constraint::new(Pattern::all_star(2), box_hi, POS_INF),
        ];
        for c in boxed.iter().chain(constraints) {
            tri.insert_constraint(c, &mut st1);
            gen.insert_constraint(c, &mut st2);
        }
        let mut tri_out = Vec::new();
        while let Some(t) = tri.get_probe_point(&mut st1) {
            assert!(!tri.covers_tuple(&t), "triangle probe {t:?} not active");
            tri.insert_constraint(&Constraint::point_exclusion(&t), &mut st1);
            tri_out.push(t.to_vec());
            assert!(tri_out.len() < 50_000);
        }
        let mut gen_out = Vec::new();
        while let Some(t) = gen.get_probe_point(&mut st2) {
            gen.insert_constraint(&Constraint::point_exclusion(&t), &mut st2);
            gen_out.push(t);
            assert!(gen_out.len() < 50_000);
        }
        tri_out.sort();
        gen_out.sort();
        assert_eq!(tri_out, gen_out);
    }

    #[test]
    fn empty_enumerates_box() {
        cross_check(&[], 4, 3);
    }

    #[test]
    fn a_and_b_gaps() {
        cross_check(
            &[
                Constraint::new(Pattern::empty(), 0, 2),           // kill a=1
                Constraint::new(Pattern(vec![Star]), 1, 4),        // kill b∈{2,3}
                Constraint::new(Pattern(vec![Eq(2)]), NEG_INF, 2), // a=2: b<2 dead
            ],
            4,
            3,
        );
    }

    #[test]
    fn c_gap_shapes() {
        cross_check(
            &[
                Constraint::new(Pattern(vec![Eq(0), Star]), 0, 3), // a=0: c∈{1,2} dead
                Constraint::new(Pattern(vec![Star, Eq(1)]), NEG_INF, 2), // b=1: c<2 dead
                Constraint::new(Pattern(vec![Star, Star]), 2, POS_INF), // c>2 dead
                Constraint::new(Pattern(vec![Eq(1), Eq(1)]), 0, 2), // (1,1): c=1 dead
            ],
            4,
            3,
        );
    }

    #[test]
    fn dyadic_pruning_kicks_in() {
        // Kill all C under every b: the CDS must prune whole subtrees and
        // exclude each a after O(log N) work instead of touching every
        // (a, b) pair.
        let mut tri = TriangleCds::new(8);
        let mut st = stats();
        for b in 0..8 {
            tri.insert_constraint(
                &Constraint::new(Pattern(vec![Star, Eq(b)]), NEG_INF, POS_INF),
                &mut st,
            );
        }
        // Confine A to [0, 50].
        tri.insert_constraint(&Constraint::new(Pattern::empty(), NEG_INF, 0), &mut st);
        tri.insert_constraint(&Constraint::new(Pattern::empty(), 50, POS_INF), &mut st);
        assert_eq!(tri.get_probe_point(&mut st), None);
        // With full-C coverage propagated to the root, each of the 51
        // A-values dies after ONE root consultation: well under one scan
        // per (a, b) pair (51 × 8 = 408 would be the quadratic behaviour).
        assert!(
            st.next_calls < 51 * 8,
            "expected dyadic pruning, got {} next calls",
            st.next_calls
        );
    }

    #[test]
    fn random_cross_check() {
        let mut seed = 0x8badf00d1234u64;
        let mut rng = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for trial in 0..25 {
            let mut cs = Vec::new();
            for _ in 0..6 {
                let lo = rng(5) as Val - 1;
                let hi = lo + rng(4) as Val;
                let shape = rng(7);
                let c = match shape {
                    0 => Constraint::new(Pattern::empty(), lo, hi),
                    1 => Constraint::new(Pattern(vec![Star]), lo, hi),
                    2 => Constraint::new(Pattern(vec![Eq(rng(4) as Val)]), lo, hi),
                    3 => Constraint::new(Pattern(vec![Star, Star]), lo, hi),
                    4 => Constraint::new(Pattern(vec![Eq(rng(4) as Val), Star]), lo, hi),
                    5 => Constraint::new(Pattern(vec![Star, Eq(rng(4) as Val)]), lo, hi),
                    _ => {
                        Constraint::new(Pattern(vec![Eq(rng(4) as Val), Eq(rng(4) as Val)]), lo, hi)
                    }
                };
                cs.push(c);
            }
            cross_check(&cs, 4, 3);
            let _ = trial;
        }
    }

    #[test]
    fn inserts_allocate_nodes_and_probes_fill_the_cache() {
        let mut tri = TriangleCds::new(8);
        let mut st = stats();
        assert_eq!(tri.dyadic.node_count(), 0);
        assert!(tri.cache.is_empty());
        // One leaf insert allocates the leaf (no sibling ⇒ no propagation).
        tri.insert_constraint(&Constraint::new(Pattern(vec![Star, Eq(3)]), 0, 10), &mut st);
        assert_eq!(tri.dyadic.node_count(), 1);
        // A probe populates per-(a, node) caches along one root-leaf path.
        let t = tri.get_probe_point(&mut st).unwrap();
        assert!(!tri.cache.is_empty(), "descent caches scan positions");
        assert!(!tri.covers_tuple(&t));
    }

    #[test]
    fn probe_is_active_and_progress_is_made() {
        let mut tri = TriangleCds::new(4);
        let mut st = stats();
        let t = tri.get_probe_point(&mut st).unwrap();
        // First probe: a and c unconstrained (sentinel −1), b clamped to 0.
        assert_eq!(t, [-1, 0, -1]);
        tri.insert_constraint(&Constraint::point_exclusion(&t), &mut st);
        let t2 = tri.get_probe_point(&mut st).unwrap();
        assert_ne!(t, t2);
    }
}
