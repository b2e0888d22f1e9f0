//! The `ConstraintTree` CDS (Section 3.3, Figure 1, Appendix E.3) and the
//! `getProbePoint` search (Algorithms 3–4 for β-acyclic GAOs, Algorithms
//! 6–7 for general GAOs).
//!
//! Every node corresponds to a pattern (the labels on its root path); it
//! carries a sorted list of equality children, at most one `˚` child, and an
//! interval list. Two invariants are maintained:
//!
//! 1. intervals at a node are disjoint and merged ([`IntervalSet`]);
//! 2. no equality-child label is covered by an interval at the same node
//!    (Algorithm 5 deletes such children — their subtrees are subsumed).
//!
//! `getProbePoint` builds a candidate tuple coordinate by coordinate. At
//! depth `i` it collects the *principal filter* `G(t₁, …, t_i)` — matching
//! nodes with non-empty interval lists. For β-acyclic queries under a
//! nested elimination order, `G` is a chain (Proposition 4.2) and
//! `nextChainVal` walks it bottom-up, memoizing inferred gaps so repeated
//! work is amortized (Lemma 4.3). For general queries the filter need not
//! be a chain; Algorithm 6 linearizes it and takes suffix *meets* to build a
//! chain of **shadow** nodes, then runs the same walk over
//! (shadow, original) pairs.
//!
//! Deviation from the paper's pseudocode: the memoized constraint of
//! Algorithm 7 line 11 is inserted at the *shadow* pattern `P̄(u)` rather
//! than `P(u)`; inserting at the more general `P(u)` would claim the
//! exclusion for tuples that do not match the rest of the sub-chain. For
//! chains the two coincide, so Algorithm 4 is unaffected.

use crate::constraint::Constraint;
use crate::interval::IntervalSet;
use crate::pattern::{Pattern, PatternComp};
use crate::sorted_list::SortedList;
use crate::{Val, POS_INF, PROBE_START};

/// How `getProbePoint` should treat the principal filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    /// β-acyclic / nested-elimination-order mode (Algorithm 3): asserts the
    /// filter is a chain (Proposition 4.2) in debug builds; shadows
    /// degenerate to the original nodes.
    Chain,
    /// General mode (Algorithm 6): builds shadow chains from suffix meets.
    General,
}

/// Counters for CDS work, merged into the caller's execution statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ProbeStats {
    /// Constraints passed to `insert_constraint` (including subsumed and
    /// empty ones).
    pub constraints_inserted: u64,
    /// Probe points returned.
    pub probe_points: u64,
    /// `IntervalSet::next` calls issued by the chain walks.
    pub next_calls: u64,
    /// Backtracking steps (Algorithm 3 line 16).
    pub backtracks: u64,
    /// Nodes allocated in the tree (incl. shadow nodes).
    pub nodes_created: u64,
}

struct Node {
    pattern: Pattern,
    equalities: SortedList<usize>,
    star: Option<usize>,
    intervals: IntervalSet,
}

/// The constraint data structure.
///
/// ```
/// use minesweeper_cds::{Constraint, ConstraintTree, Pattern, ProbeMode, ProbeStats};
/// let mut cds = ConstraintTree::new(2, ProbeMode::Chain);
/// let mut st = ProbeStats::default();
/// // No constraints yet: the sentinel probe comes back.
/// assert_eq!(cds.get_probe_point(&mut st), Some(vec![-1, -1]));
/// // Cover everything: ⟨(−∞, +∞)⟩ at depth 0.
/// cds.insert_constraint(
///     &Constraint::new(Pattern::empty(), minesweeper_cds::NEG_INF, minesweeper_cds::POS_INF),
///     &mut st,
/// );
/// assert_eq!(cds.get_probe_point(&mut st), None);
/// ```
pub struct ConstraintTree {
    n_attrs: usize,
    nodes: Vec<Node>,
    mode: ProbeMode,
    /// Whether chain walks memoize inferred gaps (Algorithm 4 line 13 /
    /// Algorithm 7 line 11). Disabling this is an *ablation*: correctness
    /// is unaffected (the underlying constraints remain), but the
    /// amortization of Lemma 4.3 is lost and Example 4.1-style workloads
    /// degrade from `Õ(N²)` to `Ω(N³)`.
    memoize: bool,
}

const ROOT: usize = 0;

impl ConstraintTree {
    /// Creates a CDS over an `n_attrs`-dimensional output space.
    pub fn new(n_attrs: usize, mode: ProbeMode) -> Self {
        Self::with_options(n_attrs, mode, true)
    }

    /// Creates a CDS with explicit options; `memoize = false` disables the
    /// chain-walk memoization (an ablation only; see the `memoize` field).
    pub fn with_options(n_attrs: usize, mode: ProbeMode, memoize: bool) -> Self {
        assert!(n_attrs >= 1);
        ConstraintTree {
            n_attrs,
            nodes: vec![Node {
                pattern: Pattern::empty(),
                equalities: SortedList::new(),
                star: None,
                intervals: IntervalSet::new(),
            }],
            mode,
            memoize,
        }
    }

    /// Number of attributes of the output space.
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// Number of allocated nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// `InsConstraint` (Algorithm 5). Empty-interval constraints are
    /// dropped; constraints whose equality path is already covered by an
    /// ancestor interval are subsumed and dropped.
    pub fn insert_constraint(&mut self, c: &Constraint, stats: &mut ProbeStats) {
        stats.constraints_inserted += 1;
        assert!(c.depth() < self.n_attrs, "interval position out of range");
        if c.is_empty_interval() {
            return;
        }
        let mut v = ROOT;
        for comp in &c.pattern.0 {
            match comp {
                PatternComp::Eq(val) => {
                    if self.nodes[v].intervals.covers(*val) {
                        return; // subsumed by an existing constraint
                    }
                    v = match self.nodes[v].equalities.find(*val) {
                        Some(&c) => c,
                        None => {
                            let c = self.alloc_child(v, PatternComp::Eq(*val), stats);
                            self.nodes[v].equalities.insert(*val, c);
                            c
                        }
                    };
                }
                PatternComp::Star => {
                    v = match self.nodes[v].star {
                        Some(c) => c,
                        None => {
                            let c = self.alloc_child(v, PatternComp::Star, stats);
                            self.nodes[v].star = Some(c);
                            c
                        }
                    };
                }
            }
        }
        self.node_insert_open(v, c.lo, c.hi);
    }

    fn alloc_child(&mut self, parent: usize, comp: PatternComp, stats: &mut ProbeStats) -> usize {
        let mut pattern = self.nodes[parent].pattern.clone();
        pattern.0.push(comp);
        let id = self.nodes.len();
        stats.nodes_created += 1;
        self.nodes.push(Node {
            pattern,
            equalities: SortedList::new(),
            star: None,
            intervals: IntervalSet::new(),
        });
        id
    }

    /// Inserts an open interval at a node, maintaining invariant (2): any
    /// equality child whose label falls in the interval is deleted (its
    /// subtree is subsumed).
    fn node_insert_open(&mut self, v: usize, lo: Val, hi: Val) {
        if self.nodes[v].intervals.insert_open(lo, hi) {
            let clo = lo.saturating_add(1);
            let chi = hi.saturating_sub(1);
            if clo <= chi {
                self.nodes[v].equalities.delete_range_closed(clo, chi);
            }
        }
    }

    /// Inserts a closed range directly (memoization path).
    fn node_insert_closed(&mut self, v: usize, lo: Val, hi: Val) {
        if lo > hi {
            return;
        }
        if self.nodes[v].intervals.insert_closed(lo, hi) {
            self.nodes[v].equalities.delete_range_closed(lo, hi);
        }
    }

    /// Finds or creates the node for `pattern`, without attaching any
    /// interval (shadow-node creation for Algorithm 6; the paper uses a
    /// dummy `(−∞, 0)` insertion, we simply allocate an interval-free node).
    fn ensure_node(&mut self, pattern: &Pattern, stats: &mut ProbeStats) -> usize {
        let mut v = ROOT;
        for comp in &pattern.0 {
            v = match comp {
                PatternComp::Eq(val) => match self.nodes[v].equalities.find(*val) {
                    Some(&c) => c,
                    None => {
                        let c = self.alloc_child(v, PatternComp::Eq(*val), stats);
                        self.nodes[v].equalities.insert(*val, c);
                        c
                    }
                },
                PatternComp::Star => match self.nodes[v].star {
                    Some(c) => c,
                    None => {
                        let c = self.alloc_child(v, PatternComp::Star, stats);
                        self.nodes[v].star = Some(c);
                        c
                    }
                },
            };
        }
        v
    }

    /// Extends a frontier of prefix-matching nodes by one chosen value.
    fn frontier_extend(&self, frontier: &[usize], v: Val) -> Vec<usize> {
        let mut out = Vec::with_capacity(frontier.len() * 2);
        for &u in frontier {
            if let Some(&c) = self.nodes[u].equalities.find(v) {
                out.push(c);
            }
            if let Some(c) = self.nodes[u].star {
                out.push(c);
            }
        }
        out
    }

    /// Recomputes the whole frontier stack for prefix `t` (used after
    /// backtracking, when constraint insertion may have created nodes that
    /// an incrementally-maintained stack would miss).
    fn rebuild_frontiers(&self, t: &[Val]) -> Vec<Vec<usize>> {
        let mut fs = Vec::with_capacity(t.len() + 1);
        fs.push(vec![ROOT]);
        for (i, &v) in t.iter().enumerate() {
            let next = self.frontier_extend(&fs[i], v);
            fs.push(next);
        }
        fs
    }

    /// `getProbePoint` (Algorithm 3 / Algorithm 6): returns an active tuple
    /// — one satisfying no stored constraint — or `None` when the
    /// constraints cover the whole output space.
    pub fn get_probe_point(&mut self, stats: &mut ProbeStats) -> Option<Vec<Val>> {
        let n = self.n_attrs;
        let mut t: Vec<Val> = Vec::with_capacity(n);
        let mut frontiers: Vec<Vec<usize>> = vec![vec![ROOT]];
        loop {
            let i = t.len();
            if i == n {
                stats.probe_points += 1;
                return Some(t);
            }
            let mut g: Vec<usize> = frontiers[i]
                .iter()
                .copied()
                .filter(|&u| !self.nodes[u].intervals.is_empty())
                .collect();
            if g.is_empty() {
                // No constraint applies: probe the sentinel (Appendix D.1
                // probes t = (−1, −1, −1) first).
                let f = self.frontier_extend(&frontiers[i], PROBE_START);
                t.push(PROBE_START);
                frontiers.push(f);
                continue;
            }
            // Linearize: most specialized first (strict specializations have
            // strictly more equality components).
            g.sort_by(|&a, &b| {
                self.nodes[b]
                    .pattern
                    .eq_count()
                    .cmp(&self.nodes[a].pattern.eq_count())
                    .then_with(|| self.nodes[a].pattern.cmp(&self.nodes[b].pattern))
            });
            if self.mode == ProbeMode::Chain {
                debug_assert!(
                    g.windows(2).all(|w| self.nodes[w[0]]
                        .pattern
                        .specializes(&self.nodes[w[1]].pattern)),
                    "Chain mode requires the principal filter to be a chain \
                     (Proposition 4.2); use ProbeMode::General for this GAO"
                );
            }
            // Build (shadow, original) pairs via suffix meets (Algorithm 6
            // lines 9–14). For a chain every shadow equals its original.
            let chain = self.build_shadow_chain(&g, stats);
            let bottom_pattern = self.nodes[chain[0].0].pattern.clone();
            let val = self.next_shadow_chain_val(PROBE_START, 0, &chain, stats);
            if val == POS_INF {
                // Exhausted: backtrack (Algorithm 3 lines 12–16).
                let i0 = bottom_pattern.last_eq_position();
                if i0 == 0 {
                    return None;
                }
                stats.backtracks += 1;
                let c = Constraint::backtrack(&bottom_pattern, i0);
                self.insert_constraint(&c, stats);
                t.truncate(i0 - 1);
                frontiers = self.rebuild_frontiers(&t);
            } else {
                let f = self.frontier_extend(&frontiers[i], val);
                t.push(val);
                frontiers.push(f);
            }
        }
    }

    /// Builds the shadow chain for a linearized filter `g` (most
    /// specialized first): `pairs[j] = (shadow_j, g[j])` where `shadow_j`
    /// realizes `P̄(u_j) = ∧_{i ≥ j} P(u_i)`.
    fn build_shadow_chain(&mut self, g: &[usize], stats: &mut ProbeStats) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(g.len());
        let mut meet: Option<Pattern> = None;
        for &u in g.iter().rev() {
            let pu = self.nodes[u].pattern.clone();
            let m = match meet {
                None => pu.clone(),
                Some(prev) => prev
                    .meet(&pu)
                    .expect("patterns in a principal filter are compatible"),
            };
            let sh = if m == pu {
                u
            } else {
                self.ensure_node(&m, stats)
            };
            pairs.push((sh, u));
            meet = Some(m);
        }
        pairs.reverse();
        pairs
    }

    /// `nextChainVal` on the two-element chain `{shadow, original}`
    /// (Algorithm 7 line 3/9 delegating to Algorithm 4): the smallest
    /// `y ≥ x` free at both nodes; the inferred gap `[x, y−1]` is memoized
    /// at the shadow.
    fn next_pair(&mut self, x: Val, sh: usize, orig: usize, stats: &mut ProbeStats) -> Val {
        if sh == orig {
            stats.next_calls += 1;
            return self.nodes[sh].intervals.next(x);
        }
        let mut y = x;
        loop {
            stats.next_calls += 2;
            let z = self.nodes[orig].intervals.next(y);
            y = self.nodes[sh].intervals.next(z);
            if y == z {
                break;
            }
        }
        if self.memoize && y > x {
            self.node_insert_closed(sh, x, y - 1);
        }
        y
    }

    /// `nextShadowChainVal` (Algorithm 7): the smallest `y ≥ x` free at
    /// every (shadow, original) pair from position `j` up the chain.
    /// Inferred gaps are memoized at the shadow of position `j`.
    fn next_shadow_chain_val(
        &mut self,
        x: Val,
        j: usize,
        chain: &[(usize, usize)],
        stats: &mut ProbeStats,
    ) -> Val {
        let (sh, orig) = chain[j];
        if j + 1 == chain.len() {
            return self.next_pair(x, sh, orig, stats);
        }
        let mut y = x;
        loop {
            let z = self.next_shadow_chain_val(y, j + 1, chain, stats);
            y = self.next_pair(z, sh, orig, stats);
            if y == z {
                break;
            }
        }
        if self.memoize && y > x {
            self.node_insert_closed(sh, x, y - 1);
        }
        y
    }

    /// True when the tuple is covered by some stored constraint — the
    /// complement of "active" (test helper; production code relies on
    /// `get_probe_point` never returning covered tuples).
    pub fn covers_tuple(&self, t: &[Val]) -> bool {
        assert_eq!(t.len(), self.n_attrs);
        let mut frontier = vec![ROOT];
        for (i, &v) in t.iter().enumerate() {
            for &u in &frontier {
                if self.nodes[u].intervals.covers(v) {
                    return true;
                }
            }
            if i + 1 < t.len() {
                frontier = self.frontier_extend(&frontier, v);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PatternComp::{Eq, Star};

    fn stats() -> ProbeStats {
        ProbeStats::default()
    }

    /// Confine probes to `[0, dom]^n` by inserting box constraints.
    fn confine(cds: &mut ConstraintTree, n: usize, dom: Val, st: &mut ProbeStats) {
        for i in 0..n {
            let pat = Pattern::all_star(i);
            cds.insert_constraint(&Constraint::new(pat.clone(), crate::NEG_INF, 0), st);
            cds.insert_constraint(&Constraint::new(pat, dom, crate::POS_INF), st);
        }
    }

    /// Advances `t` through `[0, dom]^n` in lexicographic order.
    fn next_odometer(t: &mut [Val], dom: Val) -> bool {
        for k in (0..t.len()).rev() {
            if t[k] < dom {
                t[k] += 1;
                for x in &mut t[k + 1..] {
                    *x = 0;
                }
                return true;
            }
        }
        false
    }

    /// Drains all probe points, feeding back point exclusions — the CDS
    /// then enumerates exactly the active tuples of the box.
    fn drain(cds: &mut ConstraintTree, st: &mut ProbeStats) -> Vec<Vec<Val>> {
        let mut out = Vec::new();
        while let Some(t) = cds.get_probe_point(st) {
            assert!(!cds.covers_tuple(&t), "probe {t:?} is not active");
            cds.insert_constraint(&Constraint::point_exclusion(&t), st);
            out.push(t);
            assert!(out.len() < 100_000, "runaway probe loop");
        }
        out
    }

    #[test]
    fn empty_cds_probes_sentinels() {
        let mut cds = ConstraintTree::new(3, ProbeMode::General);
        let mut st = stats();
        let t = cds.get_probe_point(&mut st).unwrap();
        assert_eq!(t, vec![-1, -1, -1]);
    }

    #[test]
    fn full_cover_returns_none() {
        let mut cds = ConstraintTree::new(2, ProbeMode::Chain);
        let mut st = stats();
        cds.insert_constraint(
            &Constraint::new(Pattern::empty(), crate::NEG_INF, crate::POS_INF),
            &mut st,
        );
        assert_eq!(cds.get_probe_point(&mut st), None);
    }

    #[test]
    fn chain_mode_enumerates_box() {
        let mut cds = ConstraintTree::new(2, ProbeMode::Chain);
        let mut st = stats();
        confine(&mut cds, 2, 3, &mut st);
        // Exclude the strip B ∈ (0, 2) = {1}.
        cds.insert_constraint(&Constraint::new(Pattern::all_star(1), 0, 2), &mut st);
        let probes = drain(&mut cds, &mut st);
        let mut expect = Vec::new();
        for a in 0..=3 {
            for b in [0, 2, 3] {
                expect.push(vec![a, b]);
            }
        }
        let mut got = probes.clone();
        got.sort();
        expect.sort();
        assert_eq!(got, expect);
        assert_eq!(st.probe_points, 12);
    }

    #[test]
    fn example_4_1_memoization_terminates_quickly() {
        // Example 4.1: constraints (i)–(iv) cover the whole [1,N]² × C
        // space; the lazy chain walk with memoization must finish without
        // Ω(N³) work.
        let n: Val = 12;
        let mut cds = ConstraintTree::new(3, ProbeMode::Chain);
        let mut st = stats();
        confine(&mut cds, 3, n, &mut st);
        for a in 1..=n {
            for b in 1..=n {
                // (i) ⟨a, b, (−∞, 1)⟩
                cds.insert_constraint(
                    &Constraint::new(Pattern::all_eq(&[a, b]), crate::NEG_INF, 1),
                    &mut st,
                );
            }
        }
        for b in 1..=n {
            for i in 1..=n {
                // (ii) ⟨˚, b, (2i−2, 2i)⟩ — forbids odd values.
                cds.insert_constraint(
                    &Constraint::new(Pattern(vec![Star, Eq(b)]), 2 * i - 2, 2 * i),
                    &mut st,
                );
            }
        }
        for i in 1..=n {
            // (iii) ⟨˚, ˚, (2i−1, 2i+1)⟩ — forbids even values.
            cds.insert_constraint(
                &Constraint::new(Pattern::all_star(2), 2 * i - 1, 2 * i + 1),
                &mut st,
            );
        }
        // (iv) ⟨˚, ˚, (2N, +∞)⟩.
        cds.insert_constraint(
            &Constraint::new(Pattern::all_star(2), 2 * n, crate::POS_INF),
            &mut st,
        );
        // Also rule out a=0, b=0, c=0 rows so only the paper's [1,N] grid
        // remains, and C ∈ (0,1) is empty anyway.
        cds.insert_constraint(&Constraint::new(Pattern::empty(), -1, 1), &mut st);
        cds.insert_constraint(&Constraint::new(Pattern::all_star(1), -1, 1), &mut st);
        cds.insert_constraint(&Constraint::new(Pattern::all_star(2), -1, 1), &mut st);
        let probes = drain(&mut cds, &mut st);
        assert!(probes.is_empty(), "space is fully covered: {probes:?}");
        // The whole run must be quadratic-ish, not cubic: allow a generous
        // constant but far below N³ = 1728 next-calls per (a,b) pair.
        assert!(
            st.next_calls < 40 * (n as u64) * (n as u64),
            "next_calls = {} suggests no memoization",
            st.next_calls
        );
    }

    #[test]
    fn memoization_ablation_blows_up_chain_walks() {
        // Example 4.1 with and without memoization: the constraint
        // structure is identical, so outputs agree, but the Next-call
        // count must be dramatically larger without the inferred-gap
        // inserts (Lemma 4.3's amortization).
        fn run(memoize: bool, n: Val) -> u64 {
            let mut cds = ConstraintTree::with_options(3, ProbeMode::Chain, memoize);
            let mut st = stats();
            // Confine A and B to [1, n] so every prefix hits the covered
            // grid (the paper's instance has a, b ∈ [N]).
            for d in 0..2usize {
                let p = Pattern::all_star(d);
                cds.insert_constraint(&Constraint::new(p.clone(), crate::NEG_INF, 1), &mut st);
                cds.insert_constraint(&Constraint::new(p, n, crate::POS_INF), &mut st);
            }
            // (i): ⟨a, b, (−∞, 1)⟩ — make every (a, b) pattern exist, so
            // the chain has three levels and backtracking stays per-pair.
            for a in 1..=n {
                for b in 1..=n {
                    cds.insert_constraint(
                        &Constraint::new(Pattern::all_eq(&[a, b]), crate::NEG_INF, 1),
                        &mut st,
                    );
                }
            }
            // (ii): ⟨˚, b, (2i−2, 2i)⟩ forbids the odd C values per b.
            for b in 1..=n {
                for i in 1..=n {
                    cds.insert_constraint(
                        &Constraint::new(Pattern(vec![Star, Eq(b)]), 2 * i - 2, 2 * i),
                        &mut st,
                    );
                }
            }
            // (iii): ⟨˚, ˚, (2i−1, 2i+1)⟩ forbids the even values.
            for i in 1..=n {
                cds.insert_constraint(
                    &Constraint::new(Pattern::all_star(2), 2 * i - 1, 2 * i + 1),
                    &mut st,
                );
            }
            // (iv) and the low end.
            cds.insert_constraint(
                &Constraint::new(Pattern::all_star(2), 2 * n, crate::POS_INF),
                &mut st,
            );
            cds.insert_constraint(
                &Constraint::new(Pattern::all_star(2), crate::NEG_INF, 1),
                &mut st,
            );
            assert_eq!(cds.get_probe_point(&mut st), None, "space fully covered");
            st.next_calls
        }
        let n: Val = 24;
        let with_memo = run(true, n);
        let without_memo = run(false, n);
        assert!(
            without_memo > 4 * with_memo,
            "memoization must save work: with={with_memo} without={without_memo}"
        );
    }

    #[test]
    fn general_mode_handles_incomparable_patterns() {
        // Patterns ⟨a,˚⟩ and ⟨˚,b⟩ are incomparable: the filter of (a, b)
        // is not a chain, exercising the shadow machinery.
        let mut cds = ConstraintTree::new(3, ProbeMode::General);
        let mut st = stats();
        confine(&mut cds, 3, 2, &mut st);
        // ⟨1, ˚, (−∞, 2)⟩ and ⟨˚, 1, (0, +∞)⟩ — together they kill all
        // (1, 1, c): c < 2 by the first, c > 0 by the second.
        cds.insert_constraint(
            &Constraint::new(Pattern(vec![Eq(1), Star]), crate::NEG_INF, 2),
            &mut st,
        );
        cds.insert_constraint(
            &Constraint::new(Pattern(vec![Star, Eq(1)]), 0, crate::POS_INF),
            &mut st,
        );
        let probes = drain(&mut cds, &mut st);
        for t in &probes {
            assert!(!(t[0] == 1 && t[1] == 1), "(1,1,c) must be excluded: {t:?}");
        }
        // |box| = 27; first strip covers a=1 ∧ c∈{0,1} (6 tuples), second
        // covers b=1 ∧ c∈{1,2} (6 tuples), overlapping at (1,1,1): 16 left.
        assert_eq!(probes.len(), 16);
    }

    #[test]
    fn probes_match_brute_force_on_random_constraints() {
        // Deterministic xorshift so the test is reproducible.
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut rng = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for trial in 0..30 {
            let n = 2 + (trial % 2); // 2 or 3 attributes
            let dom: Val = 4;
            let mut cds = ConstraintTree::new(n, ProbeMode::General);
            let mut st = stats();
            confine(&mut cds, n, dom, &mut st);
            let mut constraints = Vec::new();
            for _ in 0..8 {
                let depth = rng(n as u64) as usize;
                let pattern = Pattern(
                    (0..depth)
                        .map(|_| {
                            if rng(2) == 0 {
                                Star
                            } else {
                                Eq(rng(dom as u64 + 1) as Val)
                            }
                        })
                        .collect(),
                );
                let a = rng(dom as u64 + 2) as Val - 1;
                let b = a + rng(4) as Val;
                let c = Constraint::new(pattern, a, b);
                cds.insert_constraint(&c, &mut st);
                constraints.push(c);
            }
            let mut got = drain(&mut cds, &mut st);
            got.sort();
            // Brute force over the box.
            let mut expect = Vec::new();
            let mut t = vec![0; n];
            loop {
                if !constraints.iter().any(|c| c.covers(&t)) {
                    expect.push(t.clone());
                }
                if !next_odometer(&mut t, dom) {
                    break;
                }
            }
            expect.sort();
            assert_eq!(got, expect, "trial {trial}");
        }
    }

    #[test]
    fn subsumed_constraints_are_dropped() {
        let mut cds = ConstraintTree::new(2, ProbeMode::Chain);
        let mut st = stats();
        // Cover A ∈ (0, 10); then a constraint under A = 5 is subsumed.
        cds.insert_constraint(&Constraint::new(Pattern::empty(), 0, 10), &mut st);
        let before = cds.node_count();
        cds.insert_constraint(&Constraint::new(Pattern::all_eq(&[5]), 0, 3), &mut st);
        assert_eq!(
            cds.node_count(),
            before,
            "subsumed insert allocates nothing"
        );
    }

    #[test]
    fn equality_children_deleted_when_interval_covers_them() {
        let mut cds = ConstraintTree::new(2, ProbeMode::Chain);
        let mut st = stats();
        cds.insert_constraint(&Constraint::new(Pattern::all_eq(&[5]), 0, 3), &mut st);
        // Now cover A ∈ (4, 6) ⇒ the =5 child is subsumed and deleted.
        cds.insert_constraint(&Constraint::new(Pattern::empty(), 4, 6), &mut st);
        // Probing must never revisit A = 5; fully cover the rest and check
        // termination.
        cds.insert_constraint(
            &Constraint::new(Pattern::empty(), crate::NEG_INF, 5),
            &mut st,
        );
        cds.insert_constraint(
            &Constraint::new(Pattern::empty(), 5, crate::POS_INF),
            &mut st,
        );
        assert_eq!(cds.get_probe_point(&mut st), None);
    }

    #[test]
    fn backtracking_inserts_prefix_exclusion() {
        // Under prefix (2, ·) everything is covered; elsewhere free.
        let mut cds = ConstraintTree::new(2, ProbeMode::Chain);
        let mut st = stats();
        confine(&mut cds, 2, 3, &mut st);
        cds.insert_constraint(
            &Constraint::new(Pattern::all_eq(&[2]), crate::NEG_INF, crate::POS_INF),
            &mut st,
        );
        let probes = drain(&mut cds, &mut st);
        assert!(probes.iter().all(|t| t[0] != 2));
        assert_eq!(probes.len(), 3 * 4);
        assert!(st.backtracks >= 1);
    }

    #[test]
    fn worked_example_d1_constraint_sequence() {
        // Appendix D.1: after step 1's constraints, (1, 2, 2) is active.
        let mut cds = ConstraintTree::new(3, ProbeMode::Chain);
        let mut st = stats();
        let t0 = cds.get_probe_point(&mut st).unwrap();
        assert_eq!(t0, vec![-1, -1, -1]);
        for c in [
            Constraint::new(Pattern::empty(), crate::NEG_INF, 1), // ⟨(−∞,1),˚,˚⟩
            Constraint::new(Pattern(vec![Eq(1)]), crate::NEG_INF, 1), // ⟨1,(−∞,1),˚⟩
            Constraint::new(Pattern(vec![Star]), crate::NEG_INF, 2), // ⟨˚,(−∞,2),˚⟩
            Constraint::new(Pattern(vec![Star, Eq(2)]), crate::NEG_INF, 2), // ⟨˚,=2,(−∞,2)⟩
            Constraint::new(Pattern(vec![Star, Star]), crate::NEG_INF, 1), // ⟨˚,˚,(−∞,1)⟩
        ] {
            cds.insert_constraint(&c, &mut st);
        }
        let t1 = cds.get_probe_point(&mut st).unwrap();
        assert_eq!(t1, vec![1, 2, 2]);
        // Step 2: ⟨˚,˚,(1,3)⟩ → next probe (1,2,3).
        cds.insert_constraint(&Constraint::new(Pattern(vec![Star, Star]), 1, 3), &mut st);
        assert_eq!(cds.get_probe_point(&mut st).unwrap(), vec![1, 2, 3]);
        // Step 3: ⟨˚,=2,(2,4)⟩ → next probe (1,2,4).
        cds.insert_constraint(&Constraint::new(Pattern(vec![Star, Eq(2)]), 2, 4), &mut st);
        assert_eq!(cds.get_probe_point(&mut st).unwrap(), vec![1, 2, 4]);
        // Step 4: ⟨˚,˚,(3,+∞)⟩ → next probe (1,3,1).
        cds.insert_constraint(
            &Constraint::new(Pattern(vec![Star, Star]), 3, crate::POS_INF),
            &mut st,
        );
        assert_eq!(cds.get_probe_point(&mut st).unwrap(), vec![1, 3, 1]);
        // Step 5: the B-gap discovered around b = 3 in T (whose first-level
        // values are {2}) is (2, +∞) — the paper's D.1 prints it as
        // (3, +∞), which would leave b = 3 active; the FindGap definition
        // gives (2, +∞) — plus ⟨˚,=2,(4,+∞)⟩. After these, B is confined
        // to {2} and the b = 2 column has no free C value, so the CDS must
        // report that the whole space is covered (backtracking through an
        // all-star bottom pattern), exactly as D.1 concludes.
        cds.insert_constraint(
            &Constraint::new(Pattern(vec![Star]), 2, crate::POS_INF),
            &mut st,
        );
        cds.insert_constraint(
            &Constraint::new(Pattern(vec![Star, Eq(2)]), 4, crate::POS_INF),
            &mut st,
        );
        assert_eq!(cds.get_probe_point(&mut st), None);
        assert!(st.backtracks >= 1);
    }
}
