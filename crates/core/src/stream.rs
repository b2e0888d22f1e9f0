//! The streaming Minesweeper executor.
//!
//! The private `TupleStream` runs Algorithm 2's probe loop *lazily*: each
//! call to `next` resumes the loop exactly where the previous call stopped
//! — the constraint data structure **is** the resumable state, since every
//! discovered gap and every emitted output is recorded there as a
//! constraint — and returns as soon as the next tuple is certified. This
//! gives:
//!
//! * **early termination**: pulling `k` tuples performs only the probe work
//!   needed to certify `k` tuples (certificate work for the skipped suffix
//!   is never paid), which is how `msj --limit` avoids materializing `Z`
//!   tuples when `Z ≫ k`;
//! * **mid-stream statistics**: the [`ExecStats`] counters can be
//!   snapshotted at any point, including between yields;
//! * **original-order tuples**: when the plan re-indexed for a non-identity
//!   GAO, yielded tuples are translated back to the caller's attribute
//!   numbering on the fly. Tuples are yielded in certification order, which
//!   is lexicographic in the *GAO*; it therefore coincides with
//!   lexicographic order in the original numbering exactly when the GAO is
//!   the identity (see [`mod@crate::execute`] for the sorted drain).
//!
//! Relations are probed through [`GapCursor`]s that persist across resumed
//! probes, so a forward-moving probe sequence gallops from the previous
//! landing position instead of re-running full binary searches.
//!
//! Nothing outside this module builds a `TupleStream`: every probe loop in
//! the crate — the in-thread arm of [`crate::ExecStream`], each shard
//! worker, [`crate::minesweeper_join`] — is a `ShardProbe`, the stream plus
//! the cap bookkeeping all of them share.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use minesweeper_cds::{Constraint, ConstraintTree, Pattern, PatternComp, ProbeMode, ProbeStats};
use minesweeper_storage::{
    Database, ExecStats, GapCursor, NodeId, ShardSpec, StorageRef, TrieStorage, Tuple, Val,
    NEG_INF, POS_INF,
};

use crate::query::{Atom, Query};
use crate::sharded::ShardStats;

/// A lazy stream of certified output tuples (see the module docs). It
/// borrows everything it reads — a stream never owns a database. The
/// stream is fused: after the constraint set covers the whole output
/// space, `next` keeps returning `None`.
struct TupleStream<'a> {
    db: &'a Database,
    /// The execution-side query (re-indexed when the plan demanded it).
    query: &'a Query,
    cds: ConstraintTree,
    pst: ProbeStats,
    stats: ExecStats,
    /// One positional probe cursor per atom, persisted across resumes.
    cursors: Vec<GapCursor>,
    /// Scratch buffer of gap constraints discovered around one probe.
    gaps: Vec<Constraint>,
    /// `inv[a]` = execution column holding original attribute `a`; `None`
    /// when the GAO is the identity.
    inv: Option<&'a [usize]>,
    /// Cooperative-cancellation flag, polled once per probe point: a
    /// parallel consumer tearing its pipeline down flips it so in-flight
    /// shards stop promptly even when their remaining probe work would
    /// emit nothing (a channel send alone can't observe that).
    cancel: Option<Arc<AtomicBool>>,
    done: bool,
}

impl<'a> TupleStream<'a> {
    /// Builds a stream whose probe loop is confined to the shard `spec`
    /// (a first-GAO-attribute interval, plus a second-attribute interval
    /// for nested shards) and to `eq_seeds` equality constraints
    /// (`(position, value)` in the *execution* numbering). All
    /// restrictions are expressed in the CDS itself, as pre-seeded
    /// constraints inserted before any probing:
    ///
    /// * `spec.bounds` becomes the depth-0 open intervals `(−∞, lo)` and
    ///   `(hi, +∞)`, so `getProbePoint` never proposes a tuple outside
    ///   `[lo, hi]` and the loop terminates once the *shard's* slice of
    ///   the output space is covered — the per-shard engine of the
    ///   parallel pipeline: disjoint bounds give probe loops that
    ///   share no state, and within its interval each stream yields
    ///   exactly the serial stream's tuples in the same
    ///   (GAO-lexicographic) order;
    /// * `spec.second`, when present, becomes the all-star depth-1
    ///   intervals `⟨*, (−∞, lo₂)⟩` and `⟨*, (hi₂, +∞)⟩`. A nested spec
    ///   pins the first attribute to a single heavy value, so within the
    ///   shard the star matches only that value and the pair confines the
    ///   second attribute to `[lo₂, hi₂]` — one slice of a giant
    ///   duplicate run;
    /// * each `(k, v)` seed becomes `⟨*,…,*, (−∞, v)⟩` and
    ///   `⟨*,…,*, (v, +∞)⟩` at position `k` — the same all-star-prefix
    ///   shape `explore_atom` discovers for gaps at an atom's first
    ///   attribute — pinning attribute `k` to the constant `v`. This is
    ///   how the engine front door implements query literals without
    ///   touching the catalog.
    ///
    /// Seed constraints are counted in `constraints_inserted` like any
    /// other. Once an armed `cancel` flag turns true, the probe loop stops
    /// between probe points and `next` returns `None` without marking the
    /// stream exhausted — so cancelled shards stop even when no further
    /// output would be emitted; counters stay valid for the work actually
    /// done.
    fn with_shard(
        ctx: &ProbeCtx<'a>,
        spec: ShardSpec,
        eq_seeds: &[(usize, Val)],
        cancel: Option<Arc<AtomicBool>>,
    ) -> Self {
        let ProbeCtx {
            db,
            query,
            mode,
            inv,
        } = *ctx;
        let n = query.n_attrs;
        let mut stats = ExecStats::new();
        // Record, once per stream, how many packed runs back the atoms
        // this probe loop will touch (0 on the all-sorted path).
        stats.dense_leaves = query
            .atoms
            .iter()
            .map(|a| db.probe_target(a.rel).dense_runs())
            .sum();
        let cursors = query
            .atoms
            .iter()
            .map(|a| GapCursor::new(db.relation(a.rel).arity()))
            .collect();
        let mut cds = ConstraintTree::new(n, mode);
        let mut pst = ProbeStats::default();
        if spec.bounds.lo != NEG_INF {
            cds.insert_constraint(
                &Constraint::new(Pattern::empty(), NEG_INF, spec.bounds.lo),
                &mut pst,
            );
        }
        if spec.bounds.hi != POS_INF {
            cds.insert_constraint(
                &Constraint::new(Pattern::empty(), spec.bounds.hi, POS_INF),
                &mut pst,
            );
        }
        if let Some(b2) = spec.second {
            debug_assert!(n >= 2, "nested shards need a second GAO attribute");
            let star = Pattern(vec![PatternComp::Star]);
            if b2.lo != NEG_INF {
                cds.insert_constraint(&Constraint::new(star.clone(), NEG_INF, b2.lo), &mut pst);
            }
            if b2.hi != POS_INF {
                cds.insert_constraint(&Constraint::new(star, b2.hi, POS_INF), &mut pst);
            }
        }
        for &(k, v) in eq_seeds {
            debug_assert!(k < n, "seed position inside the attribute space");
            let stars = Pattern(vec![PatternComp::Star; k]);
            if v != NEG_INF {
                cds.insert_constraint(&Constraint::new(stars.clone(), NEG_INF, v), &mut pst);
            }
            if v != POS_INF {
                cds.insert_constraint(&Constraint::new(stars, v, POS_INF), &mut pst);
            }
        }
        TupleStream {
            db,
            query,
            cds,
            pst,
            stats,
            cursors,
            gaps: Vec::new(),
            inv,
            cancel,
            done: false,
        }
    }

    /// True when an armed cancellation flag has fired.
    fn is_cancelled(&self) -> bool {
        self.cancel
            .as_deref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// A snapshot of the execution counters accumulated so far, valid at
    /// any point mid-stream. `outputs` counts tuples already yielded.
    fn stats(&self) -> ExecStats {
        let mut s = self.stats.clone();
        merge_probe_stats(&mut s, &self.pst);
        s
    }
}

impl Iterator for TupleStream<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.done {
            return None;
        }
        let db = self.db;
        while !self.is_cancelled() {
            let Some(t) = self.cds.get_probe_point(&mut self.pst) else {
                break;
            };
            self.gaps.clear();
            let mut is_output = true;
            for (atom, cursor) in self.query.atoms.iter().zip(&mut self.cursors) {
                // Dispatch once per atom into a monomorphized explorer, so
                // the sorted path keeps its direct calls and the hybrid path
                // gets its rank/select overrides.
                let matched = match db.probe_target(atom.rel) {
                    StorageRef::Sorted(rel) => explore_atom(
                        rel,
                        atom,
                        self.query.n_attrs,
                        &t,
                        cursor,
                        &mut self.gaps,
                        &mut self.stats,
                    ),
                    StorageRef::Hybrid(rel) => explore_atom(
                        rel,
                        atom,
                        self.query.n_attrs,
                        &t,
                        cursor,
                        &mut self.gaps,
                        &mut self.stats,
                    ),
                };
                is_output &= matched;
            }
            if is_output {
                self.cds
                    .insert_constraint(&Constraint::point_exclusion(&t), &mut self.pst);
                self.stats.outputs += 1;
                return Some(match self.inv {
                    None => t,
                    Some(inv) => inv.iter().map(|&c| t[c]).collect(),
                });
            }
            for c in &self.gaps {
                self.cds.insert_constraint(c, &mut self.pst);
            }
        }
        // Fuse only on genuine exhaustion; a cancelled stream simply
        // stops yielding (the shard's accounting marks it incomplete).
        if !self.is_cancelled() {
            self.done = true;
        }
        None
    }
}

/// What every probe loop of one run shares: the execution database, the
/// execution-side query, the probe mode, and the original-numbering
/// translation (`inv[a]` = execution column of original attribute `a`).
#[derive(Clone, Copy)]
pub(crate) struct ProbeCtx<'a> {
    pub(crate) db: &'a Database,
    pub(crate) query: &'a Query,
    pub(crate) mode: ProbeMode,
    pub(crate) inv: Option<&'a [usize]>,
}

/// One confined probe loop plus its cap bookkeeping — the unit every way
/// of running a plan is made of (see the module docs).
///
/// [`ShardProbe::next`] yields at most `cap` tuples. Once the cap is
/// reached, [`ShardProbe::evidence`] pulls exactly one tuple further — the
/// proof that the cap cut something — after freezing the counters, so the
/// reported statistics cover the capped prefix only and never the
/// evidence tuple's probe work.
pub(crate) struct ShardProbe<'a> {
    stream: TupleStream<'a>,
    spec: ShardSpec,
    /// Tuples `next` may still yield before the cap.
    remaining: usize,
    /// The counters as they stood when the cap was reached.
    at_cap: Option<ExecStats>,
}

impl<'a> ShardProbe<'a> {
    /// Opens the probe loop confined to `spec` and to the `eq_seeds`
    /// equality constraints (execution numbering), yielding at most `cap`
    /// tuples. A `cancel` flag, when given, is polled between probe points.
    pub(crate) fn open(
        ctx: &ProbeCtx<'a>,
        spec: ShardSpec,
        eq_seeds: &[(usize, Val)],
        cap: usize,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Self {
        ShardProbe {
            stream: TupleStream::with_shard(ctx, spec, eq_seeds, cancel),
            spec,
            remaining: cap,
            at_cap: None,
        }
    }

    /// The next certified tuple; `None` at the cap, on exhaustion, or once
    /// the cancel flag fired.
    pub(crate) fn next(&mut self) -> Option<Tuple> {
        if self.remaining == 0 {
            return None;
        }
        let t = self.stream.next()?;
        self.remaining -= 1;
        Some(t)
    }

    /// After `next` stopped at the cap: one tuple beyond it, if there is
    /// one. One-shot — `None` (and no probe work) when the cap was never
    /// reached or the evidence was already taken.
    pub(crate) fn evidence(&mut self) -> Option<Tuple> {
        if self.remaining > 0 || self.at_cap.is_some() {
            return None;
        }
        self.at_cap = Some(self.stream.stats());
        self.stream.next()
    }

    /// The counters so far — live mid-stream, frozen once the cap was
    /// probed past.
    pub(crate) fn stats(&self) -> ExecStats {
        self.at_cap.clone().unwrap_or_else(|| self.stream.stats())
    }

    /// This probe's entry in the per-shard accounting. `completed` only
    /// when the loop ran to exhaustion: a shard stopped at its cap with
    /// evidence left, cancelled mid-flight or abandoned by its consumer is
    /// not.
    pub(crate) fn into_shard_stats(self) -> ShardStats {
        ShardStats {
            stats: self.stats(),
            spec: self.spec,
            completed: self.stream.done,
        }
    }
}

/// Folds CDS-internal counters into the execution statistics.
pub(crate) fn merge_probe_stats(stats: &mut ExecStats, pst: &ProbeStats) {
    stats.probe_points += pst.probe_points;
    stats.constraints_inserted += pst.constraints_inserted;
    stats.backtracks += pst.backtracks;
    stats.cds_next_calls += pst.next_calls;
}

/// Explores one atom around probe `t` (Algorithm 2 lines 4–10 and 15–20):
/// appends the discovered gap constraints and returns whether the all-exact
/// descent matched `t`'s projection (line 11's test for this relation).
pub(crate) fn explore_atom<S: TrieStorage>(
    rel: &S,
    atom: &Atom,
    n_attrs: usize,
    t: &[Val],
    cursor: &mut GapCursor,
    gaps: &mut Vec<Constraint>,
    stats: &mut ExecStats,
) -> bool {
    let mut matched = true;
    let mut prefix_vals: Vec<Val> = Vec::with_capacity(atom.attrs.len());
    explore_rec(
        rel,
        atom,
        n_attrs,
        t,
        rel.root(),
        true,
        &mut prefix_vals,
        cursor,
        gaps,
        stats,
        &mut matched,
    );
    matched
}

/// Recursive `{ℓ, h}`-branch exploration from a trie node at atom depth
/// `prefix_vals.len()`. `on_exact_path` is true when every ancestor
/// coordinate hit `t`'s projection exactly; `matched` is cleared when the
/// exact path dies.
#[allow(clippy::too_many_arguments)]
fn explore_rec<S: TrieStorage>(
    rel: &S,
    atom: &Atom,
    n_attrs: usize,
    t: &[Val],
    node: NodeId,
    on_exact_path: bool,
    prefix_vals: &mut Vec<Val>,
    cursor: &mut GapCursor,
    gaps: &mut Vec<Constraint>,
    stats: &mut ExecStats,
    matched: &mut bool,
) {
    let p = prefix_vals.len();
    let k = atom.attrs.len();
    let a = t[atom.attrs[p]];
    let gap = cursor.find_gap(rel, node, a, stats);
    if !gap.exact() {
        // The gap (R[i^{v,ℓ}], R[i^{v,h}]) strictly brackets t's coordinate.
        gaps.push(make_gap_constraint(
            atom,
            n_attrs,
            prefix_vals,
            gap.lo_val,
            gap.hi_val,
        ));
        if on_exact_path {
            *matched = false;
        }
    }
    if p + 1 == k {
        return;
    }
    // Descend into the low and high bracketing children (deduplicated when
    // equal; skipped when out of range).
    let lo_in_range = gap.lo_coord >= 1;
    let hi_in_range = gap.hi_coord <= rel.child_count(node);
    if lo_in_range {
        let child = rel.child(node, gap.lo_coord);
        prefix_vals.push(gap.lo_val);
        explore_rec(
            rel,
            atom,
            n_attrs,
            t,
            child,
            on_exact_path && gap.exact(),
            prefix_vals,
            cursor,
            gaps,
            stats,
            matched,
        );
        prefix_vals.pop();
    } else if on_exact_path {
        *matched = false;
    }
    if hi_in_range && gap.hi_coord != gap.lo_coord {
        let child = rel.child(node, gap.hi_coord);
        prefix_vals.push(gap.hi_val);
        explore_rec(
            rel,
            atom,
            n_attrs,
            t,
            child,
            false,
            prefix_vals,
            cursor,
            gaps,
            stats,
            matched,
        );
        prefix_vals.pop();
    }
}

/// Builds the constraint `⟨…equalities at the atom's GAO positions…,
/// (lo, hi)⟩` for a gap found at atom depth `prefix_vals.len()`.
pub(crate) fn make_gap_constraint(
    atom: &Atom,
    n_attrs: usize,
    prefix_vals: &[Val],
    lo: Val,
    hi: Val,
) -> Constraint {
    let p = prefix_vals.len();
    let interval_pos = atom.attrs[p];
    debug_assert!(interval_pos < n_attrs);
    let mut comps = vec![PatternComp::Star; interval_pos];
    for (j, &v) in prefix_vals.iter().enumerate() {
        comps[atom.attrs[j]] = PatternComp::Eq(v);
    }
    Constraint::new(Pattern(comps), lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minesweeper_cds::{NEG_INF, POS_INF};
    use minesweeper_storage::{builder, RelId};

    /// An unconfined chain-mode probe loop over `q`, capped at `cap`.
    fn whole<'a>(db: &'a Database, q: &'a Query, cap: usize) -> ShardProbe<'a> {
        let ctx = ProbeCtx {
            db,
            query: q,
            mode: ProbeMode::Chain,
            inv: None,
        };
        ShardProbe::open(&ctx, ShardSpec::unbounded(), &[], cap, None)
    }

    #[test]
    fn gap_constraint_positions() {
        // Atom over GAO positions (0, 2) of a 3-attribute query: a gap at
        // depth 1 must place its equality at position 0, a star at 1, and
        // the interval at 2.
        let atom = Atom {
            rel: RelId(0),
            attrs: vec![0, 2],
        };
        let c = make_gap_constraint(&atom, 3, &[42], 5, 9);
        assert_eq!(
            c.pattern,
            Pattern(vec![PatternComp::Eq(42), PatternComp::Star])
        );
        assert_eq!((c.lo, c.hi), (5, 9));
        // Depth 0: interval at position 0, no pattern.
        let c = make_gap_constraint(&atom, 3, &[], NEG_INF, POS_INF);
        assert_eq!(c.pattern, Pattern::empty());
    }

    #[test]
    fn stream_yields_incrementally_and_is_fused() {
        let mut db = Database::new();
        let r = db.add(builder::unary("R", [1, 3, 5, 7])).unwrap();
        let s = db.add(builder::unary("S", [3, 4, 7, 9])).unwrap();
        let q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
        let mut stream = whole(&db, &q, usize::MAX);
        assert_eq!(stream.next(), Some(vec![3]));
        let mid = stream.stats();
        assert_eq!(mid.outputs, 1);
        assert!(mid.find_gap_calls > 0, "mid-stream stats are live");
        assert_eq!(stream.next(), Some(vec![7]));
        assert_eq!(stream.next(), None);
        assert_eq!(stream.next(), None, "fused after exhaustion");
        assert_eq!(stream.stats().outputs, 2);
        assert!(stream.into_shard_stats().completed);
    }

    #[test]
    fn early_termination_skips_probe_work() {
        // Example B.2's shape: |C| = O(1) but Z = N. Taking one tuple must
        // not pay for the remaining N − 1.
        let n: Val = 512;
        let mut db = Database::new();
        let r = db.add(builder::unary("R", 1..=n)).unwrap();
        let s = db
            .add(builder::binary("S", (1..=n).map(|i| (n, 10 * i))))
            .unwrap();
        let q = Query::new(2).atom(r, &[0]).atom(s, &[0, 1]);
        let mut stream = whole(&db, &q, 1);
        assert!(stream.next().is_some());
        assert_eq!(stream.next(), None, "capped");
        let early = stream.stats();
        // The evidence tuple exists, and its probe work stays unreported.
        assert!(stream.evidence().is_some());
        assert_eq!(stream.stats(), early);
        assert!(!stream.into_shard_stats().completed);
        let mut full = whole(&db, &q, usize::MAX);
        let all: Vec<Tuple> = std::iter::from_fn(|| full.next()).collect();
        assert_eq!(all.len(), n as usize);
        assert_eq!(full.evidence(), None, "the cap was never reached");
        let total = full.stats();
        assert!(
            early.probe_points * 8 < total.probe_points,
            "early stop must probe far less: {} vs {}",
            early.probe_points,
            total.probe_points
        );
    }
}
