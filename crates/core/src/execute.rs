//! The one way to run a plan: `open → pull → finish`.
//!
//! The paper has exactly one evaluator — Algorithm 2's probe loop emitting
//! tuples in global attribute order — and every execution mode is a
//! *restriction* of that loop: a shard (pre-seeded interval constraints),
//! a literal (pre-seeded equality constraints), a limit (stop pulling).
//! A [`Run`] names the restrictions, [`PreparedExec::open`] turns them
//! into one [`ExecStream`], and everything else is a way of pulling it:
//!
//! * the stream itself is lazy — pull `k` tuples and the remaining
//!   certificate work is never paid; [`ExecStream::stats`] reads counters
//!   mid-flight, [`ExecStream::truncated`] asks whether a `limit` cut
//!   anything, [`ExecStream::finish`] returns the final accounting;
//! * [`PreparedExec::execute`] drains it and sorts when the plan
//!   re-indexed;
//! * [`crate::Plan::execute`] and the free [`execute`] are the
//!   bind-and-drain shorthands for callers holding a plain `&Database`.
//!
//! The stream has two arms behind one type: a probe loop on the caller's
//! thread (no spawn — also whenever at most one worker is asked for or the
//! split yields a single shard) and the channel-fed parallel pipeline of
//! [`mod@crate::sharded`], which concatenates its shards' outputs in spec
//! order. Both yield the same sequence: spec order is global order.
//!
//! **Ordering guarantee:** a stream yields tuples in certification order —
//! lexicographic in the *GAO*; the `execute` forms return them sorted
//! lexicographically in the *original* attribute numbering on every path —
//! whether or not the plan re-indexed for a non-identity GAO.

use std::sync::Arc;

use minesweeper_storage::{Database, ExecStats, ShardSpec, Tuple, Val};

use crate::gao::GaoChoice;
use crate::minesweeper::JoinResult;
use crate::plan::{plan, PreparedExec};
use crate::query::{Query, QueryError};
use crate::sharded::{ShardReport, ShardStats, ShardedStream};
use crate::stream::ShardProbe;

/// How to run a [`PreparedExec`]: the restrictions placed on the one
/// probe loop. The default is the whole output on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Run<'s> {
    /// `None` runs one probe loop on the calling thread. `Some(n)` asks
    /// the sharded engine for up to `n` workers (the shard-task count
    /// actually used is data-dependent, between 1 and `n ×`
    /// [`crate::MAX_TASKS_PER_THREAD`]) and for per-shard accounting in
    /// the report — any explicit count, `1` included; with at most one
    /// worker or one shard the loop still runs on the calling thread.
    pub threads: Option<usize>,
    /// Yield at most this many tuples — the stream's exact prefix, under
    /// any GAO and any worker count. Parallel workers are capped at the
    /// same count each and cancelled once the consumer has its prefix, so
    /// memory stays at `O(tasks × channel capacity + limit)` and the
    /// suffix's probe work is skipped.
    pub limit: Option<usize>,
    /// Equality constraints pre-seeded into the probe loop's CDS: each
    /// `(attr, value)` pair — `attr` in the **original** numbering — pins
    /// that attribute to the constant, so the loop only certifies tuples
    /// matching every seed. This is how an engine front door evaluates
    /// query literals: no synthetic relations, no re-planning — the
    /// constraint store does the selection, and the certificate the loop
    /// pays is the one for the *restricted* output space.
    pub eq_seeds: &'s [(usize, Val)],
    /// The caller's promise to pull the stream to exhaustion (it is
    /// materializing the result). Output, order and counters are the same
    /// either way; the promise only lets an unlimited parallel run hand
    /// over one batch per shard instead of one tuple at a time.
    pub drain: bool,
}

/// The stream [`PreparedExec::open`] returns: certified tuples in global
/// attribute order, translated to the caller's numbering (see the module
/// docs). Dropping it abandons the remaining work — parallel workers are
/// cancelled.
pub struct ExecStream<'a>(Arm<'a>);

// One per run, never stored in bulk; boxing the in-thread arm would cost
// the serial path an allocation per request.
#[allow(clippy::large_enum_variant)]
enum Arm<'a> {
    /// One probe loop on the calling thread; `accounted` when the run
    /// asked for a worker count and so reports its single shard.
    InThread {
        probe: ShardProbe<'a>,
        accounted: bool,
    },
    /// Shard workers feeding per-shard channels, drained in spec order.
    Sharded(ShardedStream),
}

impl Iterator for ExecStream<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        match &mut self.0 {
            Arm::InThread { probe, .. } => probe.next(),
            Arm::Sharded(s) => s.next(),
        }
    }
}

impl ExecStream<'_> {
    /// The execution counters so far: live mid-stream on the calling
    /// thread; the sum over finished shards on the parallel arm (complete
    /// and stable only through [`ExecStream::finish`]).
    pub fn stats(&self) -> ExecStats {
        match &self.0 {
            Arm::InThread { probe, .. } => probe.stats(),
            Arm::Sharded(s) => s.stats(),
        }
    }

    /// After the stream has yielded its `limit` tuples: did at least one
    /// more exist? Pulls exactly one tuple past the limit to find out —
    /// once; its probe work stays out of every reported counter.
    pub fn truncated(&mut self) -> bool {
        match &mut self.0 {
            Arm::InThread { probe, .. } => probe.evidence().is_some(),
            Arm::Sharded(s) => s.truncated(),
        }
    }

    /// Ends the run and returns its final accounting. On the parallel arm
    /// this cancels outstanding shard work and joins the workers, so the
    /// counters are complete and nothing mutates afterwards.
    pub fn finish(self) -> ShardReport {
        match self.0 {
            Arm::InThread { probe, accounted } => {
                let shard = probe.into_shard_stats();
                ShardReport {
                    stats: shard.stats.clone(),
                    shards: accounted.then(|| vec![shard]),
                }
            }
            Arm::Sharded(s) => s.finish(),
        }
    }
}

/// The outcome of draining a run: the join result (tuples sorted in the
/// *original* attribute order) plus the GAO decision that produced it and
/// the run's accounting.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Output tuples and aggregate statistics.
    pub result: JoinResult,
    /// The chosen GAO, probe mode, and elimination width.
    pub gao: GaoChoice,
    /// Per-shard slices and counters when the run asked for a worker
    /// count (see [`ShardReport::shards`]).
    pub shards: Option<Vec<ShardStats>>,
    /// True only when a [`Run::limit`] actually cut tuples. A result that
    /// merely *equals* the limit is not truncated.
    pub truncated: bool,
}

impl PreparedExec {
    /// Opens the stream for `run` — the single entry every execution mode
    /// goes through. Only probe work is paid, as tuples are pulled. `db`
    /// must be the database the plan was prepared against (it is ignored
    /// when the execution re-indexed); it is an [`Arc`] because parallel
    /// workers run detached and must co-own what they probe.
    pub fn open<'a>(&'a self, db: &'a Arc<Database>, run: &Run<'_>) -> ExecStream<'a> {
        let Some(threads) = run.threads else {
            return self.in_thread(db, None, run);
        };
        // At most one worker always yields the single unbounded shard.
        let mut specs = self.shard_specs(db, threads);
        if specs.len() <= 1 {
            return self.in_thread(db, specs.pop(), run);
        }
        let seeds = self.exec_seeds(run.eq_seeds);
        ExecStream(Arm::Sharded(ShardedStream::spawn(
            self, db, threads, specs, run, seeds,
        )))
    }

    /// The calling-thread arm of [`PreparedExec::open`], confined to
    /// `spec` when the run's split produced one.
    fn in_thread<'a>(
        &'a self,
        db: &'a Database,
        spec: Option<ShardSpec>,
        run: &Run<'_>,
    ) -> ExecStream<'a> {
        let probe = ShardProbe::open(
            &self.ctx(db),
            spec.unwrap_or_else(ShardSpec::unbounded),
            &self.exec_seeds(run.eq_seeds),
            run.limit.unwrap_or(usize::MAX),
            None,
        );
        ExecStream(Arm::InThread {
            probe,
            accounted: spec.is_some(),
        })
    }

    /// Runs to completion (modulo `run.limit`): drains
    /// [`PreparedExec::open`] and, when the plan re-indexed, sorts — so
    /// the tuples are in the original numbering's lexicographic order on
    /// every path, byte-identical across worker counts. Under a limit they
    /// are the stream's exact first `limit`, sorted.
    pub fn execute(&self, db: &Arc<Database>, run: &Run<'_>) -> Execution {
        let run = Run {
            drain: true,
            ..*run
        };
        self.drain(self.open(db, &run), run.limit)
    }

    /// [`PreparedExec::execute`] with the default [`Run`], for the
    /// `&Database` conveniences: the calling-thread arm needs no `Arc`.
    pub(crate) fn execute_in_thread(&self, db: &Database) -> Execution {
        self.drain(self.in_thread(db, None, &Run::default()), None)
    }

    fn drain(&self, mut stream: ExecStream<'_>, limit: Option<usize>) -> Execution {
        let mut tuples: Vec<Tuple> = stream.by_ref().collect();
        let truncated = limit == Some(tuples.len()) && stream.truncated();
        let report = stream.finish();
        if self.is_reindexed() {
            tuples.sort_unstable();
        } else {
            debug_assert!(
                tuples.windows(2).all(|w| w[0] < w[1]),
                "identity-GAO probe order must already be lexicographic"
            );
        }
        Execution {
            result: JoinResult {
                tuples,
                stats: report.stats,
            },
            gao: self.gao().clone(),
            shards: report.shards,
            truncated,
        }
    }
}

/// Plans and runs a query end to end: `plan(db, query)?.execute(db)` —
/// GAO selection, physical re-indexing, the right probe mode, and result
/// translation back to the caller's attribute order, exactly the paper's
/// full pipeline (nested elimination order for β-acyclic queries, Theorem
/// 2.7; minimum elimination width otherwise, Theorem 5.1).
///
/// ```
/// use minesweeper_core::{execute, Query};
/// use minesweeper_storage::{builder, Database};
///
/// let mut db = Database::new();
/// let r = db.add(builder::binary("R", [(1, 10), (2, 20)])).unwrap();
/// let s = db.add(builder::binary("S", [(10, 5), (20, 9)])).unwrap();
/// let q = Query::new(3).atom(r, &[0, 1]).atom(s, &[1, 2]);
/// let exec = execute(&db, &q).unwrap();
/// assert_eq!(exec.result.tuples, vec![vec![1, 10, 5], vec![2, 20, 9]]);
/// ```
pub fn execute(db: &Database, query: &Query) -> Result<Execution, QueryError> {
    plan(db, query)?.execute(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_join;
    use minesweeper_cds::ProbeMode;
    use minesweeper_storage::builder;

    #[test]
    fn execute_handles_identity_gao() {
        let mut db = Database::new();
        let e1 = db.add(builder::binary("E1", [(1, 2), (3, 4)])).unwrap();
        let e2 = db.add(builder::binary("E2", [(2, 5), (4, 6)])).unwrap();
        let q = Query::new(3).atom(e1, &[0, 1]).atom(e2, &[1, 2]);
        let exec = execute(&db, &q).unwrap();
        assert_eq!(exec.result.tuples, naive_join(&db, &q).unwrap());
    }

    #[test]
    fn execute_reindexes_when_identity_is_not_neo() {
        // Example B.7's query: identity is not a NEO; execute must pick
        // (C,A,B)-style order, run chain mode, and still return tuples in
        // (A,B,C) order.
        let mut db = Database::new();
        let r = db
            .add(
                minesweeper_storage::RelationBuilder::new("R", 3)
                    .tuple(&[1, 2, 3])
                    .tuple(&[4, 5, 6])
                    .tuple(&[1, 5, 3])
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let s = db.add(builder::binary("S", [(1, 3), (4, 6)])).unwrap();
        let t = db.add(builder::binary("T", [(2, 3), (5, 3)])).unwrap();
        let q = Query::new(3)
            .atom(r, &[0, 1, 2])
            .atom(s, &[0, 2])
            .atom(t, &[1, 2]);
        let exec = execute(&db, &q).unwrap();
        assert_eq!(exec.gao.mode, ProbeMode::Chain);
        assert_ne!(exec.gao.order, vec![0, 1, 2], "identity is not a NEO here");
        assert_eq!(exec.result.tuples, naive_join(&db, &q).unwrap());
    }

    #[test]
    fn execute_on_cyclic_query_uses_general_mode() {
        let mut db = Database::new();
        let e = db
            .add(builder::binary("E", [(1, 2), (2, 3), (1, 3), (3, 4)]))
            .unwrap();
        let q = Query::new(3)
            .atom(e, &[0, 1])
            .atom(e, &[1, 2])
            .atom(e, &[0, 2]);
        let exec = execute(&db, &q).unwrap();
        assert_eq!(exec.gao.mode, ProbeMode::General);
        assert_eq!(exec.gao.width, 2);
        assert_eq!(exec.result.tuples, naive_join(&db, &q).unwrap());
    }

    /// Both the identity-GAO and the re-index path must deliver the same
    /// documented order: lexicographic in the original attribute numbering
    /// (`naive_join`'s order).
    #[test]
    fn output_is_sorted_on_every_path() {
        // Identity path.
        let mut db = Database::new();
        let e1 = db
            .add(builder::binary("E1", [(3, 1), (1, 2), (2, 2), (1, 1)]))
            .unwrap();
        let e2 = db
            .add(builder::binary("E2", [(2, 9), (1, 4), (1, 1), (2, 2)]))
            .unwrap();
        let q = Query::new(3).atom(e1, &[0, 1]).atom(e2, &[1, 2]);
        let exec = execute(&db, &q).unwrap();
        assert!(
            exec.result.tuples.windows(2).all(|w| w[0] < w[1]),
            "identity path must be sorted"
        );
        // Re-index path (Example B.7 shape with denser data).
        let mut db = Database::new();
        let mut rb = minesweeper_storage::RelationBuilder::new("R", 3);
        for a in 1..=4 {
            for b in 1..=4 {
                rb.push(&[a, b, (a + b) % 3 + 1]);
            }
        }
        let r = db.add(rb.build().unwrap()).unwrap();
        let s = db
            .add(builder::binary(
                "S",
                (1..=4).flat_map(|a| [(a, 1), (a, 2), (a, 3)]),
            ))
            .unwrap();
        let t = db
            .add(builder::binary(
                "T",
                (1..=4).flat_map(|b| [(b, 1), (b, 2), (b, 3)]),
            ))
            .unwrap();
        let q = Query::new(3)
            .atom(r, &[0, 1, 2])
            .atom(s, &[0, 2])
            .atom(t, &[1, 2]);
        let exec = execute(&db, &q).unwrap();
        assert_ne!(exec.gao.order, vec![0, 1, 2]);
        assert!(!exec.result.tuples.is_empty());
        assert!(
            exec.result.tuples.windows(2).all(|w| w[0] < w[1]),
            "re-index path must be sorted too"
        );
        assert_eq!(exec.result.tuples, naive_join(&db, &q).unwrap());
    }

    #[test]
    fn execute_random_cross_check() {
        let mut seed = 0xe8ecu64;
        let mut rng = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for _ in 0..10 {
            let mut db = Database::new();
            let e1 = db
                .add(builder::binary(
                    "E1",
                    (0..20).map(|_| (rng(8) as i64, rng(8) as i64)),
                ))
                .unwrap();
            let e2 = db
                .add(builder::binary(
                    "E2",
                    (0..20).map(|_| (rng(8) as i64, rng(8) as i64)),
                ))
                .unwrap();
            let q = Query::new(3).atom(e1, &[0, 1]).atom(e2, &[1, 2]);
            let exec = execute(&db, &q).unwrap();
            assert_eq!(exec.result.tuples, naive_join(&db, &q).unwrap());
        }
    }
}
