//! Sharded parallel execution: nested splits, an ascending claim cursor,
//! and spec-order concatenation.
//!
//! The probe loop of Algorithm 2 is embarrassingly parallel in the first
//! GAO attribute: a constraint discovered while probing inside one
//! interval of that attribute's domain can never exclude a point of a
//! disjoint interval, so the loops share no state. The parallel arm of
//! [`crate::ExecStream`] exploits this:
//!
//! 1. **Partition** — the domain is split into contiguous
//!    [`ShardSpec`]s: equi-depth over the *primary* relation (the
//!    largest-fanout relation whose index starts at GAO position 0),
//!    weighted by tuples per distinct first value so skew still
//!    balances, with an **oversplit** of [`OVERSPLIT`] tasks per worker
//!    so a worker that finishes early has more to claim. A heavy value —
//!    one duplicate run holding at least twice the per-task depth — is
//!    isolated and then **nested-split on the second GAO attribute**
//!    (single-value first interval × equi-depth second intervals), so
//!    one giant duplicate run becomes many parallel tasks instead of a
//!    serial fallback.
//! 2. **Probe** — workers claim tasks through one ascending cursor: each
//!    idle worker takes the lowest unclaimed spec, so the shard the
//!    consumer needs next always starts first, and shards whose
//!    certificates turn out unbalanced do not pin the others to one
//!    worker. Each task runs an independent probe loop with its own
//!    CDS, its own [`minesweeper_storage::GapCursor`]s, and
//!    its own [`ExecStats`]; the confinement is a handful of pre-seeded
//!    constraints — depth-0 intervals for the first attribute, all-star
//!    depth-1 intervals for a nested shard's second attribute.
//! 3. **Concatenate** — every worker translates its certified tuples to
//!    the caller's attribute numbering *inside the shard task*, and the
//!    consumer reads the per-task channels one after another in spec
//!    order. Spec order is global order: [`PreparedExec::shard_specs`]
//!    emits specs in GAO order, their slices are disjoint in the plane of
//!    the first two GAO coordinates, and each shard's probe loop
//!    certifies in GAO order. So the concatenation equals the in-thread
//!    stream's **global attribute order** exactly — the output contract
//!    of the paper's §2 — with no comparison key, and a `limit` yields
//!    the in-thread stream's exact prefix under any GAO.
//!
//! There is one worker pipeline. How a worker hands tuples over is an
//! internal decision: a caller that drains an unlimited run to completion
//! ([`crate::PreparedExec::execute`]) gets one batch per shard — every
//! worker materializes its shard concurrently and none ever stalls on the
//! in-order consumer; every other run sends per-tuple batches through
//! bounded channels, giving the pipeline `O(tasks × channel capacity)`
//! memory, and the cancellation flag fires as soon as the consumer stops
//! pulling, so in-flight and queued shards stop promptly.
//!
//! Statistics: per-shard counters are kept in [`ShardStats`] and their
//! sum is the aggregate [`ExecStats`] — in particular, on an uncancelled
//! run `outputs` sums exactly to the tuple count. Total probe work
//! slightly exceeds the in-thread run's because each shard pays its own
//! warm-up probes around the boundaries; that is the usual
//! parallel-speedup trade, bounded by `O(tasks)` extra probes per
//! relation.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

use minesweeper_storage::{
    equi_depth_shards, nested_shards, second_level_profile, Database, ExecStats, ShardSpec, Tuple,
    Val, NEG_INF,
};

use crate::execute::Run;
use crate::plan::PreparedExec;
use crate::query::Query;
use crate::stream::{ProbeCtx, ShardProbe};

/// Shard tasks created per worker thread (beyond one worker): the spare
/// tasks a worker that finishes early claims. More tasks smooth
/// unbalanced certificates at the cost of `O(1)` warm-up probes per extra
/// task.
pub const OVERSPLIT: usize = 2;

/// Hard ceiling on shard tasks per requested worker: the equi-depth pass
/// makes at most `OVERSPLIT` tasks per worker and each nested split of a
/// heavy value at most doubles its share, so `tasks ≤ threads ×
/// MAX_TASKS_PER_THREAD` always holds (tests pin this contract).
pub const MAX_TASKS_PER_THREAD: usize = 2 * OVERSPLIT;

/// Bounded per-shard channel capacity: the backpressure that keeps an
/// incremental parallel stream's memory at `O(tasks × CHANNEL_CAP)`
/// instead of `O(Z)` — a shard task can probe ahead of the in-order
/// consumer by at most this many tuples before its sender parks.
const CHANNEL_CAP: usize = 64;

/// One shard task's slice of the output space and the execution counters
/// its probe loop accumulated.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// The shard's slice: a first-attribute interval, plus a
    /// second-attribute interval when the shard is a nested slice of a
    /// heavy duplicate run.
    pub spec: ShardSpec,
    /// Counters of this shard's probe loop only (excluding the one-tuple
    /// truncation probe a capped shard runs).
    pub stats: ExecStats,
    /// True when the probe loop ran to exhaustion: the shard's slice of
    /// the output space is fully certified. False for shards stopped at a
    /// cap, cancelled mid-flight, or never claimed (those report zero
    /// counters).
    pub completed: bool,
}

impl ShardStats {
    fn unrun(spec: ShardSpec) -> Self {
        ShardStats {
            spec,
            stats: ExecStats::new(),
            completed: false,
        }
    }
}

/// Final accounting of a run (see [`crate::ExecStream::finish`]).
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Aggregate counters: the in-thread probe loop's, or the sum over
    /// every shard's.
    pub stats: ExecStats,
    /// Per-shard slices and counters, in output-space order, when the run
    /// asked for a worker count (`None` otherwise). Shards cancelled
    /// before they started are present with zero counters
    /// (`completed == false`), so the list always covers the whole domain
    /// and the counter sum still reconciles.
    pub shards: Option<Vec<ShardStats>>,
}

impl PreparedExec {
    /// The shard tasks a run with `threads` workers uses against `db` (also
    /// what an engine's explain inspects, see [`shard_strategy`]): picks
    /// the primary relation (largest root fanout among atoms indexed on
    /// GAO position 0 — query validation guarantees at least one), splits
    /// its first column equi-depth into up to `threads ×` [`OVERSPLIT`]
    /// tasks, and nested-splits any isolated heavy value on the second
    /// GAO attribute.
    pub fn shard_specs(&self, db: &Database, threads: usize) -> Vec<ShardSpec> {
        let ProbeCtx { db, query, .. } = self.ctx(db);
        let primary = query
            .atoms
            .iter()
            .filter(|a| a.attrs.first() == Some(&0))
            .map(|a| db.relation(a.rel))
            .max_by_key(|r| (r.root_fanout(), r.len()));
        let Some(rel) = primary.filter(|_| threads > 1) else {
            return vec![ShardSpec::unbounded()];
        };
        let values = rel.first_column();
        let weights = rel.first_level_tuple_counts();
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        // Beyond two tasks per tuple nothing below can change — every value
        // already counts as heavy and the per-task depth is already 1 — so an
        // absurd `threads` is clamped there, which keeps the arithmetic (here
        // and in `equi_depth_shards`) far from overflow.
        let tasks = threads
            .saturating_mul(OVERSPLIT)
            .min(usize::try_from(total.saturating_mul(2).max(2)).unwrap_or(usize::MAX));
        let bounds = equi_depth_shards(values, &weights, tasks);
        if total == 0 || query.n_attrs < 2 {
            return bounds.into_iter().map(ShardSpec::plain).collect();
        }
        // The same per-task depth the equi-depth pass aimed for; a
        // single-value shard holding at least twice that is worth splitting
        // again on the second attribute.
        let target = (total / tasks as u64).max(1);
        let mut specs = Vec::with_capacity(bounds.len());
        for b in bounds {
            let heavy =
                single_value_in(values, &weights, b).filter(|&(_, w)| w as u64 >= 2 * target);
            match heavy {
                Some((v, w)) => {
                    let sub_k = (w as u64).div_ceil(target).min(tasks as u64) as usize;
                    let (child_vals, child_weights) = second_attr_profile(query, db, v);
                    if child_vals.len() >= 2 && sub_k >= 2 {
                        specs.extend(nested_shards(b, &child_vals, &child_weights, sub_k));
                    } else {
                        specs.push(ShardSpec::plain(b));
                    }
                }
                None => specs.push(ShardSpec::plain(b)),
            }
        }
        debug_assert!(specs.len() <= threads.saturating_mul(MAX_TASKS_PER_THREAD));
        debug_assert!(
            specs.windows(2).all(|w| precedes(w[0], w[1])),
            "specs must be strictly ascending: {specs:?}"
        );
        specs
    }
}

/// True when every point of `a`'s slice comes strictly before every point
/// of `b`'s in the plane of the first two GAO coordinates — the order the
/// consumer concatenates shard outputs in.
fn precedes(a: ShardSpec, b: ShardSpec) -> bool {
    if a.bounds != b.bounds {
        return a.bounds.hi < b.bounds.lo;
    }
    // Slices of one heavy run: ordered by their second-attribute intervals.
    matches!((a.second, b.second), (Some(x), Some(y)) if x.hi < y.lo)
}

/// The single primary-column value covered by `b`, with its weight, if
/// there is exactly one.
fn single_value_in(
    values: &[Val],
    weights: &[usize],
    b: minesweeper_storage::ShardBounds,
) -> Option<(Val, usize)> {
    let lo = values.partition_point(|&v| v < b.lo);
    let hi = values.partition_point(|&v| v <= b.hi);
    if hi - lo == 1 {
        Some((values[lo], weights[lo]))
    } else {
        None
    }
}

/// Distinct values (and tuple weights) available for splitting the
/// *second* GAO attribute inside the heavy first value `v`: preferably
/// the second trie level of a relation indexed `(0, 1, …)` — conditioned
/// on `v` — otherwise the first level of a relation indexed on attribute
/// 1. Empty when no relation can anchor the split.
fn second_attr_profile(query: &Query, db: &Database, v: Val) -> (Vec<Val>, Vec<usize>) {
    let conditioned = query
        .atoms
        .iter()
        .filter(|a| a.attrs.len() >= 2 && a.attrs[0] == 0 && a.attrs[1] == 1)
        .map(|a| db.relation(a.rel))
        .max_by_key(|r| r.root_fanout());
    if let Some(rel) = conditioned {
        let profile = second_level_profile(rel, v);
        if !profile.0.is_empty() {
            return profile;
        }
    }
    let anchored = query
        .atoms
        .iter()
        .filter(|a| a.attrs.first() == Some(&1))
        .map(|a| db.relation(a.rel))
        .max_by_key(|r| r.root_fanout());
    match anchored {
        Some(rel) => (rel.first_column().to_vec(), rel.first_level_tuple_counts()),
        None => (Vec::new(), Vec::new()),
    }
}

/// Everything the workers of one parallel run co-own with its
/// [`ShardedStream`]: the bound execution and the caller's database, the
/// pre-seeded equality constraints, the per-shard tuple cap, the tasks
/// with their claim cursor and cancel flag, and the per-task accounting
/// slots.
struct Pipeline {
    exec: PreparedExec,
    db: Arc<Database>,
    eq_seeds: Vec<(usize, Val)>,
    cap: usize,
    /// How a worker hands tuples over. False: each tuple as it is
    /// certified (singleton batches) — the incremental pipeline with
    /// channel backpressure, wherever early cancellation matters. True:
    /// the whole shard buffered and sent as one batch at completion —
    /// full concurrency for unlimited runs drained to completion, no
    /// worker ever stalls on the in-order consumer.
    batch_per_shard: bool,
    /// The shard tasks, in spec (= global output) order.
    specs: Vec<ShardSpec>,
    /// Task `i`'s channel, taken by the worker that claims it, so the
    /// channel closes exactly when that worker is done with it.
    senders: Mutex<Vec<Option<SyncSender<Vec<Tuple>>>>>,
    /// The ascending claim cursor: the index of the next unclaimed task.
    next: AtomicUsize,
    /// Set once the consumer is gone: no task is claimed after it, and
    /// running probe loops poll it between probe points.
    cancel: Arc<AtomicBool>,
    slots: Mutex<Vec<Option<ShardStats>>>,
}

impl Pipeline {
    /// Claims the lowest unclaimed task: its index and its channel.
    /// `None` once every task is claimed or the run was cancelled.
    ///
    /// Claims are strictly ascending, which keeps the in-order consumer
    /// deadlock-free (docs/PARALLELISM.md, invariant 4): shard `i` is
    /// always claimed before any later shard a worker could be parked on,
    /// so it never waits behind one.
    fn claim(&self) -> Option<(usize, SyncSender<Vec<Tuple>>)> {
        if self.cancel.load(Ordering::Acquire) {
            return None;
        }
        // Relaxed suffices: the read-modify-write alone makes every index
        // unique, and the task itself (its sender) changes hands under the
        // `senders` mutex.
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        let mut senders = self.senders.lock().expect("claims never panic");
        Some((idx, senders.get_mut(idx)?.take()?))
    }

    /// Abandons the unclaimed tasks and stops the running probe loops.
    fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }
}

/// The worker loop: claim tasks in ascending order, run each confined
/// probe loop up to the cap plus one tuple of truncation evidence, and
/// record its accounting.
fn drive_worker(p: &Pipeline) {
    let ctx = p.exec.ctx(&p.db);
    while let Some((idx, tx)) = p.claim() {
        let cancel = Some(Arc::clone(&p.cancel));
        let mut probe = ShardProbe::open(&ctx, p.specs[idx], &p.eq_seeds, p.cap, cancel);
        if p.batch_per_shard {
            // Unlimited, so there is no cap to probe past.
            let _ = tx.send(std::iter::from_fn(|| probe.next()).collect());
        } else {
            let mut connected = true;
            while connected {
                let Some(t) = probe.next().or_else(|| probe.evidence()) else {
                    break;
                };
                connected = tx.send(vec![t]).is_ok();
            }
            if !connected {
                // The consumer tore the pipeline down: stop queued tasks
                // too.
                p.cancel();
            }
        }
        p.slots.lock().unwrap()[idx] = Some(probe.into_shard_stats());
    }
}

/// The channel-fed arm of [`crate::ExecStream`]: an incremental,
/// order-preserving parallel tuple stream.
///
/// Shard tasks run on detached background workers (co-owning the
/// database through an [`Arc`]), each sending its certified tuples —
/// already translated to the caller's attribute numbering — through a
/// bounded channel. The iterator drains those channels in spec order,
/// which is the in-thread stream's global attribute order (re-indexed GAO
/// or not; see the module docs), while later shards probe ahead no
/// further than their channel capacity allows.
///
/// Cancellation: dropping the stream cancels the claim cursor and closes
/// every channel, so unclaimed shards never start and in-flight shards
/// stop at their next probe point (a cooperative flag polled inside the
/// probe loop — a shard whose remaining work would emit nothing still
/// stops promptly). A consumer that takes `k` tuples and drops the stream
/// pays nowhere near the full probe work (the contract `msj --threads
/// --limit` relies on). [`ShardedStream::finish`] also joins the workers
/// and reads the final, stable counters.
///
/// A `limit` is enforced by the stream itself: the iterator yields at
/// most `limit` tuples — the exact global-order prefix — while each shard
/// task is also capped at `limit` certified tuples plus one
/// truncation-evidence tuple whose probe work is excluded from the
/// counters. After the limit is exhausted, [`ShardedStream::truncated`]
/// pulls exactly one tuple further to report whether the result was cut.
pub(crate) struct ShardedStream {
    /// Per-shard receivers in spec order.
    rxs: Vec<Receiver<Vec<Tuple>>>,
    /// The shard being drained; every shard before it is closed and empty.
    current: usize,
    /// The rest of the batch last received from shard `current`.
    buf: std::vec::IntoIter<Tuple>,
    /// Tuples the iterator may still yield (the global `limit`).
    remaining: usize,
    pipeline: Arc<Pipeline>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ShardedStream {
    /// Builds the one worker pipeline: `min(threads, tasks)` detached
    /// workers claim `specs` in order, probing under `eq_seeds` (execution
    /// numbering) and `run`'s limit. Only an unlimited run its caller
    /// promised to drain has its workers send one batch per shard.
    pub(crate) fn spawn(
        exec: &PreparedExec,
        db: &Arc<Database>,
        threads: usize,
        specs: Vec<ShardSpec>,
        run: &Run<'_>,
        eq_seeds: Vec<(usize, Val)>,
    ) -> Self {
        let (senders, rxs): (Vec<_>, Vec<_>) = specs
            .iter()
            .map(|_| {
                let (tx, rx) = sync_channel::<Vec<Tuple>>(CHANNEL_CAP);
                (Some(tx), rx)
            })
            .unzip();
        let workers = threads.min(specs.len());
        let pipeline = Arc::new(Pipeline {
            exec: exec.clone(),
            db: Arc::clone(db),
            eq_seeds,
            cap: run.limit.unwrap_or(usize::MAX),
            batch_per_shard: run.drain && run.limit.is_none(),
            slots: Mutex::new(vec![None; specs.len()]),
            specs,
            senders: Mutex::new(senders),
            next: AtomicUsize::new(0),
            cancel: Arc::new(AtomicBool::new(false)),
        });
        let handles = (0..workers)
            .map(|_| {
                let pipeline = Arc::clone(&pipeline);
                std::thread::spawn(move || drive_worker(&pipeline))
            })
            .collect();
        ShardedStream {
            rxs,
            current: 0,
            buf: Vec::new().into_iter(),
            remaining: pipeline.cap,
            pipeline,
            handles,
        }
    }

    /// The next tuple in global order: shard `current`'s next one, moving
    /// on to the following shard once `current`'s channel closes. `None`
    /// after the last shard (or once [`ShardedStream::finish`] closed the
    /// channels).
    fn pull(&mut self) -> Option<Tuple> {
        loop {
            if let Some(t) = self.buf.next() {
                debug_assert!(
                    {
                        let order = &self.pipeline.exec.gao().order;
                        let coord = |i: usize| order.get(i).map_or(NEG_INF, |&c| t[c]);
                        self.pipeline.specs[self.current].contains(coord(0), coord(1))
                    },
                    "shard {} emitted {t:?} outside its spec",
                    self.current
                );
                return Some(t);
            }
            match self.rxs.get(self.current)?.recv() {
                Ok(batch) => self.buf = batch.into_iter(),
                Err(_) => self.current += 1,
            }
        }
    }

    /// A live snapshot of the aggregate counters: the sum over shards
    /// whose probe loops have finished so far. Complete (and stable) only
    /// after the stream is exhausted or [`ShardedStream::finish`] ran —
    /// mid-flight it undercounts by the shards still probing.
    pub(crate) fn stats(&self) -> ExecStats {
        let mut agg = ExecStats::new();
        for s in self.pipeline.slots.lock().unwrap().iter().flatten() {
            agg.merge(&s.stats);
        }
        agg
    }

    /// Cancels outstanding work, joins the workers, and returns the
    /// final accounting: every spec is represented (cancelled shards
    /// with zero counters), the aggregate is the exact per-shard sum,
    /// and nothing mutates afterwards — what the cancellation tests
    /// assert work bounds against.
    pub(crate) fn finish(mut self) -> ShardReport {
        self.pipeline.cancel();
        self.rxs.clear(); // close every channel: unblock parked senders
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        let mut recorded = self.pipeline.slots.lock().unwrap();
        let shards: Vec<ShardStats> = self
            .pipeline
            .specs
            .iter()
            .zip(recorded.iter_mut())
            .map(|(&spec, slot)| slot.take().unwrap_or_else(|| ShardStats::unrun(spec)))
            .collect();
        drop(recorded);
        let mut stats = ExecStats::new();
        for s in &shards {
            stats.merge(&s.stats);
        }
        ShardReport {
            stats,
            shards: Some(shards),
        }
    }

    /// After the iterator has yielded its `limit` tuples, reports
    /// whether at least one more existed — the truthfulness probe behind
    /// truncation markers. Bypasses the limit to pull exactly one tuple
    /// further (shard workers emit one tuple of truncation evidence
    /// beyond their cap for exactly this call).
    pub(crate) fn truncated(&mut self) -> bool {
        self.pull().is_some()
    }
}

impl Iterator for ShardedStream {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.remaining == 0 {
            return None;
        }
        // Workers translated already, so the tuple is returned as-is.
        let t = self.pull()?;
        self.remaining -= 1;
        Some(t)
    }
}

impl Drop for ShardedStream {
    fn drop(&mut self) {
        // Idempotent teardown (also runs after `finish`): abandon
        // unclaimed tasks; the receivers drop with the stream, erroring
        // every in-flight send. Workers are detached but co-own all their
        // data, so not joining is safe.
        self.pipeline.cancel();
    }
}

/// The `strategy` value an explain reports for a shard split: `"nested"`
/// when any task is a second-attribute slice of a heavy run,
/// `"oversplit"` when there are more tasks than workers (a worker that
/// finishes early claims another), and `"equi-depth"` for a plain
/// one-task-per-worker split.
pub fn shard_strategy(specs: &[ShardSpec], threads: usize) -> &'static str {
    if specs.iter().any(|s| s.is_nested()) {
        "nested"
    } else if specs.len() > threads {
        "oversplit"
    } else {
        "equi-depth"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::{Execution, Run};
    use crate::naive::naive_join;
    use crate::plan::{plan, Plan};
    use crate::query::Query;
    use minesweeper_storage::{builder, RelationBuilder};

    /// Drains `p` on up to `threads` workers, optionally capped.
    fn sharded(p: &Plan, db: &Arc<Database>, threads: usize, limit: Option<usize>) -> Execution {
        p.prepare_exec(db)
            .unwrap()
            .execute(db, &par_run(threads, limit))
    }

    /// An uncapped-or-capped run on up to `threads` workers.
    fn par_run(threads: usize, limit: Option<usize>) -> Run<'static> {
        Run {
            threads: Some(threads),
            limit,
            ..Run::default()
        }
    }

    /// The per-shard accounting of a run that asked for a worker count.
    fn shards(e: &Execution) -> &[ShardStats] {
        e.shards.as_deref().expect("a worker count was given")
    }

    /// The in-thread stream's full sequence (certification order).
    fn serial_sequence(p: &Plan, db: &Arc<Database>) -> Vec<Tuple> {
        let exec = p.prepare_exec(db).unwrap();
        exec.open(db, &Run::default()).collect()
    }

    fn path_db(n: i64) -> (Arc<Database>, Query) {
        let mut db = Database::new();
        let e1 = db
            .add(builder::binary("E1", (0..n).map(|i| (i, (i * 7) % n))))
            .unwrap();
        let e2 = db
            .add(builder::binary("E2", (0..n).map(|i| ((i * 3) % n, i))))
            .unwrap();
        let q = Query::new(3).atom(e1, &[0, 1]).atom(e2, &[1, 2]);
        (Arc::new(db), q)
    }

    #[test]
    fn parallel_matches_serial_identity_gao() {
        let (db, q) = path_db(40);
        let p = plan(&db, &q).unwrap();
        let serial = p.execute(&db).unwrap();
        for k in [1, 2, 3, 8] {
            let par = sharded(&p, &db, k, None);
            assert_eq!(par.result.tuples, serial.result.tuples, "k={k}");
            assert_eq!(par.gao, serial.gao);
            assert!(shards(&par).len() <= k.max(1) * MAX_TASKS_PER_THREAD);
        }
    }

    #[test]
    fn parallel_matches_serial_reindexed_gao() {
        // Example B.7's shape forces a non-identity GAO (re-index path).
        let mut db = Database::new();
        let mut rb = RelationBuilder::new("R", 3);
        for a in 1..=6 {
            for b in 1..=6 {
                rb.push(&[a, b, (a * b) % 4 + 1]);
            }
        }
        let r = db.add(rb.build().unwrap()).unwrap();
        let s = db
            .add(builder::binary(
                "S",
                (1..=6).flat_map(|a| [(a, 1), (a, 2), (a, 3), (a, 4)]),
            ))
            .unwrap();
        let t = db
            .add(builder::binary("T", (1..=6).flat_map(|b| [(b, 1), (b, 3)])))
            .unwrap();
        let q = Query::new(3)
            .atom(r, &[0, 1, 2])
            .atom(s, &[0, 2])
            .atom(t, &[1, 2]);
        let db = Arc::new(db);
        let p = plan(&db, &q).unwrap();
        assert!(p.is_reindexed());
        let serial = p.execute(&db).unwrap();
        assert!(!serial.result.tuples.is_empty());
        for k in [2, 4, 16] {
            let par = sharded(&p, &db, k, None);
            assert_eq!(par.result.tuples, serial.result.tuples, "k={k}");
        }
    }

    #[test]
    fn parallel_matches_serial_cyclic_general_mode() {
        let mut db = Database::new();
        let e = db
            .add(builder::binary(
                "E",
                (0..60).map(|i: i64| (i % 12, (i * 5 + 1) % 12)),
            ))
            .unwrap();
        let q = Query::new(3)
            .atom(e, &[0, 1])
            .atom(e, &[1, 2])
            .atom(e, &[0, 2]);
        let db = Arc::new(db);
        let p = plan(&db, &q).unwrap();
        let serial = p.execute(&db).unwrap();
        let par = sharded(&p, &db, 4, None);
        assert_eq!(par.result.tuples, serial.result.tuples);
        assert_eq!(par.result.tuples, naive_join(&db, &q).unwrap());
    }

    #[test]
    fn shard_stats_sum_to_aggregate() {
        let (db, q) = path_db(50);
        let p = plan(&db, &q).unwrap();
        let par = sharded(&p, &db, 4, None);
        assert!(shards(&par).len() >= 2, "enough distinct values to shard");
        let mut sum = ExecStats::new();
        for s in shards(&par) {
            assert!(s.completed, "an unlimited run exhausts every shard");
            sum.merge(&s.stats);
        }
        assert_eq!(sum, par.result.stats);
        assert_eq!(sum.outputs as usize, par.result.tuples.len());
        // Specs are disjoint, contiguous, and cover the output space.
        check_spec_cover(shards(&par));
    }

    /// Asserts the shard list tiles the output space: plain shards are
    /// contiguous on the first attribute; a nested group shares one
    /// single-value first interval and tiles the second attribute.
    fn check_spec_cover(shards: &[ShardStats]) {
        for w in shards.windows(2) {
            let (a, b) = (w[0].spec, w[1].spec);
            if a.bounds == b.bounds {
                let (s1, s2) = (a.second.unwrap(), b.second.unwrap());
                assert_eq!(s1.hi + 1, s2.lo, "nested slices contiguous: {a} {b}");
            } else {
                assert_eq!(
                    a.bounds.hi + 1,
                    b.bounds.lo,
                    "first-attr contiguous: {a} {b}"
                );
            }
        }
    }

    #[test]
    fn more_threads_than_distinct_values() {
        // The primary is the largest-fanout attr-0 relation (S, 4 values):
        // 64 requested workers must cap at 4 shards, all non-empty.
        let mut db = Database::new();
        let r = db.add(builder::unary("R", [2, 5, 9])).unwrap();
        let s = db.add(builder::unary("S", [1, 2, 5, 9])).unwrap();
        let q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
        let db = Arc::new(db);
        let p = plan(&db, &q).unwrap();
        let par = sharded(&p, &db, 64, None);
        assert_eq!(par.result.tuples, vec![vec![2], vec![5], vec![9]]);
        assert_eq!(
            shards(&par).len(),
            4,
            "capped at the primary's distinct values"
        );
    }

    #[test]
    fn unary_duplicate_run_stays_one_shard() {
        // Every relation that could be primary holds a single distinct
        // first value and there is no second attribute to nest on: the
        // split must fall back to a single unbounded shard — no empty
        // shard, no panic.
        let mut db = Database::new();
        let r = db.add(builder::unary("R", [7])).unwrap();
        let s = db.add(builder::unary("S", [7])).unwrap();
        let q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
        let db = Arc::new(db);
        let p = plan(&db, &q).unwrap();
        let par = sharded(&p, &db, 8, None);
        assert_eq!(shards(&par).len(), 1);
        assert!(shards(&par)[0].spec.bounds.is_unbounded());
        assert!(!shards(&par)[0].spec.is_nested());
        assert_eq!(par.result.tuples, vec![vec![7]]);
    }

    #[test]
    fn giant_duplicate_run_splits_on_the_second_attribute() {
        // One giant duplicate run on the first *GAO* attribute: the
        // planner's (data-blind) nested elimination order for this path
        // shape is [2, 1, 0], so concentrating every S tuple on one value
        // of attribute 2 puts the run at execution position 0. PR 2
        // degraded this to a single serial shard; the nested split must
        // now divide the run on the second execution attribute and still
        // match the serial output byte for byte.
        let mut db = Database::new();
        let r = db
            .add(builder::binary("R", (0..200).map(|i| ((i * 7) % 200, i))))
            .unwrap();
        let s = db
            .add(builder::binary("S", (0..200).map(|i| (i, 9))))
            .unwrap();
        let q = Query::new(3).atom(r, &[0, 1]).atom(s, &[1, 2]);
        let db = Arc::new(db);
        let p = plan(&db, &q).unwrap();
        assert!(p.is_reindexed(), "precondition: the run sits at GAO 0");
        let par = sharded(&p, &db, 4, None);
        assert!(
            shards(&par).len() > 1,
            "nested split must engage: {:?}",
            shards(&par).iter().map(|s| s.spec).collect::<Vec<_>>()
        );
        assert!(shards(&par).iter().all(|s| s.spec.is_nested()));
        assert_eq!(par.result.tuples, p.execute(&db).unwrap().result.tuples);
        check_spec_cover(shards(&par));
        let mut sum = ExecStats::new();
        for s in shards(&par) {
            sum.merge(&s.stats);
        }
        assert_eq!(sum, par.result.stats, "nested shards still reconcile");
    }

    #[test]
    fn skewed_first_attribute_still_matches_serial() {
        // One heavy first value among light ones; whatever GAO and
        // primary the planner picks, the parallel result must equal the
        // serial one.
        let mut db = Database::new();
        let r = db
            .add(builder::binary(
                "R",
                (0..30).map(|i| (7, i)).chain([(1, 3), (2, 5)]),
            ))
            .unwrap();
        let s = db
            .add(builder::binary("S", (0..30).map(|i| (i, i % 5))))
            .unwrap();
        let q = Query::new(3).atom(r, &[0, 1]).atom(s, &[1, 2]);
        let db = Arc::new(db);
        let p = plan(&db, &q).unwrap();
        let par = sharded(&p, &db, 8, None);
        assert!(!shards(&par).is_empty());
        assert_eq!(par.result.tuples, p.execute(&db).unwrap().result.tuples);
        assert_eq!(
            par.result.stats.outputs as usize,
            par.result.tuples.len(),
            "aggregated outputs match the materialized count"
        );
    }

    #[test]
    fn empty_primary_relation() {
        let mut db = Database::new();
        let r = db.add(builder::unary("R", [])).unwrap();
        let s = db.add(builder::unary("S", [])).unwrap();
        let q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
        let db = Arc::new(db);
        let p = plan(&db, &q).unwrap();
        let par = sharded(&p, &db, 4, None);
        assert!(par.result.tuples.is_empty());
        assert_eq!(shards(&par).len(), 1, "no values ⇒ one unbounded shard");
    }

    #[test]
    fn limited_execution_truncates_to_the_sorted_prefix() {
        // A unary intersection has a single attribute, so the plan cannot
        // re-index and the cap yields exactly the first k of the full
        // sorted result.
        let mut db = Database::new();
        let r = db.add(builder::unary("R", 0..40)).unwrap();
        let s = db.add(builder::unary("S", (0..40).map(|i| i * 2))).unwrap();
        let q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
        let db = Arc::new(db);
        let p = plan(&db, &q).unwrap();
        assert!(!p.is_reindexed());
        let full = p.execute(&db).unwrap().result.tuples;
        assert!(full.len() > 5);
        let limited = sharded(&p, &db, 4, Some(5));
        assert_eq!(limited.result.tuples, full[..5]);
        // Every shard certified at most the cap (the truncation probe is
        // excluded from the counters).
        for s in shards(&limited) {
            assert!(s.stats.outputs <= 5, "shard over cap: {:?}", s.stats);
        }
        // A limit beyond Z changes nothing and is not "truncated".
        let all = sharded(&p, &db, 4, Some(full.len() + 10));
        assert_eq!(all.result.tuples, full);
        assert!(!all.truncated);
        assert!(limited.truncated, "the 5-cap really cut tuples");
        // A limit exactly equal to Z returns everything, un-truncated.
        let exact = sharded(&p, &db, 4, Some(full.len()));
        assert_eq!(exact.result.tuples, full);
        assert!(!exact.truncated, "equal-to-limit results are complete");
        // The unlimited path never reports truncation.
        assert!(!sharded(&p, &db, 4, None).truncated);
    }

    #[test]
    fn limited_execution_on_a_reindexed_plan_is_the_serial_sorted_prefix() {
        // The in-order drain makes the limited parallel result exact
        // under a re-indexed GAO: the same tuples the serial stream's
        // first k are, sorted in the original numbering — not merely some
        // deterministic k-subset.
        let (db, q) = path_db(40);
        let p = plan(&db, &q).unwrap();
        assert!(p.is_reindexed(), "path query re-indexes (GAO [2,1,0])");
        let full = p.execute(&db).unwrap().result.tuples;
        for k in [1, 5, 17] {
            let mut serial_prefix = serial_sequence(&p, &db);
            serial_prefix.truncate(k);
            serial_prefix.sort_unstable();
            let limited = sharded(&p, &db, 4, Some(k));
            assert_eq!(
                limited.result.tuples, serial_prefix,
                "k={k}: parallel limit must equal the serial sorted prefix"
            );
            for s in shards(&limited) {
                assert!(s.stats.outputs <= k as u64);
            }
        }
        let limited = sharded(&p, &db, 4, Some(5));
        for t in &limited.result.tuples {
            assert!(full.contains(t));
        }
    }

    #[test]
    fn sharded_stream_limit_is_the_exact_serial_stream_prefix_reindexed() {
        // Byte-identity of the *sequence* (content and order) between the
        // parallel stream under a limit and the serial stream's take(k),
        // on a re-indexed GAO — the contract of the in-order drain.
        let (db, q) = path_db(60);
        let p = plan(&db, &q).unwrap();
        assert!(p.is_reindexed());
        let prepared = p.prepare_exec(&db).unwrap();
        let serial = serial_sequence(&p, &db);
        for threads in [2, 4, 7] {
            for k in [1, 3, 11, 40] {
                let par: Vec<Tuple> = prepared.open(&db, &par_run(threads, Some(k))).collect();
                assert_eq!(par, serial[..k], "threads={threads} k={k}");
            }
        }
    }

    #[test]
    fn merge_handles_nested_shards_in_global_order() {
        // A giant duplicate run forces nested specs; the stream's drain
        // must still reproduce the serial sequence across the
        // second-attribute slices.
        let mut db = Database::new();
        let r = db
            .add(builder::binary("R", (0..200).map(|i| ((i * 7) % 200, i))))
            .unwrap();
        let s = db
            .add(builder::binary("S", (0..200).map(|i| (i, 9))))
            .unwrap();
        let q = Query::new(3).atom(r, &[0, 1]).atom(s, &[1, 2]);
        let db = Arc::new(db);
        let p = plan(&db, &q).unwrap();
        assert!(p.is_reindexed());
        let prepared = p.prepare_exec(&db).unwrap();
        let specs = prepared.shard_specs(&db, 4);
        assert!(specs.iter().any(|s| s.is_nested()), "nested split engages");
        let serial = serial_sequence(&p, &db);
        let par: Vec<Tuple> = prepared.open(&db, &par_run(4, None)).collect();
        assert_eq!(par, serial);
        let k = serial.len() / 3;
        let prefix: Vec<Tuple> = prepared.open(&db, &par_run(4, Some(k))).collect();
        assert_eq!(prefix, serial[..k]);
    }

    #[test]
    fn limited_execution_cancels_the_suffix() {
        // With a tiny cap on a large result, shards after the truncation
        // probe must be abandoned: zero counters, not completed.
        let mut db = Database::new();
        let r = db.add(builder::unary("R", 0..4000)).unwrap();
        let s = db.add(builder::unary("S", 0..4000)).unwrap();
        let q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
        let db = Arc::new(db);
        let p = plan(&db, &q).unwrap();
        let full = sharded(&p, &db, 4, None);
        let limited = sharded(&p, &db, 4, Some(1));
        assert!(limited.truncated);
        assert!(
            limited.result.stats.probe_points * 2 < full.result.stats.probe_points,
            "cancellation must skip most probe work: {} vs {}",
            limited.result.stats.probe_points,
            full.result.stats.probe_points
        );
        assert!(
            shards(&limited).iter().any(|s| !s.completed),
            "some shard was cancelled or capped"
        );
    }

    #[test]
    fn sharded_stream_yields_serial_stream_order_incrementally() {
        let (db, q) = path_db(30);
        let p = plan(&db, &q).unwrap();
        let serial = serial_sequence(&p, &db);
        let prepared = p.prepare_exec(&db).unwrap();
        let got: Vec<Tuple> = prepared.open(&db, &par_run(3, None)).collect();
        assert_eq!(got, serial);
        // Finish after full consumption: stable, reconciling accounting.
        let mut stream = prepared.open(&db, &par_run(3, None));
        let first = stream.next().unwrap();
        assert_eq!(first, serial[0], "incremental: first tuple mid-flight");
        let rest: Vec<Tuple> = stream.by_ref().collect();
        assert_eq!(rest.len(), serial.len() - 1);
        let report = stream.finish();
        assert_eq!(report.stats.outputs as usize, serial.len());
        let shards = report.shards.unwrap();
        assert!(shards.iter().all(|s| s.completed));
        let mut sum = ExecStats::new();
        for s in &shards {
            sum.merge(&s.stats);
        }
        assert_eq!(sum, report.stats);
    }

    #[test]
    fn dropping_a_sharded_stream_cancels_the_workers() {
        let mut db = Database::new();
        let r = db.add(builder::unary("R", 0..8000)).unwrap();
        let s = db.add(builder::unary("S", 0..8000)).unwrap();
        let q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
        let db = Arc::new(db);
        let p = plan(&db, &q).unwrap();
        let full = sharded(&p, &db, 4, None);
        let prepared = p.prepare_exec(&db).unwrap();
        let mut stream = prepared.open(&db, &par_run(4, None));
        assert!(stream.next().is_some());
        let report = stream.finish();
        assert!(
            report.stats.probe_points * 2 < full.result.stats.probe_points,
            "early finish must cancel most probe work: {} vs {}",
            report.stats.probe_points,
            full.result.stats.probe_points
        );
        let shards = report.shards.unwrap();
        assert!(shards.iter().any(|s| !s.completed));
        assert_eq!(shards.len(), prepared.shard_specs(&db, 4).len());
    }

    #[test]
    fn shard_specs_and_strategy() {
        let (db, q) = path_db(10);
        let p = plan(&db, &q).unwrap();
        assert_eq!(shards(&sharded(&p, &db, 0, None)).len(), 1, "0 workers = 1");
        let specs = p.prepare_exec(&db).unwrap().shard_specs(&db, 4);
        assert!(!specs.is_empty() && specs.len() <= 4 * MAX_TASKS_PER_THREAD);
        assert_eq!(shard_strategy(&specs, 4), "oversplit");
        assert_eq!(shard_strategy(&specs[..1], 4), "equi-depth");
    }
}
