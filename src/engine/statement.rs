//! Statement execution: one stream per statement, pulled three ways.
//!
//! A [`PreparedStatement`] resolves its [`ExecOptions`] to an evaluator
//! exactly once, where it opens its [`StatementStream`]: the Minesweeper
//! evaluators are the live [`minesweeper_core::ExecStream`] of the cached
//! plan (on the calling thread or sharded — the stream type is the same),
//! a registry baseline is the rows it materialized. Everything else pulls
//! that stream: [`PreparedStatement::stream`] hands it out,
//! [`PreparedStatement::execute`] drains it into sorted rows, and
//! [`crate::render::write_body`] writes it.

use std::sync::Arc;
use std::time::Instant;

use minesweeper_baselines::lookup_configured;
use minesweeper_core::{
    shard_strategy, ExecStream, ExplainCache, ExplainPlan, ExplainShards, ExplainStorage,
    MinesweeperPar, Plan, Run, ShardStats,
};
use minesweeper_storage::{ColumnType, Database, Dictionary, ExecStats, Tuple, Val, Value};

use super::cache::CachedStatement;
use super::catalog::decode;
use super::{EngineError, ExecOptions};

/// Pipeline description shared by every sharded-execution explain (the
/// `strategy` field carries the data-dependent variant).
const SHARD_DETAIL: &str = "equi-depth shard tasks of the first GAO attribute (nested \
                            second-attribute splits for heavy runs) claimed in ascending order, \
                            outputs concatenated in spec order";

/// True when `deadline` is set and has passed. Callers poll this between
/// tuples — `Instant::now()` is tens of nanoseconds, far below one probe.
fn deadline_expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// The materialized outcome of [`PreparedStatement::execute`].
#[derive(Debug, Clone)]
pub struct StatementResult {
    /// Output column names (hidden literal positions excluded).
    pub columns: Vec<String>,
    /// Decoded rows.
    pub rows: Vec<Vec<Value>>,
    /// Execution counters, when [`ExecOptions::collect_stats`] was set.
    pub stats: Option<ExecStats>,
    /// Per-shard counters, when the sharded engine ran with stats.
    pub shards: Option<Vec<ShardStats>>,
    /// True when a `limit` actually cut materialized rows; a result that
    /// merely equals the limit is complete and not flagged.
    pub truncated: bool,
}

/// A prepared query handle (see [`super::Engine::prepare`]): parsing,
/// planning, and any GAO re-indexing are already done and cached;
/// `execute` / `stream` go straight to the probe loop. A statement owns
/// `Arc` snapshots of the database and dictionary taken at prepare time,
/// so any number can be live at once and **later writes never change what
/// a statement returns** — snapshot isolation; re-prepare to observe a new
/// version.
pub struct PreparedStatement {
    /// The database version this statement is bound to.
    pub(super) db: Arc<Database>,
    /// Dictionary snapshot for decode (append-only, ≥ the db snapshot).
    pub(super) dict: Arc<Dictionary>,
    pub(super) entry: Arc<CachedStatement>,
    pub(super) attr_names: Vec<String>,
    /// `visible[a]` = attribute `a` appears in the caller's output
    /// (literal-bound positions are hidden).
    pub(super) visible: Vec<bool>,
    /// Equality seeds `(attr, encoded value)` from query literals,
    /// original numbering.
    pub(super) seeds: Vec<(usize, Val)>,
    /// True when a string literal can never match any stored value in
    /// this statement's snapshot (it was never interned): the statement's
    /// result is empty without running anything.
    pub(super) vacuous: bool,
    pub(super) hit: bool,
}

impl PreparedStatement {
    /// Output column names (hidden literal positions excluded).
    pub fn columns(&self) -> Vec<String> {
        self.attr_names
            .iter()
            .zip(&self.visible)
            .filter(|&(_, &v)| v)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// The cached plan.
    pub fn plan(&self) -> &Plan {
        &self.entry.plan
    }

    /// Stable identity of the cached plan: equal ids ⇒ the statements
    /// share one plan and one set of re-indexed relations.
    pub fn plan_id(&self) -> u64 {
        self.entry.id
    }

    /// True when this statement was served from the engine's cache (its
    /// plan and re-indexed relations were built by an earlier prepare).
    pub fn cache_hit(&self) -> bool {
        self.hit
    }

    /// True when every relation this statement touches still carries the
    /// version it was prepared against in `db`. A service holding
    /// statements across requests (the `PREPARE` verb) checks this before
    /// each execution: a statement always answers from its own snapshot
    /// (isolation), so a `false` here means re-preparing is required for
    /// the execution to observe later writes.
    pub fn is_current(&self, db: &Database) -> bool {
        self.entry
            .versions
            .iter()
            .all(|&(rel, version)| db.version(rel) == version)
    }

    /// The evaluator `opts` resolves to, as data: which engine runs, how
    /// many workers (explicit `threads`, or `minesweeper-par`'s hardware
    /// default), or which registry baseline. The CLI and the server both
    /// branch on this (rather than re-deriving it from flag
    /// combinations), and the server's admission control prices a
    /// request by its [`DispatchKind::worker_cost`].
    pub fn dispatch_kind(&self, opts: &ExecOptions) -> Result<DispatchKind, EngineError> {
        Ok(match self.dispatch(opts)? {
            Dispatch::Minesweeper(None) => DispatchKind::Serial,
            Dispatch::Minesweeper(Some(t)) => DispatchKind::Parallel(t),
            Dispatch::Baseline(a) => DispatchKind::Baseline(a.name().to_string()),
        })
    }

    /// The structured explanation for an execution with `opts`: the
    /// plan's decisions plus attribute/relation names, the shard strategy
    /// (when `opts` selects the parallel engine), and the cache
    /// provenance. Serialize with [`ExplainPlan::to_json`]; render with
    /// [`ExplainPlan::render`].
    ///
    /// The shard strategy is data-dependent, so a parallel explain binds
    /// the statement's execution (building the GAO re-index when the
    /// plan demands one) to inspect the *actual* split. That bind fills
    /// the same per-shape cache a later `execute` reuses — the cost is
    /// paid at most once per query shape, not per explain.
    pub fn explain(&self, opts: &ExecOptions) -> Result<ExplainPlan, EngineError> {
        let dispatch = self.dispatch(opts)?;
        let mut ep = crate::text::named_explain_plan(&self.db, &self.entry.plan, &self.attr_names);
        ep.cache = Some(ExplainCache {
            hit: self.hit,
            plan_id: self.entry.id,
        });
        let (dense, words) = self
            .entry
            .query
            .atoms
            .iter()
            .fold((0u64, 0u64), |(d, w), a| {
                let t = self.db.probe_target(a.rel);
                (d + t.dense_runs(), w + t.words_total())
            });
        ep.storage = Some(ExplainStorage {
            leaf: self.db.leaf_policy().label().to_string(),
            dense_leaves: dense,
            bitset_words: words,
        });
        match dispatch {
            Dispatch::Minesweeper(Some(threads)) => {
                let specs = self.entry.exec(&self.db).shard_specs(&self.db, threads);
                ep.shards = Some(ExplainShards {
                    threads,
                    tasks: specs.len(),
                    strategy: shard_strategy(&specs, threads).to_string(),
                    detail: SHARD_DETAIL.to_string(),
                });
            }
            Dispatch::Baseline(algo) => ep.algorithm = algo.name().to_string(),
            Dispatch::Minesweeper(None) => {}
        }
        Ok(ep)
    }

    /// Resolves the evaluator `opts` selects.
    fn dispatch(&self, opts: &ExecOptions) -> Result<Dispatch, EngineError> {
        // Any explicit thread count — including 1 — selects the sharded
        // engine, so callers asking for "the threaded engine, one worker"
        // get real shard accounting rather than a silent serial fallback.
        let threads = (opts.threads > 0).then_some(opts.threads);
        let Some(name) = opts.algo.as_deref() else {
            return Ok(Dispatch::Minesweeper(threads));
        };
        let algo = lookup_configured(name, threads)
            .ok_or_else(|| EngineError::UnknownAlgorithm(name.to_string()))?;
        Ok(match algo.name() {
            // The cached plan paths: the registry entries would re-plan
            // per call, the cache must not.
            "minesweeper" => Dispatch::Minesweeper(threads),
            "minesweeper-par" => Dispatch::Minesweeper(Some(
                threads.unwrap_or_else(|| MinesweeperPar::default().threads),
            )),
            _ => Dispatch::Baseline(algo),
        })
    }

    /// Opens the statement's stream — the one place the dispatch is
    /// matched; `execute`, `stream` and the renderer all pull what this
    /// returns. With `materialize` the evaluation happens here and the
    /// stream serves the finished, sorted rows: nothing has been handed
    /// out yet, so a deadline that expires meanwhile is an error rather
    /// than a cut result, and the returned stream no longer watches the
    /// clock.
    pub(crate) fn open(
        &self,
        opts: &ExecOptions,
        materialize: bool,
    ) -> Result<StatementStream<'_>, EngineError> {
        let deadline = opts.deadline.filter(|_| materialize);
        if deadline_expired(deadline) {
            return Err(EngineError::DeadlineExceeded);
        }
        // Resolved even for a vacuous statement, so unknown names are
        // still rejected.
        let dispatch = self.dispatch(opts)?;
        let inner = match dispatch {
            _ if self.vacuous => Inner::rows(Vec::new(), ExecStats::new(), opts.limit),
            Dispatch::Minesweeper(threads) => {
                let run = Run {
                    threads,
                    limit: opts.limit,
                    eq_seeds: &self.seeds,
                    // Under a deadline the drain must stay interruptible
                    // between tuples.
                    drain: materialize && opts.deadline.is_none(),
                };
                let live = self.entry.exec(&self.db).open(&self.db, &run);
                if materialize {
                    self.drain(live, opts)?
                } else {
                    Inner::Live(live)
                }
            }
            Dispatch::Baseline(algo) => {
                // Baselines run the unconstrained shape to completion —
                // no yield points, so that is where a deadline is
                // honoured; literal seeds filter, and the limit
                // truncates, afterwards.
                let res = algo.run(&self.db, &self.entry.query)?;
                if deadline_expired(deadline) {
                    return Err(EngineError::DeadlineExceeded);
                }
                let tuples = res
                    .tuples
                    .into_iter()
                    .filter(|t| self.seeds.iter().all(|&(a, v)| t[a] == v))
                    .collect();
                Inner::rows(tuples, res.stats, opts.limit)
            }
        };
        Ok(StatementStream {
            stmt: self,
            inner,
            remaining: opts.limit.unwrap_or(usize::MAX),
            deadline: opts.deadline.filter(|_| !materialize),
            expired: false,
        })
    }

    /// Drains a live stream (up to the limit, watching the deadline
    /// between tuples — the early return drops the stream, which cancels
    /// queued and in-flight shard work) and sorts the tuples into the
    /// query's attribute order, keeping the run's accounting and its
    /// truncation evidence.
    fn drain(
        &self,
        mut live: ExecStream<'_>,
        opts: &ExecOptions,
    ) -> Result<Inner<'_>, EngineError> {
        let cap = opts.limit.unwrap_or(usize::MAX);
        let mut tuples: Vec<Tuple> = Vec::new();
        while tuples.len() < cap {
            if deadline_expired(opts.deadline) {
                return Err(EngineError::DeadlineExceeded);
            }
            match live.next() {
                Some(t) => tuples.push(t),
                None => break,
            }
        }
        let rest = if tuples.len() == cap && live.truncated() {
            Remainder::AtLeastOne
        } else {
            Remainder::None
        };
        let report = live.finish();
        if self.entry.plan.is_reindexed() {
            tuples.sort_unstable();
        }
        Ok(Inner::Rows {
            rows: tuples.into_iter(),
            stats: report.stats,
            shards: report.shards,
            rest,
        })
    }

    /// Runs the statement to completion (modulo `limit`) and decodes the
    /// result. Rows are sorted lexicographically in the query's attribute
    /// order — for every evaluator, so results are directly comparable
    /// across `algo` choices. An expired [`ExecOptions::deadline`] is
    /// [`EngineError::DeadlineExceeded`], never a partial result.
    pub fn execute(&self, opts: &ExecOptions) -> Result<StatementResult, EngineError> {
        let mut stream = self.open(opts, true)?;
        let rows: Vec<Vec<Value>> = stream.by_ref().collect();
        let truncated = stream.truncated();
        let (stats, shards) = stream.finish();
        Ok(StatementResult {
            columns: self.columns(),
            rows,
            stats: opts.collect_stats.then_some(stats),
            shards: shards.filter(|_| opts.collect_stats),
            truncated,
        })
    }

    /// The visible cells of one stored tuple with their column types —
    /// what the row codec decodes or prints.
    fn visible_cells<'t>(&'t self, t: &'t [Val]) -> impl Iterator<Item = (Val, ColumnType)> + 't {
        let cells = t.iter().zip(&self.entry.attr_types).zip(&self.visible);
        cells
            .filter(|&(_, &visible)| visible)
            .map(|((&v, &ty), _)| (v, ty))
    }

    /// Opens a decoded stream over the statement.
    ///
    /// With the Minesweeper evaluators the stream is **lazy**: rows are
    /// yielded as the probe loop certifies them (global attribute order),
    /// and dropping the stream early skips the remaining certificate
    /// work. Asked for `threads`, shard tasks run on background workers
    /// feeding bounded channels that are drained in spec order, rows
    /// arrive **byte-identical to the in-thread sequence** (re-indexed
    /// GAO or not), and dropping the stream cancels queued and in-flight
    /// shards — `--limit` and `--threads` compose exactly. Baselines
    /// materialize eagerly and the stream then yields the rows. Either
    /// way `opts.limit` caps the yielded rows.
    pub fn stream(&self, opts: &ExecOptions) -> Result<StatementStream<'_>, EngineError> {
        self.open(opts, false)
    }
}

/// The evaluator an [`ExecOptions`] resolves to.
enum Dispatch {
    /// The cached plan's probe loop: on the calling thread (`None`) or
    /// sharded over this many workers.
    Minesweeper(Option<usize>),
    Baseline(Box<dyn minesweeper_core::Algorithm>),
}

/// The public form of the dispatch decision (see
/// [`PreparedStatement::dispatch_kind`]): which evaluator an
/// [`ExecOptions`] selects for a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchKind {
    /// The serial Minesweeper probe loop on the cached plan.
    Serial,
    /// The sharded parallel engine with this many workers.
    Parallel(usize),
    /// A registry baseline, by canonical name.
    Baseline(String),
}

impl DispatchKind {
    /// How many pool workers the request occupies while it runs — what
    /// the server's admission control debits from its global budget. A
    /// serial or baseline execution costs one worker; a parallel one
    /// costs its thread count.
    pub fn worker_cost(&self) -> usize {
        match self {
            DispatchKind::Parallel(t) => (*t).max(1),
            DispatchKind::Serial | DispatchKind::Baseline(_) => 1,
        }
    }
}

/// What a stream knows about the rows beyond its `limit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Remainder {
    /// Nothing was cut.
    None,
    /// Exactly this many rows were cut (the evaluator ran to completion).
    Exactly(usize),
    /// At least one row was cut (the evaluator stopped at the limit).
    AtLeastOne,
}

// One per request, never stored in bulk; boxing the live arm would cost
// every streamed request an allocation.
#[allow(clippy::large_enum_variant)]
enum Inner<'e> {
    /// The cached plan's probe loop, pulled as the caller pulls.
    Live(ExecStream<'e>),
    /// Rows already materialized — a baseline's, a vacuous statement's,
    /// or a drained live stream's — already cut to the limit, with the
    /// final accounting.
    Rows {
        rows: std::vec::IntoIter<Tuple>,
        stats: ExecStats,
        shards: Option<Vec<ShardStats>>,
        rest: Remainder,
    },
}

impl Inner<'_> {
    /// The pre-materialized arm over a complete result: truncates to
    /// `limit`, so the exact remainder is known.
    fn rows(mut tuples: Vec<Tuple>, stats: ExecStats, limit: Option<usize>) -> Self {
        let total = tuples.len();
        tuples.truncate(limit.unwrap_or(total));
        Inner::Rows {
            rest: match total - tuples.len() {
                0 => Remainder::None,
                n => Remainder::Exactly(n),
            },
            rows: tuples.into_iter(),
            stats,
            shards: None,
        }
    }
}

/// A decoded row stream (see [`PreparedStatement::stream`]), borrowing
/// its statement — and through it the database and dictionary snapshots,
/// so neither probing nor decoding ever takes a lock.
pub struct StatementStream<'e> {
    stmt: &'e PreparedStatement,
    inner: Inner<'e>,
    /// Rows the iterator may still yield (the `limit`); checked before
    /// the deadline, so a complete prefix is never reported as expired.
    remaining: usize,
    /// Clock bound from [`ExecOptions::deadline`], checked before every
    /// yield; once it passes, the stream reports exhaustion and
    /// [`StatementStream::deadline_expired`] turns true.
    deadline: Option<Instant>,
    expired: bool,
}

impl StatementStream<'_> {
    /// Execution counters so far (live mid-stream on the calling thread;
    /// the sum over finished shards on the parallel path — use
    /// [`StatementStream::finish`] for final, stable parallel counters;
    /// complete from the start on materialized paths).
    pub fn stats(&self) -> ExecStats {
        match &self.inner {
            Inner::Live(s) => s.stats(),
            Inner::Rows { stats, .. } => stats.clone(),
        }
    }

    /// True when the stream stopped because its deadline passed rather
    /// than because the result (or its `limit`) was exhausted. Callers
    /// that saw `next()` return `None` branch on this to tell a complete
    /// body from a cancelled one.
    pub fn deadline_expired(&self) -> bool {
        self.expired
    }

    /// Whether at least one row existed beyond the `limit` the stream
    /// has yielded — the truthfulness check behind truncation markers.
    /// A live stream probes exactly one tuple past the limit to find out
    /// (parallel workers emit one tuple of truncation evidence beyond the
    /// cap for exactly this); that probe stays out of the counters.
    pub fn truncated(&mut self) -> bool {
        self.remainder() != Remainder::None
    }

    /// [`StatementStream::truncated`] with the count, where it is known.
    pub(crate) fn remainder(&mut self) -> Remainder {
        match &mut self.inner {
            Inner::Rows { rest, .. } => *rest,
            // Only past the limit: pulling any earlier would eat a row.
            Inner::Live(s) => {
                if self.remaining == 0 && s.truncated() {
                    Remainder::AtLeastOne
                } else {
                    Remainder::None
                }
            }
        }
    }

    /// Consumes the stream and returns final counters: on the parallel
    /// path this cancels outstanding shard work, joins the workers, and
    /// returns the complete per-shard breakdown; baselines return their
    /// counters with no shard list.
    pub fn finish(self) -> (ExecStats, Option<Vec<ShardStats>>) {
        match self.inner {
            Inner::Live(s) => {
                let report = s.finish();
                (report.stats, report.shards)
            }
            Inner::Rows { stats, shards, .. } => (stats, shards),
        }
    }

    /// The next undecoded tuple, honouring the limit and the deadline.
    fn next_tuple(&mut self) -> Option<Tuple> {
        if self.remaining == 0 || self.expired {
            return None;
        }
        if deadline_expired(self.deadline) {
            // The underlying stream is simply never pulled again; when
            // it drops (or `finish` consumes it), queued and in-flight
            // shard work is cancelled — the disconnect path's machinery,
            // triggered by the clock instead of a failed write.
            self.expired = true;
            return None;
        }
        self.remaining -= 1;
        match &mut self.inner {
            Inner::Live(s) => s.next(),
            Inner::Rows { rows, .. } => rows.next(),
        }
    }
}

impl Iterator for StatementStream<'_> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        let t = self.next_tuple()?;
        Some(decode(self.stmt.visible_cells(&t), &self.stmt.dict))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            Inner::Live(_) => (0, Some(self.remaining)),
            Inner::Rows { rows, .. } => rows.size_hint(),
        }
    }
}
