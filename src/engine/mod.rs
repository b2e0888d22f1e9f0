//! The engine front door: prepared statements over a typed catalog.
//!
//! The paper's certificate bound `Õ(|C| + Z)` (Theorem 3.2) is a statement
//! about the *probe loop* — it assumes the ordered indexes consistent with
//! the GAO already exist. A service that re-plans and physically re-indexes
//! on every call pays that setup cost per query; a service whose domain is
//! raw `i64` cannot speak real workloads at all. [`Engine`] closes both
//! gaps:
//!
//! * it owns the [`Database`] **plus a schema catalog** (per-column
//!   [`ColumnType`]s) and a [`Dictionary`] that interns string values into
//!   the storage-level integer domain at the input boundary and decodes
//!   them back at the output boundary — the hot path never sees a string;
//! * [`Engine::prepare`] parses a query once and returns a
//!   [`PreparedStatement`] backed by a cache **keyed by query shape**
//!   holding the parsed [`Query`], the [`Plan`], *and the GAO-re-indexed
//!   relations* ([`minesweeper_core::PreparedExec`]) — repeated executions
//!   skip straight to the probe loop, and the
//!   [`minesweeper_core::ExplainPlan`] reports the
//!   cache hit and a stable plan identity. Query literals (`F(a, "jfk")`)
//!   become equality constraints **pre-seeded into the probe loop's CDS**,
//!   so differently-parameterized statements of one shape share a single
//!   cache entry and the catalog/dictionary are never touched by queries —
//!   which is also why `prepare` takes `&self` and any number of
//!   statements can be alive at once;
//! * a single [`ExecOptions`] (`algo`, `threads`, `limit`,
//!   `collect_stats`) replaces per-call-site knobs, and every evaluator —
//!   serial Minesweeper, the sharded `minesweeper-par`, and each baseline
//!   in the registry — dispatches through the same
//!   [`PreparedStatement::execute`] / [`PreparedStatement::stream`] path.
//!
//! ```
//! use minesweeper_join::engine::{Engine, ExecOptions};
//! use minesweeper_join::storage::{ColumnType, Value};
//!
//! let mut engine = Engine::new();
//! engine
//!     .add_relation(
//!         "Flight",
//!         &[ColumnType::Str, ColumnType::Str],
//!         [
//!             vec![Value::from("jfk"), Value::from("lhr")],
//!             vec![Value::from("lhr"), Value::from("nrt")],
//!             vec![Value::from("sfo"), Value::from("jfk")],
//!         ],
//!     )
//!     .unwrap();
//! // Two-hop itineraries; planning and any re-indexing happen once.
//! let stmt = engine.prepare("Flight(a, b), Flight(b, c)").unwrap();
//! let result = stmt.execute(&ExecOptions::default()).unwrap();
//! assert_eq!(result.columns, vec!["a", "b", "c"]);
//! assert_eq!(
//!     result.rows[0],
//!     vec![Value::from("jfk"), Value::from("lhr"), Value::from("nrt")]
//! );
//! // String literals constrain a position to a constant; both statements
//! // can be held at the same time.
//! let hubs = engine.prepare("Flight(a, \"jfk\")").unwrap();
//! assert_eq!(
//!     hubs.execute(&ExecOptions::default()).unwrap().rows,
//!     vec![vec![Value::from("sfo")]]
//! );
//! assert_eq!(stmt.execute(&ExecOptions::default()).unwrap().rows, result.rows);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use minesweeper_core::{plan, Atom, Plan, PreparedExec, Query, QueryError};
use minesweeper_durability::{
    Batch as WalBatch, CellOp, DurabilityCounters, DurabilityOptions, DurableStore, Opened,
    RelationDump, WalRecord,
};
use minesweeper_storage::{
    value::MAX_DOMAIN_VALUE, ColumnType, Database, Dictionary, LeafPolicy, RelId, RelationBuilder,
    StorageError, TrieRelation, Tuple, Val, Value, WriteOp, WriteOutcome,
};

use crate::text::{parse_query_ast, parse_typed_relation, QueryArg, TextError};

mod statement;

pub(crate) use statement::Remainder;
pub use statement::{DispatchKind, PreparedStatement, StatementResult, StatementStream};

/// Errors from the engine front door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Query / relation text failed to parse or resolve.
    Text(TextError),
    /// Planning or execution rejected the query.
    Query(QueryError),
    /// The storage catalog rejected an operation.
    Storage(String),
    /// An attribute is bound to columns of conflicting types (or a
    /// literal's type does not match its column).
    TypeMismatch {
        /// The attribute's name.
        attr: String,
        /// Type seen first (for literals: the column's type).
        expected: ColumnType,
        /// Conflicting type.
        found: ColumnType,
    },
    /// A row's cell count does not match the declared column count.
    RowArity {
        /// Relation being loaded.
        relation: String,
        /// Declared column count.
        expected: usize,
        /// Cells found in the offending row.
        got: usize,
    },
    /// A row cell does not match the declared column type.
    ValueType {
        /// Relation being loaded.
        relation: String,
        /// 0-based column.
        column: usize,
        /// The declared type the cell violated.
        expected: ColumnType,
    },
    /// `ExecOptions::algo` named no registered algorithm.
    UnknownAlgorithm(String),
    /// The execution deadline ([`ExecOptions::deadline`]) passed before
    /// the statement completed. The query itself was fine — this reports
    /// an execution cut short, so it is *not* a query rejection.
    DeadlineExceeded,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Text(e) => write!(f, "{e}"),
            EngineError::Query(e) => write!(f, "{e}"),
            EngineError::Storage(msg) => write!(f, "{msg}"),
            EngineError::TypeMismatch {
                attr,
                expected,
                found,
            } => write!(
                f,
                "attribute {attr} is bound to both {expected} and {found} columns"
            ),
            EngineError::RowArity {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation {relation}: row has {got} cells but {expected} columns are declared"
            ),
            EngineError::ValueType {
                relation,
                column,
                expected,
            } => write!(
                f,
                "relation {relation} column {column}: value does not match declared type \
                 {expected}"
            ),
            EngineError::UnknownAlgorithm(name) => write!(f, "unknown algorithm {name:?}"),
            EngineError::DeadlineExceeded => write!(f, "query deadline exceeded"),
        }
    }
}

impl EngineError {
    /// The stable protocol error code for this error — what `msj serve`
    /// puts on an `ERR <code> <message>` response line (see
    /// `docs/SERVICE.md`). Codes are part of the wire contract: they
    /// name error *categories*, never message text, so clients can
    /// switch on them across releases.
    pub fn code(&self) -> &'static str {
        match self {
            EngineError::Text(_) => "PARSE",
            EngineError::Query(_) => "PLAN",
            EngineError::Storage(_) => "STORAGE",
            EngineError::TypeMismatch { .. } => "TYPE",
            EngineError::RowArity { .. } | EngineError::ValueType { .. } => "LOAD",
            EngineError::UnknownAlgorithm(_) => "ALGO",
            EngineError::DeadlineExceeded => "DEADLINE",
        }
    }

    /// True when the error rejects the *request itself* (unparseable or
    /// unplannable query text, a type conflict, an unknown algorithm)
    /// rather than reporting a failure while executing it. The CLI maps
    /// the two classes to distinct process exit codes (3 vs. 1).
    pub fn is_query_rejection(&self) -> bool {
        matches!(
            self,
            EngineError::Text(_)
                | EngineError::Query(_)
                | EngineError::TypeMismatch { .. }
                | EngineError::UnknownAlgorithm(_)
        )
    }
}

impl std::error::Error for EngineError {}

impl From<TextError> for EngineError {
    fn from(e: TextError) -> Self {
        EngineError::Text(e)
    }
}

impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::Query(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e.to_string())
    }
}

/// Execution knobs — the one options struct every evaluator honours.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Evaluator name or alias from the registry (`None` = the planned
    /// Minesweeper engine; `"minesweeper-par"` = the sharded engine).
    pub algo: Option<String>,
    /// Worker threads. `0` (the default) runs serially; any explicit
    /// count — including `1` — selects the sharded parallel engine for
    /// the Minesweeper evaluators (baselines ignore it).
    pub threads: usize,
    /// Cap on materialized output tuples. The serial engine pushes the
    /// limit into the probe loop; the parallel engine stops its
    /// global-order merge at the cap and cancels queued and in-flight
    /// shards (memory `O(tasks × channel capacity + limit)`), returning
    /// the exact serial prefix; baselines truncate after running to
    /// completion.
    pub limit: Option<usize>,
    /// Attach [`minesweeper_storage::ExecStats`] (and per-shard stats,
    /// when sharded) to the result.
    pub collect_stats: bool,
    /// Cancel execution at this instant. Streaming paths stop yielding
    /// (see [`StatementStream::deadline_expired`]) and materializing
    /// paths return [`EngineError::DeadlineExceeded`]; either way the
    /// remaining probe work — queued and in-flight shards included — is
    /// abandoned. Baseline evaluators run to completion and honour the
    /// deadline only when they finish. `None` (the default) never
    /// expires and leaves every execution path exactly as it was.
    pub deadline: Option<Instant>,
}

impl ExecOptions {
    /// Selects an evaluator by registry name or alias.
    pub fn with_algo(mut self, name: impl Into<String>) -> Self {
        self.algo = Some(name.into());
        self
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Caps materialized output.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Requests statistics on the result.
    pub fn with_stats(mut self) -> Self {
        self.collect_stats = true;
        self
    }

    /// Sets the execution deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One row-level write in an [`Engine::apply_batch`] batch, with typed
/// cells (the write-path twin of the typed rows [`Engine::add_relation`]
/// loads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowOp {
    /// Add a row (no-op if present — set semantics).
    Insert(Vec<Value>),
    /// Remove a row (no-op if absent).
    Delete(Vec<Value>),
}

impl RowOp {
    /// The row the operation carries.
    pub fn row(&self) -> &[Value] {
        match self {
            RowOp::Insert(r) | RowOp::Delete(r) => r,
        }
    }
}

/// How a durable engine came up (see [`Engine::open_durable`]).
#[derive(Debug)]
pub enum DurableBoot {
    /// A new data directory: the caller loads initial relations, then
    /// writes the boot checkpoint.
    Fresh,
    /// An existing directory was recovered losslessly.
    Recovered(RecoveryReport),
}

/// What a recovery did — surfaced on `msj serve` startup.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The checkpoint the catalog was rebuilt from.
    pub checkpoint_id: u64,
    /// Relations restored from that checkpoint.
    pub relations: usize,
    /// WAL tail records replayed on top of it.
    pub replayed_records: u64,
    /// Conditions recovery tolerated (torn final line, an invalid newest
    /// checkpoint it fell back past).
    pub warnings: Vec<String>,
}

/// What one checkpoint wrote (see [`Engine::checkpoint`]).
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport {
    /// The published checkpoint's sequence number.
    pub id: u64,
    /// Relations dumped.
    pub relations: usize,
    /// Total rows across all dumps.
    pub rows: u64,
}

/// The WAL text form of one typed row (integers print, strings pass
/// through; escaping happens at the record layer).
fn cells_of(row: &[Value]) -> Vec<String> {
    row.iter()
        .map(|cell| match cell {
            Value::Int(v) => v.to_string(),
            Value::Str(s) => s.clone(),
        })
        .collect()
}

/// Decodes one stored tuple back to text cells for a checkpoint dump —
/// the exact inverse of the loader's encoding.
fn decode_cells(tuple: &[Val], types: &[ColumnType], dict: &Dictionary) -> Vec<String> {
    tuple
        .iter()
        .zip(types)
        .map(|(&v, ty)| match ty {
            ColumnType::Int => v.to_string(),
            ColumnType::Str => dict
                .resolve(v)
                .expect("stored string ids always resolve")
                .to_string(),
        })
        .collect()
}

/// Parses a checkpoint manifest's column-type tokens back into the
/// schema catalog's types.
fn parse_type_tokens(relation: &str, tokens: &[String]) -> Result<Vec<ColumnType>, EngineError> {
    tokens
        .iter()
        .map(|t| match t.as_str() {
            "int" => Ok(ColumnType::Int),
            "str" => Ok(ColumnType::Str),
            other => Err(EngineError::Storage(format!(
                "checkpoint manifest: relation {relation} has unknown column type {other:?}"
            ))),
        })
        .collect()
}

/// Declared shape of one stored relation.
#[derive(Debug, Clone)]
struct RelSchema {
    cols: Vec<ColumnType>,
}

/// One cached prepared-statement entry: everything repeated executions of
/// a query *shape* reuse — differently-parameterized literals share it,
/// since literal values live in per-statement seed constraints, not here.
/// Shared (`Arc`) between the cache and the statements hitting it — also
/// across threads, which is what lets one engine serve many connections.
#[derive(Debug)]
struct CachedStatement {
    /// Stable plan identity: statements reporting the same id share one
    /// plan and one set of re-indexed relations.
    id: u64,
    /// The query (original numbering) over the engine's database.
    query: Query,
    /// The planning decisions.
    plan: Plan,
    /// The bound execution: owns the GAO-re-indexed relations when the
    /// plan demanded them — the expensive half of the cache. Built
    /// lazily on the first Minesweeper-path execution, so statements
    /// dispatched to a baseline never pay the physical re-index.
    /// `OnceLock`, so concurrent first executions race safely and every
    /// later one reads the same bound state.
    exec: OnceLock<PreparedExec>,
    /// Per-attribute value types (decode map).
    attr_types: Vec<ColumnType>,
    /// `(relation, version)` for every relation the query touches, at plan
    /// time. A later prepare whose database disagrees treats the entry as
    /// stale — the write path's cache-invalidation key (see
    /// `docs/STORAGE.md`). Writes to relations *not* listed here leave the
    /// entry warm.
    versions: Vec<(RelId, u64)>,
}

impl CachedStatement {
    /// The bound execution, built (at most once, then cached) on first
    /// use. `plan()` already validated the query against this immutable
    /// catalog, so the bind cannot newly fail.
    fn exec(&self, db: &Database) -> &PreparedExec {
        self.exec.get_or_init(|| {
            self.plan
                .prepare_exec(db)
                .expect("query validated when the plan was built")
        })
    }
}

/// The engine front door (see the module docs). Loading relations takes
/// `&mut self`; preparing and executing statements take `&self`, so any
/// number of prepared statements can be alive concurrently.
///
/// The engine is `Send + Sync`: once loaded it can sit behind an
/// `Arc<Engine>` shared by many connection threads — the statement cache
/// is the shared hot state (`RwLock`-protected, read-mostly), and a
/// cached entry's expensive bound execution is a `OnceLock` so exactly
/// one thread pays any physical re-index. This is the contract the
/// `msj serve` front door (see [`crate::server`]) is built on.
#[derive(Debug)]
pub struct Engine {
    /// The current database version, behind a copy-on-write `Arc`: readers
    /// (prepared statements, detached parallel streams) clone the `Arc`
    /// once and never lock again — that clone *is* their snapshot, kept
    /// alive across any number of later writes. Writers take the write
    /// lock briefly to `Arc::make_mut` (cheap: relations are `Arc`-shared
    /// inside) and swap in the next version. See `docs/STORAGE.md`.
    db: RwLock<Arc<Database>>,
    schemas: Vec<RelSchema>,
    /// Copy-on-write like `db`: decode paths hold an `Arc` snapshot and
    /// never lock; write batches interning new strings clone-on-write.
    /// The dictionary only ever grows, so any newer snapshot decodes any
    /// older database version.
    dict: RwLock<Arc<Dictionary>>,
    cache: RwLock<HashMap<String, Arc<CachedStatement>>>,
    next_plan_id: AtomicU64,
    /// The write-ahead log + checkpoint store when the engine is durable
    /// (see [`Engine::open_durable`]); `None` for in-memory engines.
    /// Locked only inside the `db` write lock, so WAL order equals
    /// commit order by construction.
    durability: Option<Mutex<DurableStore>>,
    /// Threshold-triggered compaction after writes (default on): when a
    /// batch leaves a relation's delta above
    /// [`minesweeper_storage::COMPACT_DELTA_RATIO`], the engine folds it
    /// immediately, under the same write lock. Content-neutral —
    /// versions, cached plans, and reader snapshots are unaffected.
    auto_compact: AtomicBool,
    auto_compactions: AtomicU64,
    /// Query-text parses performed by [`Engine::prepare`]. Deliberately
    /// *not* a cache-hit counter: it counts trips through the text front
    /// end, which is exactly the work the service's `PREPARE`/`EXEC`
    /// verbs exist to skip — `EXEC` never bumps it, so the counter stays
    /// flat across repeated executions of a prepared statement.
    parses: AtomicU64,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            db: RwLock::default(),
            schemas: Vec::new(),
            dict: RwLock::default(),
            cache: RwLock::default(),
            next_plan_id: AtomicU64::new(0),
            durability: None,
            auto_compact: AtomicBool::new(true),
            auto_compactions: AtomicU64::new(0),
            parses: AtomicU64::new(0),
        }
    }
}

// The service front door shares one engine across connection threads;
// losing either marker is an API break, so fail at compile time, not in
// a server stress test.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<EngineError>();
};

impl Engine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing integer database: every column is catalogued as
    /// [`ColumnType::Int`], so embedded callers migrating from the raw
    /// `Database` API keep their exact semantics.
    pub fn from_database(db: Database) -> Self {
        let schemas = db
            .iter()
            .map(|(_, r)| RelSchema {
                cols: vec![ColumnType::Int; r.arity()],
            })
            .collect();
        Engine {
            db: RwLock::new(Arc::new(db)),
            schemas,
            ..Self::default()
        }
    }

    /// A snapshot of the current database version (encoded values). The
    /// returned `Arc` stays valid — and unchanged — across later writes;
    /// call again to observe them.
    pub fn db(&self) -> Arc<Database> {
        self.db.read().unwrap().clone()
    }

    /// A snapshot of the engine's string dictionary (append-only: any
    /// snapshot decodes any database version no newer than itself).
    pub fn dict(&self) -> Arc<Dictionary> {
        self.dict.read().unwrap().clone()
    }

    /// The declared column types of a stored relation.
    pub fn schema(&self, rel: RelId) -> &[ColumnType] {
        &self.schemas[rel.0].cols
    }

    /// Adds a typed relation: rows are checked against `types`, string
    /// cells are interned through the dictionary, and the encoded tuples
    /// are indexed exactly like native integers. Equality joins are
    /// preserved by any injective encoding, so the decoded result of a
    /// join over encoded relations equals the string-level join.
    pub fn add_relation(
        &mut self,
        name: &str,
        types: &[ColumnType],
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<RelId, EngineError> {
        let mut b = RelationBuilder::new(name, types.len());
        let mut buf: Tuple = vec![0; types.len()];
        let dict = Arc::make_mut(self.dict.get_mut().unwrap());
        for row in rows {
            if row.len() != types.len() {
                return Err(EngineError::RowArity {
                    relation: name.to_string(),
                    expected: types.len(),
                    got: row.len(),
                });
            }
            for (c, (cell, ty)) in row.iter().zip(types).enumerate() {
                buf[c] = match (cell, ty) {
                    (Value::Int(v), ColumnType::Int) => *v,
                    (Value::Str(s), ColumnType::Str) => dict.intern(s),
                    _ => {
                        return Err(EngineError::ValueType {
                            relation: name.to_string(),
                            column: c,
                            expected: *ty,
                        })
                    }
                };
            }
            b.push(&buf);
        }
        self.add_built(b.build()?, types.to_vec())
    }

    /// Loads a whitespace-separated tuple file (see
    /// [`crate::text::parse_typed_relation`]): column types are inferred,
    /// integer-only files stay byte-identical to the untyped path.
    pub fn load_tsv(&mut self, name: &str, text: &str) -> Result<RelId, EngineError> {
        let typed = parse_typed_relation(name, text)?;
        self.add_relation(&typed.name, &typed.types, typed.rows)
    }

    /// Adds an already-built integer relation under an all-`Int` schema.
    pub fn add_int_relation(&mut self, rel: TrieRelation) -> Result<RelId, EngineError> {
        let types = vec![ColumnType::Int; rel.arity()];
        self.add_built(rel, types)
    }

    fn add_built(
        &mut self,
        rel: TrieRelation,
        cols: Vec<ColumnType>,
    ) -> Result<RelId, EngineError> {
        // The Arc is unique during the loading phase (statements only
        // borrow the engine), so this mutates in place; a clone happens
        // only if a detached stream from an earlier statement is still
        // running, which keeps that stream's view consistent.
        let id = Arc::make_mut(self.db.get_mut().unwrap()).add(rel)?;
        debug_assert_eq!(id.0, self.schemas.len(), "schema catalog tracks RelIds");
        self.schemas.push(RelSchema { cols });
        Ok(id)
    }

    /// Inserts typed rows into a stored relation (set semantics: rows
    /// already present are no-ops). Takes `&self` — writes go through the
    /// copy-on-write database, so statements and streams prepared earlier
    /// keep their snapshots; the relation's version is bumped iff content
    /// actually changed, invalidating cached plans over it. See
    /// `docs/STORAGE.md` for the full lifecycle contract.
    pub fn insert(
        &self,
        relation: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<WriteOutcome, EngineError> {
        self.apply_batch(relation, rows.into_iter().map(RowOp::Insert))
    }

    /// Deletes typed rows from a stored relation (rows not present are
    /// no-ops). Same snapshot/version semantics as [`Engine::insert`].
    pub fn delete(
        &self,
        relation: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<WriteOutcome, EngineError> {
        self.apply_batch(relation, rows.into_iter().map(RowOp::Delete))
    }

    /// Applies a mixed batch of inserts and deletes to one relation,
    /// atomically and in order. The whole batch is validated against the
    /// declared schema before any state changes; the returned
    /// [`WriteOutcome`] counts rows that actually changed membership.
    /// Concurrent readers are never blocked: they keep the `Arc` snapshot
    /// they already hold, and the next prepare sees the new version.
    ///
    /// On a durable engine ([`Engine::open_durable`]) the batch is
    /// appended to the write-ahead log *before* the copy-on-write swap —
    /// validation up front is exhaustive (arity, type, value domain), so
    /// a logged record can never fail to apply, and a WAL append failure
    /// aborts the batch with nothing applied.
    pub fn apply_batch(
        &self,
        relation: &str,
        ops: impl IntoIterator<Item = RowOp>,
    ) -> Result<WriteOutcome, EngineError> {
        let ops: Vec<RowOp> = ops.into_iter().collect();
        let id = self.db.read().unwrap().id_of(relation)?;
        if ops.is_empty() {
            return Ok(WriteOutcome::default());
        }
        let types = self.schemas[id.0].cols.clone();
        // Validate the whole batch before interning, logging, or applying
        // anything. The checks mirror everything `Database::apply` would
        // reject (arity, cell type, integer domain), which is what makes
        // log-before-apply safe.
        for op in &ops {
            let row = op.row();
            if row.len() != types.len() {
                return Err(EngineError::RowArity {
                    relation: relation.to_string(),
                    expected: types.len(),
                    got: row.len(),
                });
            }
            for (c, (cell, ty)) in row.iter().zip(&types).enumerate() {
                match (cell, ty) {
                    (Value::Int(v), ColumnType::Int) => {
                        if !(0..=MAX_DOMAIN_VALUE).contains(v) {
                            return Err(StorageError::ValueOutOfDomain {
                                relation: relation.to_string(),
                                value: *v,
                            }
                            .into());
                        }
                    }
                    (Value::Str(_), ColumnType::Str) => {}
                    _ => {
                        return Err(EngineError::ValueType {
                            relation: relation.to_string(),
                            column: c,
                            expected: *ty,
                        })
                    }
                }
            }
        }
        // Encode. Inserts may intern new strings (copy-on-write on the
        // dictionary); a delete naming a string the dictionary has never
        // seen cannot match any stored tuple and is dropped as a no-op
        // without polluting the dictionary.
        let mut encoded: Vec<WriteOp> = Vec::with_capacity(ops.len());
        {
            let mut dict = self.dict.write().unwrap();
            'ops: for op in &ops {
                let row = op.row();
                let mut t: Tuple = Vec::with_capacity(row.len());
                for cell in row {
                    t.push(match cell {
                        Value::Int(v) => *v,
                        Value::Str(s) => match op {
                            RowOp::Insert(_) => Arc::make_mut(&mut dict).intern(s),
                            RowOp::Delete(_) => match dict.id_of(s) {
                                Some(v) => v,
                                None => continue 'ops, // vacuous delete
                            },
                        },
                    });
                }
                encoded.push(match op {
                    RowOp::Insert(_) => WriteOp::Insert(t),
                    RowOp::Delete(_) => WriteOp::Delete(t),
                });
            }
        }
        let mut db = self.db.write().unwrap();
        // Log before the swap, under the same write lock, so the WAL's
        // record order is exactly the commit order. The record carries the
        // *original* text-level ops (vacuous deletes included — replay
        // re-drops them the same way) plus the relation's pre-batch
        // version, which recovery uses as a continuity check.
        if let Some(store) = &self.durability {
            let record = WalRecord::Batch(WalBatch {
                relation: relation.to_string(),
                version_before: db.version(id),
                ops: ops
                    .iter()
                    .map(|op| match op {
                        RowOp::Insert(row) => CellOp::Insert(cells_of(row)),
                        RowOp::Delete(row) => CellOp::Delete(cells_of(row)),
                    })
                    .collect(),
            });
            store
                .lock()
                .unwrap()
                .log(&record)
                .map_err(|e| EngineError::Storage(e.to_string()))?;
        }
        let outcome = Arc::make_mut(&mut db).apply(id, &encoded)?;
        // Threshold-triggered compaction, still under the write lock:
        // fold the delta the moment it outgrows the ratio, so read-path
        // merge overhead stays bounded without anyone asking. Not logged —
        // compaction is content-neutral and recovery re-converges on its
        // own (replayed deltas re-trigger the same threshold).
        if self.auto_compact.load(Ordering::Relaxed) && db.versioned(id).should_compact() {
            Arc::make_mut(&mut db).compact(id);
            self.auto_compactions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(outcome)
    }

    /// Whether threshold-triggered compaction after writes is enabled
    /// (see [`Engine::set_auto_compact`]; default on).
    pub fn auto_compact_enabled(&self) -> bool {
        self.auto_compact.load(Ordering::Relaxed)
    }

    /// Enables or disables threshold-triggered compaction after writes.
    /// Off restores the advise-only behavior: deltas accumulate until an
    /// explicit [`Engine::compact`] / `W COMPACT`.
    pub fn set_auto_compact(&self, on: bool) {
        self.auto_compact.store(on, Ordering::Relaxed);
    }

    /// The leaf-representation policy the catalog selects dense bitset
    /// leaves under (see [`LeafPolicy`]; default from `MSJ_LEAF`).
    pub fn leaf_policy(&self) -> LeafPolicy {
        self.db.read().unwrap().leaf_policy()
    }

    /// Switches the leaf-representation policy and rebuilds every
    /// relation's hybrid index under it. Content- and version-neutral:
    /// cached plans and snapshots held by running readers are unaffected.
    pub fn set_leaf_policy(&self, policy: LeafPolicy) {
        let mut db = self.db.write().unwrap();
        Arc::make_mut(&mut db).set_leaf_policy(policy);
    }

    /// How many threshold-triggered compactions the engine has performed.
    pub fn auto_compactions(&self) -> u64 {
        self.auto_compactions.load(Ordering::Relaxed)
    }

    /// How many query texts [`Engine::prepare`] has parsed. Executing an
    /// already-prepared statement never parses, so a service holding
    /// statements across requests (the `PREPARE`/`EXEC` verbs) keeps
    /// this flat — the deterministic evidence that the text front end
    /// was skipped.
    pub fn query_parses(&self) -> u64 {
        self.parses.load(Ordering::Relaxed)
    }

    /// Current version counter of a relation (bumped per content-changing
    /// batch; the cache-invalidation key).
    pub fn relation_version(&self, relation: &str) -> Result<u64, EngineError> {
        let db = self.db.read().unwrap();
        Ok(db.version(db.id_of(relation)?))
    }

    /// Folds one relation's write delta into a fresh immutable base.
    /// Content-neutral: versions, cached plans, and snapshots held by
    /// running readers are all unaffected. Returns false when the delta
    /// was already empty.
    pub fn compact_relation(&self, relation: &str) -> Result<bool, EngineError> {
        let mut db = self.db.write().unwrap();
        let id = db.id_of(relation)?;
        Ok(Arc::make_mut(&mut db).compact(id))
    }

    /// Compacts every relation with pending writes; returns how many were
    /// folded.
    pub fn compact(&self) -> usize {
        let mut db = self.db.write().unwrap();
        Arc::make_mut(&mut db).compact_all()
    }

    /// Types one text row against a declared schema, with exactly the
    /// rules the TSV loader and the `W INSERT` wire path use: integer
    /// columns parse the token, string columns take it verbatim. Shared
    /// by the server session and WAL replay, so a replayed record is
    /// typed bit-for-bit like the live request that produced it.
    pub fn type_row(
        relation: &str,
        types: &[ColumnType],
        cells: &[String],
    ) -> Result<Vec<Value>, EngineError> {
        if cells.len() != types.len() {
            return Err(EngineError::RowArity {
                relation: relation.to_string(),
                expected: types.len(),
                got: cells.len(),
            });
        }
        cells
            .iter()
            .zip(types)
            .enumerate()
            .map(|(c, (cell, ty))| match ty {
                ColumnType::Int => {
                    cell.parse()
                        .map(Value::Int)
                        .map_err(|_| EngineError::ValueType {
                            relation: relation.to_string(),
                            column: c,
                            expected: ColumnType::Int,
                        })
                }
                ColumnType::Str => Ok(Value::Str(cell.clone())),
            })
            .collect()
    }

    /// Opens a durable engine over a data directory (see
    /// `docs/DURABILITY.md`): creates the directory layout on first boot,
    /// or recovers — newest valid checkpoint, then WAL-tail replay
    /// through the normal typed write path — on every later one. The
    /// returned [`DurableBoot`] says which happened; after a fresh boot
    /// the caller loads its initial relations and calls
    /// [`Engine::checkpoint`] once before accepting writes.
    pub fn open_durable(
        dir: &Path,
        options: DurabilityOptions,
    ) -> Result<(Engine, DurableBoot), EngineError> {
        let opened =
            DurableStore::open(dir, options).map_err(|e| EngineError::Storage(e.to_string()))?;
        let mut engine = Engine::new();
        match opened {
            Opened::Fresh(store) => {
                engine.durability = Some(Mutex::new(store));
                Ok((engine, DurableBoot::Fresh))
            }
            Opened::Recovered(store, recovery) => {
                // Rebuild the catalog from the checkpoint dumps. Strings
                // re-intern in row order; ids may differ from the crashed
                // process, but every decoded answer is byte-identical —
                // the dictionary is an equality-preserving encoding, not
                // persisted state.
                for dump in &recovery.relations {
                    let types = parse_type_tokens(&dump.name, &dump.types)?;
                    let rows = dump
                        .rows
                        .iter()
                        .map(|cells| Self::type_row(&dump.name, &types, cells))
                        .collect::<Result<Vec<_>, _>>()?;
                    let id = engine.add_relation(&dump.name, &types, rows)?;
                    Arc::make_mut(engine.db.get_mut().unwrap()).restore_version(id, dump.version);
                }
                // Replay the tail through the public write path —
                // durability is not attached yet, so nothing re-logs.
                let mut replayed = 0u64;
                for rec in &recovery.tail {
                    match &rec.record {
                        WalRecord::Batch(batch) => {
                            let version = engine.relation_version(&batch.relation)?;
                            if version != batch.version_before {
                                return Err(EngineError::Storage(format!(
                                    "wal record {} expects relation {} at version {}, found {} — \
                                     the log does not continue this checkpoint",
                                    rec.lsn, batch.relation, batch.version_before, version
                                )));
                            }
                            let id = engine.db.get_mut().unwrap().id_of(&batch.relation)?;
                            let types = engine.schemas[id.0].cols.clone();
                            let ops = batch
                                .ops
                                .iter()
                                .map(|op| {
                                    Ok(match op {
                                        CellOp::Insert(cells) => RowOp::Insert(Self::type_row(
                                            &batch.relation,
                                            &types,
                                            cells,
                                        )?),
                                        CellOp::Delete(cells) => RowOp::Delete(Self::type_row(
                                            &batch.relation,
                                            &types,
                                            cells,
                                        )?),
                                    })
                                })
                                .collect::<Result<Vec<_>, EngineError>>()?;
                            engine.apply_batch(&batch.relation, ops)?;
                        }
                        WalRecord::Compact { relation } => match relation {
                            Some(rel) => {
                                engine.compact_relation(rel)?;
                            }
                            None => {
                                engine.compact();
                            }
                        },
                    }
                    replayed += 1;
                }
                let report = RecoveryReport {
                    checkpoint_id: recovery.checkpoint_id,
                    relations: recovery.relations.len(),
                    replayed_records: replayed,
                    warnings: recovery.warnings,
                };
                engine.durability = Some(Mutex::new(store));
                Ok((engine, DurableBoot::Recovered(report)))
            }
        }
    }

    /// True when this engine logs to a data directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durability counters `STATS` reports; `None` on an in-memory
    /// engine.
    pub fn durability_stats(&self) -> Option<DurabilityCounters> {
        self.durability
            .as_ref()
            .map(|store| store.lock().unwrap().counters())
    }

    /// Writes a checkpoint: fsyncs the WAL, pins its position together
    /// with a consistent database snapshot (both under the write lock),
    /// dumps every relation's decoded rows outside the lock, publishes
    /// atomically, and prunes old checkpoints plus the WAL segments
    /// nothing retained still needs. Logs a `COMPACT`-free, read-only
    /// view — concurrent readers are unaffected; writers wait only for
    /// the position pin, then queue behind the WAL mutex until the dump
    /// is published. Returns `None` on an in-memory engine.
    pub fn checkpoint(&self) -> Result<Option<CheckpointReport>, EngineError> {
        let Some(store) = &self.durability else {
            return Ok(None);
        };
        // Pin (position, snapshot) atomically: holding the db read lock
        // excludes committers (they need the write lock), so no batch
        // can land between the two. Lock order is db before the WAL
        // mutex, the same order `apply_batch` uses — taking the store
        // mutex first would deadlock against a concurrent writer.
        let (pos, next_lsn, db, mut store) = {
            let db = self.db.read().unwrap();
            let mut store = store.lock().unwrap();
            let (pos, next_lsn) = store
                .sync_position()
                .map_err(|e| EngineError::Storage(e.to_string()))?;
            (pos, next_lsn, (*db).clone(), store)
        };
        let dict = self.dict.read().unwrap().clone();
        let mut dumps = Vec::with_capacity(db.len());
        let mut rows_total = 0u64;
        for (id, rel) in db.iter() {
            let types = &self.schemas[id.0].cols;
            let mut rows = Vec::with_capacity(rel.len());
            for tuple in rel.iter_tuples() {
                rows.push(decode_cells(&tuple, types, &dict));
            }
            rows_total += rows.len() as u64;
            dumps.push(RelationDump {
                name: rel.name().to_string(),
                types: types.iter().map(|t| t.to_string()).collect(),
                version: db.version(id),
                rows,
            });
        }
        let manifest = store
            .commit_checkpoint(pos, next_lsn, &dumps)
            .map_err(|e| EngineError::Storage(e.to_string()))?;
        Ok(Some(CheckpointReport {
            id: manifest.id,
            relations: dumps.len(),
            rows: rows_total,
        }))
    }

    /// Writes a checkpoint iff the periodic policy
    /// ([`DurabilityOptions::checkpoint_every`]) says one is due — the
    /// call servers make after each write.
    pub fn maybe_checkpoint(&self) -> Result<Option<CheckpointReport>, EngineError> {
        let due = match &self.durability {
            Some(store) => store.lock().unwrap().checkpoint_due(),
            None => false,
        };
        if due {
            self.checkpoint()
        } else {
            Ok(None)
        }
    }

    /// Logs an explicit compaction (`W COMPACT`) to the WAL, then
    /// performs it. Threshold-triggered compactions are *not* logged —
    /// they are content-neutral and recovery re-triggers them — but an
    /// explicit one is a client-visible command, so replay repeats it.
    pub fn compact_logged(&self, relation: Option<&str>) -> Result<usize, EngineError> {
        let mut db = self.db.write().unwrap();
        if let Some(rel) = relation {
            db.id_of(rel)?; // validate before logging
        }
        if let Some(store) = &self.durability {
            let record = WalRecord::Compact {
                relation: relation.map(|r| r.to_string()),
            };
            store
                .lock()
                .unwrap()
                .log(&record)
                .map_err(|e| EngineError::Storage(e.to_string()))?;
        }
        Ok(match relation {
            Some(rel) => {
                let id = db.id_of(rel)?;
                Arc::make_mut(&mut db).compact(id) as usize
            }
            None => Arc::make_mut(&mut db).compact_all(),
        })
    }

    /// Parses and prepares a query. Planning, GAO selection, and any
    /// physical re-indexing happen **at most once per query shape per
    /// data version**: a repeat prepare (different variable names,
    /// different literal values) returns the cached plan and re-indexed
    /// relations, and every [`PreparedStatement::execute`] after that
    /// goes straight to the probe loop. A write to a relation the shape
    /// touches bumps that relation's version and the next prepare
    /// rebuilds the entry; writes elsewhere leave it warm. Literals never
    /// touch the catalog or dictionary — they become pre-seeded CDS
    /// constraints on this statement.
    ///
    /// The statement is bound to the engine's **current snapshot**: later
    /// writes never change what it returns (snapshot isolation);
    /// re-prepare to observe them.
    pub fn prepare(&self, text: &str) -> Result<PreparedStatement, EngineError> {
        self.parses.fetch_add(1, Ordering::Relaxed);
        let db = self.db();
        let dict = self.dict();
        let ast = parse_query_ast(text)?;
        // Attribute *slots* in first-appearance order: one per variable,
        // one per literal occurrence (literals become hidden attributes
        // pinned by equality seeds).
        let mut slot_ids: HashMap<String, usize> = HashMap::new();
        let mut slot_names: Vec<String> = Vec::new();
        let mut slot_visible: Vec<bool> = Vec::new();
        let mut slot_literals: Vec<(usize, QueryArg)> = Vec::new();
        let mut data_atoms: Vec<(String, Vec<usize>)> = Vec::new();
        for atom in &ast {
            let mut slots = Vec::new();
            for arg in &atom.args {
                let slot = match arg {
                    QueryArg::Var(v) => *slot_ids.entry(v.clone()).or_insert_with(|| {
                        slot_names.push(v.clone());
                        slot_visible.push(true);
                        slot_names.len() - 1
                    }),
                    QueryArg::StrLit(s) => {
                        slot_names.push(format!("{s:?}"));
                        slot_visible.push(false);
                        let a = slot_names.len() - 1;
                        slot_literals.push((a, arg.clone()));
                        a
                    }
                    QueryArg::IntLit(v) => {
                        slot_names.push(v.to_string());
                        slot_visible.push(false);
                        let a = slot_names.len() - 1;
                        slot_literals.push((a, arg.clone()));
                        a
                    }
                };
                slots.push(slot);
            }
            data_atoms.push((atom.relation.clone(), slots));
        }
        // GAO positions consistent with every atom's written column order
        // (shared with `text::parse_query`): first-appearance numbering
        // when feasible, the closest consistent reordering otherwise —
        // this is what lets a literal sit before an already-bound
        // variable, as in `F(a, b), F("jfk", b)`.
        let pos = crate::text::assign_gao_positions(slot_names.len(), &data_atoms)?;
        let n = slot_names.len();
        let mut attr_names = vec![String::new(); n];
        let mut visible = vec![false; n];
        for slot in 0..n {
            attr_names[pos[slot]] = slot_names[slot].clone();
            visible[pos[slot]] = slot_visible[slot];
        }
        let mut query = Query::new(n);
        for (name, slots) in data_atoms {
            let rel = db
                .id_of(&name)
                .map_err(|_| TextError::UnknownRelation(name.clone()))?;
            let arity = db.relation(rel).arity();
            if arity != slots.len() {
                return Err(TextError::AtomArity {
                    relation: name,
                    atom: slots.len(),
                    relation_arity: arity,
                }
                .into());
            }
            query.atoms.push(Atom {
                rel,
                attrs: slots.iter().map(|&s| pos[s]).collect(),
            });
        }
        let (entry, hit) = self.entry_for(&db, &query, &attr_names)?;
        // Literals: type-check against the column the slot landed in,
        // then encode as equality seeds. A string the dictionary snapshot
        // has never seen cannot occur in this statement's database
        // snapshot (interning happens before a write lands), so the
        // statement is vacuously empty.
        let mut seeds: Vec<(usize, Val)> = Vec::new();
        let mut vacuous = false;
        for (slot, arg) in slot_literals {
            let attr = pos[slot];
            let column_ty = entry.attr_types[attr];
            let lit_ty = match arg {
                QueryArg::StrLit(_) => ColumnType::Str,
                QueryArg::IntLit(_) => ColumnType::Int,
                QueryArg::Var(_) => unreachable!("only literals are recorded"),
            };
            if lit_ty != column_ty {
                return Err(EngineError::TypeMismatch {
                    attr: attr_names[attr].clone(),
                    expected: column_ty,
                    found: lit_ty,
                });
            }
            match arg {
                QueryArg::IntLit(v) => seeds.push((attr, v)),
                QueryArg::StrLit(s) => match dict.id_of(&s) {
                    Some(id) => seeds.push((attr, id)),
                    None => vacuous = true,
                },
                QueryArg::Var(_) => unreachable!(),
            }
        }
        Ok(PreparedStatement {
            db,
            dict,
            entry,
            attr_names,
            visible,
            seeds,
            vacuous,
            hit,
        })
    }

    /// Prepares an already-built [`Query`] over this engine's database —
    /// the programmatic twin of [`Engine::prepare`], sharing the same
    /// plan/re-index cache (bench harnesses and embedded callers use
    /// this). Attributes are named by position (`a0`, `a1`, …).
    pub fn prepare_query(&self, query: &Query) -> Result<PreparedStatement, EngineError> {
        let db = self.db();
        let attr_names: Vec<String> = (0..query.n_attrs).map(|a| format!("a{a}")).collect();
        let (entry, hit) = self.entry_for(&db, query, &attr_names)?;
        Ok(PreparedStatement {
            db,
            dict: self.dict(),
            entry,
            visible: vec![true; attr_names.len()],
            attr_names,
            seeds: Vec::new(),
            vacuous: false,
            hit,
        })
    }

    /// Cache lookup / population for a structural query against one
    /// database snapshot. An entry hits only when the versions of every
    /// relation the shape touches still match `db` — a write to one of
    /// them bumps its version and the stale entry is rebuilt (and
    /// replaced) here; writes to other relations leave it warm.
    fn entry_for(
        &self,
        db: &Arc<Database>,
        query: &Query,
        attr_names: &[String],
    ) -> Result<(Arc<CachedStatement>, bool), EngineError> {
        // Guard stale handles before any indexing: a Query built against
        // a different database must error, not panic.
        if let Some(atom) = query.atoms.iter().find(|a| a.rel.0 >= db.len()) {
            return Err(EngineError::Storage(format!(
                "relation id {} is not in this engine's catalog",
                atom.rel.0
            )));
        }
        let mut rels: Vec<RelId> = query.atoms.iter().map(|a| a.rel).collect();
        rels.sort_unstable();
        rels.dedup();
        let versions: Vec<(RelId, u64)> = rels.into_iter().map(|r| (r, db.version(r))).collect();
        let key = shape_key(query);
        if let Some(entry) = self.cache.read().unwrap().get(&key) {
            if entry.versions == versions {
                return Ok((Arc::clone(entry), true));
            }
        }
        // Plan outside any lock: planning is pure and read-only, so two
        // threads racing on a cold shape at worst both plan — the loser's
        // entry is discarded below, keeping plan identity one-per-shape
        // (per data version).
        let attr_types = self.unify_attr_types(query, attr_names)?;
        let plan = plan(db, query)?;
        let mut cache = self.cache.write().unwrap();
        if let Some(entry) = cache.get(&key) {
            if entry.versions == versions {
                return Ok((Arc::clone(entry), true));
            }
        }
        let id = self.next_plan_id.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(CachedStatement {
            id,
            query: query.clone(),
            plan,
            exec: OnceLock::new(),
            attr_types,
            versions,
        });
        cache.insert(key, Arc::clone(&entry));
        Ok((entry, false))
    }

    /// Derives each attribute's value type from the columns binding it,
    /// rejecting conflicting bindings.
    fn unify_attr_types(
        &self,
        query: &Query,
        attr_names: &[String],
    ) -> Result<Vec<ColumnType>, EngineError> {
        let mut types: Vec<Option<ColumnType>> = vec![None; query.n_attrs];
        for atom in &query.atoms {
            let schema = &self.schemas[atom.rel.0];
            for (col, &a) in atom.attrs.iter().enumerate() {
                let Some(&ty) = schema.cols.get(col) else {
                    continue; // arity mismatch; plan() reports it properly
                };
                match types.get(a).copied().flatten() {
                    None => {
                        if let Some(slot) = types.get_mut(a) {
                            *slot = Some(ty);
                        }
                    }
                    Some(prev) if prev != ty => {
                        return Err(EngineError::TypeMismatch {
                            attr: attr_names
                                .get(a)
                                .cloned()
                                .unwrap_or_else(|| format!("a{a}")),
                            expected: prev,
                            found: ty,
                        });
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(types
            .into_iter()
            .map(|t| t.unwrap_or(ColumnType::Int))
            .collect())
    }
}

/// A structural cache key: two query texts with the same atoms over the
/// same relations — whatever the variables are called, whatever constants
/// the literals carry — share one entry.
fn shape_key(query: &Query) -> String {
    use std::fmt::Write;
    let mut key = format!("{}", query.n_attrs);
    for atom in &query.atoms {
        let _ = write!(key, "|{}:{:?}", atom.rel.0, atom.attrs);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use minesweeper_core::ExplainCache;

    fn flights_engine() -> Engine {
        let mut e = Engine::new();
        e.add_relation(
            "F",
            &[ColumnType::Str, ColumnType::Str],
            [
                vec![Value::from("jfk"), Value::from("lhr")],
                vec![Value::from("lhr"), Value::from("nrt")],
                vec![Value::from("sfo"), Value::from("jfk")],
                vec![Value::from("jfk"), Value::from("nrt")],
            ],
        )
        .unwrap();
        e
    }

    #[test]
    fn string_join_round_trips() {
        let e = flights_engine();
        let stmt = e.prepare("F(a, b), F(b, c)").unwrap();
        assert!(!stmt.cache_hit());
        let res = stmt.execute(&ExecOptions::default()).unwrap();
        assert_eq!(res.columns, vec!["a", "b", "c"]);
        let rows: Vec<Vec<&str>> = res
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.as_str().unwrap()).collect())
            .collect();
        assert!(rows.contains(&vec!["jfk", "lhr", "nrt"]));
        assert!(rows.contains(&vec!["sfo", "jfk", "lhr"]));
        assert!(rows.contains(&vec!["sfo", "jfk", "nrt"]));
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn repeat_prepare_hits_the_cache_with_stable_identity() {
        let e = flights_engine();
        let first = e.prepare("F(a, b), F(b, c)").unwrap();
        assert!(!first.cache_hit());
        let id0 = first.plan_id();
        // Different variable names, same shape: cache hit, same plan —
        // and both statements are alive at once.
        let stmt = e.prepare("F(x, y), F(y, z)").unwrap();
        assert!(stmt.cache_hit());
        assert_eq!(stmt.plan_id(), id0);
        assert_eq!(stmt.columns(), vec!["x", "y", "z"]);
        let ep = stmt.explain(&ExecOptions::default()).unwrap();
        assert_eq!(
            ep.cache,
            Some(ExplainCache {
                hit: true,
                plan_id: id0
            })
        );
        assert_eq!(
            first.execute(&ExecOptions::default()).unwrap().rows,
            stmt.execute(&ExecOptions::default()).unwrap().rows
        );
    }

    #[test]
    fn literal_values_share_one_cache_entry() {
        let e = flights_engine();
        let to_nrt = e.prepare("F(a, \"nrt\")").unwrap();
        let to_lhr = e.prepare("F(a, \"lhr\")").unwrap();
        let plain = e.prepare("F(a, b)").unwrap();
        // One shape, one plan — the literal is a per-statement seed.
        assert_eq!(to_nrt.plan_id(), to_lhr.plan_id());
        assert_eq!(to_nrt.plan_id(), plain.plan_id());
        assert!(to_lhr.cache_hit() && plain.cache_hit());
        let nrt = to_nrt.execute(&ExecOptions::default()).unwrap();
        assert_eq!(
            nrt.rows,
            vec![vec![Value::from("jfk")], vec![Value::from("lhr")]]
        );
        let lhr = to_lhr.execute(&ExecOptions::default()).unwrap();
        assert_eq!(lhr.rows, vec![vec![Value::from("jfk")]]);
        assert_eq!(
            plain.execute(&ExecOptions::default()).unwrap().rows.len(),
            4
        );
    }

    #[test]
    fn literals_constrain_and_are_hidden() {
        let e = flights_engine();
        let stmt = e.prepare("F(a, \"nrt\")").unwrap();
        assert_eq!(stmt.columns(), vec!["a"]);
        let res = stmt.execute(&ExecOptions::default()).unwrap();
        assert_eq!(
            res.rows,
            vec![vec![Value::from("jfk")], vec![Value::from("lhr")]]
        );
        // A literal that appears in no data row matches nothing — and
        // leaves no trace in the catalog or dictionary.
        let rels = e.db().len();
        let words = e.dict().len();
        let none = e
            .prepare("F(a, \"never-seen\")")
            .unwrap()
            .execute(&ExecOptions::default())
            .unwrap();
        assert!(none.rows.is_empty());
        assert_eq!(e.db().len(), rels, "no literal relations created");
        assert_eq!(e.dict().len(), words, "no literal interning");
    }

    #[test]
    fn int_literal_and_type_checks() {
        let mut e = Engine::new();
        e.add_relation(
            "R",
            &[ColumnType::Int, ColumnType::Str],
            [
                vec![Value::Int(1), Value::from("one")],
                vec![Value::Int(2), Value::from("two")],
            ],
        )
        .unwrap();
        let res = e
            .prepare("R(2, name)")
            .unwrap()
            .execute(&ExecOptions::default())
            .unwrap();
        assert_eq!(res.rows, vec![vec![Value::from("two")]]);
        // Binding a string literal into the int column is a type error.
        assert!(matches!(
            e.prepare("R(\"x\", name)"),
            Err(EngineError::TypeMismatch { .. })
        ));
        // And an int literal into the string column likewise.
        assert!(matches!(
            e.prepare("R(x, 7)"),
            Err(EngineError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn baseline_dispatch_never_builds_the_reindex() {
        // A shape whose written order is not a NEO: the Minesweeper path
        // must re-index, but a baseline runs on the stored indexes, so
        // the expensive bind must stay unbuilt until a planner path asks.
        let mut e = Engine::new();
        e.load_tsv("R", "1 2\n3 4\n").unwrap();
        e.load_tsv("S", "5 2\n6 4\n").unwrap();
        let stmt = e.prepare("R(a, c), S(b, c)").unwrap();
        assert!(stmt.plan().is_reindexed());
        assert!(stmt.entry.exec.get().is_none(), "lazy until needed");
        let base = stmt
            .execute(&ExecOptions::default().with_algo("naive"))
            .unwrap();
        assert!(
            stmt.entry.exec.get().is_none(),
            "baseline dispatch skips the physical re-index"
        );
        let ms = stmt.execute(&ExecOptions::default()).unwrap();
        assert!(stmt.entry.exec.get().is_some(), "built on first use");
        assert_eq!(base.rows, ms.rows);
    }

    #[test]
    fn row_arity_reported_distinctly() {
        let mut e = Engine::new();
        let err = e
            .add_relation(
                "R",
                &[ColumnType::Int, ColumnType::Int],
                [vec![Value::Int(1), Value::Int(2), Value::Int(3)]],
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::RowArity {
                    expected: 2,
                    got: 3,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("3 cells"), "{err}");
    }

    #[test]
    fn value_type_checked_at_load() {
        let mut e = Engine::new();
        let err = e
            .add_relation("R", &[ColumnType::Int], [vec![Value::from("not-an-int")]])
            .unwrap_err();
        assert!(matches!(err, EngineError::ValueType { column: 0, .. }));
    }

    #[test]
    fn unknown_algo_reported() {
        let e = flights_engine();
        let stmt = e.prepare("F(a, b)").unwrap();
        let err = stmt
            .execute(&ExecOptions::default().with_algo("quantum"))
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownAlgorithm(_)));
        assert!(
            matches!(
                stmt.dispatch_kind(&ExecOptions::default().with_algo("minesweeper-par")),
                Ok(DispatchKind::Parallel(t)) if t >= 1
            ),
            "minesweeper-par resolves to a concrete worker count"
        );
    }
}
