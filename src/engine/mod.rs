//! The engine front door: prepared statements over a typed catalog.
//!
//! The paper's certificate bound `Õ(|C| + Z)` (Theorem 3.2) is a statement
//! about the *probe loop* — it assumes the ordered indexes consistent with
//! the GAO already exist, over one ordered integer domain (§2.1). A
//! service that re-plans and physically re-indexes on every call pays that
//! setup cost per query; a service whose domain is raw `i64` cannot speak
//! real workloads at all. [`Engine`] closes both gaps. This file holds the
//! struct, [`EngineError`] and [`ExecOptions`]; the behaviour lives along
//! four seams, one file each:
//!
//! * **catalog** (`catalog.rs`) — per-relation [`ColumnType`] schemas, the
//!   [`Dictionary`], bulk load ([`Engine::add_relation`],
//!   [`Engine::load_tsv`]) and the *row codec*: the single owner of every
//!   text cell ⇄ [`minesweeper_storage::Value`] ⇄ stored-integer
//!   conversion. Strings are interned at the input boundary and decoded at
//!   the output boundary — the hot path never sees one;
//! * **write** (`write.rs`) — [`Engine::apply_batch`] and compaction over
//!   the copy-on-write [`Database`]: readers keep the `Arc` snapshot they
//!   hold, writers swap in the next version;
//! * **durability** (`durable.rs`) — [`Engine::open_durable`],
//!   [`Engine::checkpoint`] and the log-before-apply hook over the
//!   write-ahead log (`docs/DURABILITY.md`);
//! * **statement cache** (`cache.rs`) — [`Engine::prepare`] binds a query
//!   once and returns a [`PreparedStatement`] backed by a cache **keyed by
//!   query shape** holding the [`minesweeper_core::Plan`] *and the
//!   GAO-re-indexed relations* ([`minesweeper_core::PreparedExec`]), so
//!   repeated executions skip straight to the probe loop. Query literals
//!   (`F(a, "jfk")`) become equality constraints **pre-seeded into the
//!   probe loop's CDS**: differently-parameterized statements of one shape
//!   share a single entry and queries never touch the catalog — which is
//!   why `prepare` takes `&self` and any number of statements can be alive
//!   at once.
//!
//! A single [`ExecOptions`] (`algo`, `threads`, `limit`, `collect_stats`,
//! `deadline`) replaces per-call-site knobs, and every evaluator — serial
//! Minesweeper, the sharded `minesweeper-par`, and each baseline in the
//! registry — dispatches through the same [`PreparedStatement::execute`] /
//! [`PreparedStatement::stream`] path (`statement.rs`).
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
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use minesweeper_core::QueryError;
use minesweeper_durability::DurableStore;
use minesweeper_storage::{ColumnType, Database, Dictionary, StorageError};

use crate::text::TextError;

mod cache;
pub(crate) mod catalog;
mod durable;
mod statement;
#[cfg(test)]
mod tests;
mod write;

pub use durable::{CheckpointReport, DurableBoot, RecoveryReport};
pub(crate) use statement::Remainder;
pub use statement::{DispatchKind, PreparedStatement, StatementResult, StatementStream};
pub use write::RowOp;

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
    /// A lower layer's failure, carried as its message.
    fn storage(e: impl fmt::Display) -> Self {
        EngineError::Storage(e.to_string())
    }

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
        EngineError::storage(e)
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
    /// in-order drain at the cap and cancels queued and in-flight
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
    /// Declared column types per relation, indexed by `RelId` (see
    /// [`Engine::schema`]) — one half of the row codec in `catalog.rs`.
    schemas: Vec<Vec<ColumnType>>,
    /// Copy-on-write like `db`: decode paths hold an `Arc` snapshot and
    /// never lock; write batches interning new strings clone-on-write.
    /// The dictionary only ever grows, so any newer snapshot decodes any
    /// older database version.
    dict: RwLock<Arc<Dictionary>>,
    cache: RwLock<HashMap<String, Arc<cache::CachedStatement>>>,
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
}
