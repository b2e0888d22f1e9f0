//! The write seam: typed row batches through the copy-on-write
//! database, and compaction of the deltas they leave behind.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use minesweeper_storage::{Tuple, Value, WriteOp, WriteOutcome};

use super::catalog::{encode_insert, encode_lookup};
use super::{Engine, EngineError};

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

impl Engine {
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
        let (id, codec) = self.codec(relation)?;
        if ops.is_empty() {
            return Ok(WriteOutcome::default());
        }
        // Validate the whole batch before interning, logging, or applying
        // anything.
        for op in &ops {
            codec.check(op.row())?;
        }
        // Encode. Inserts may intern new strings (copy-on-write on the
        // dictionary); a delete naming a string the dictionary has never
        // seen cannot match any stored tuple and is dropped as a no-op
        // without polluting the dictionary.
        let mut encoded: Vec<WriteOp> = Vec::with_capacity(ops.len());
        {
            let mut dict = self.dict.write().unwrap();
            for op in &ops {
                let mut t: Tuple = Vec::with_capacity(op.row().len());
                match op {
                    RowOp::Insert(row) => {
                        encode_insert(row, &mut dict, &mut t);
                        encoded.push(WriteOp::Insert(t));
                    }
                    RowOp::Delete(row) => {
                        if encode_lookup(row, &dict, &mut t) {
                            encoded.push(WriteOp::Delete(t));
                        }
                    }
                }
            }
        }
        let mut db = self.db.write().unwrap();
        // Log before the swap, under the same write lock, so the WAL's
        // record order is exactly the commit order.
        self.log(|| Self::batch_record(relation, db.version(id), &ops))?;
        let outcome = Arc::make_mut(&mut db).apply(id, &encoded)?;
        // Threshold-triggered compaction, still under the write lock:
        // fold the delta the moment it outgrows the ratio, so read-path
        // merge overhead stays bounded without anyone asking. Not logged —
        // compaction is content-neutral and recovery re-converges on its
        // own (replayed deltas re-trigger the same threshold).
        if self.auto_compact_enabled() && db.versioned(id).should_compact() {
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

    /// How many threshold-triggered compactions the engine has performed.
    pub fn auto_compactions(&self) -> u64 {
        self.auto_compactions.load(Ordering::Relaxed)
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
}
