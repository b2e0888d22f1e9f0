//! The durability seam: everything between the engine and its
//! [`DurableStore`] — boot and recovery, logging, checkpoints (see
//! `docs/DURABILITY.md`). Rows cross it as text cells, converted by the
//! row codec in [`super::catalog`] in both directions.

use std::path::Path;
use std::sync::{Arc, Mutex};

use minesweeper_durability::{
    Batch as WalBatch, CellOp, DurabilityCounters, DurabilityError, DurabilityOptions,
    DurableStore, Opened, RelationDump, WalRecord,
};

use super::catalog::{cell_texts, stored_cell_texts, type_tokens, types_from_tokens, RowCodec};
use super::{Engine, EngineError, RowOp};

impl From<DurabilityError> for EngineError {
    fn from(e: DurabilityError) -> Self {
        EngineError::storage(e)
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

impl Engine {
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
        let mut engine = Engine::new();
        let (store, boot) = match DurableStore::open(dir, options)? {
            Opened::Fresh(store) => (store, DurableBoot::Fresh),
            Opened::Recovered(store, recovery) => {
                let relations = recovery.relations.len();
                // Rebuild the catalog from the checkpoint dumps. Strings
                // re-intern in row order; ids may differ from the crashed
                // process, but every decoded answer is byte-identical —
                // the dictionary is an equality-preserving encoding, not
                // persisted state.
                for dump in recovery.relations {
                    let types = types_from_tokens(&dump.name, &dump.types)?;
                    let codec = RowCodec {
                        relation: &dump.name,
                        types: &types,
                    };
                    let rows = dump.rows.into_iter().map(|cells| codec.type_cells(cells));
                    let id = engine.add_rows(&dump.name, &types, rows)?;
                    Arc::make_mut(engine.db.get_mut().unwrap()).restore_version(id, dump.version);
                }
                // Replay the tail through the public write path —
                // durability is not attached yet, so nothing re-logs.
                let replayed_records = recovery.tail.len() as u64;
                for rec in recovery.tail {
                    engine.replay(rec.lsn, rec.record)?;
                }
                let report = RecoveryReport {
                    checkpoint_id: recovery.checkpoint_id,
                    relations,
                    replayed_records,
                    warnings: recovery.warnings,
                };
                (store, DurableBoot::Recovered(report))
            }
        };
        engine.durability = Some(Mutex::new(store));
        Ok((engine, boot))
    }

    /// Re-applies one logged record during recovery.
    fn replay(&self, lsn: u64, record: WalRecord) -> Result<(), EngineError> {
        match record {
            WalRecord::Batch(batch) => {
                let relation = batch.relation.as_str();
                let version = self.relation_version(relation)?;
                if version != batch.version_before {
                    return Err(EngineError::Storage(format!(
                        "wal record {lsn} expects relation {relation} at version {}, found \
                         {version} — the log does not continue this checkpoint",
                        batch.version_before
                    )));
                }
                let (_, codec) = self.codec(relation)?;
                let ops = batch.ops.into_iter().map(|op| {
                    Ok(match op {
                        CellOp::Insert(cells) => RowOp::Insert(codec.type_cells(cells)?),
                        CellOp::Delete(cells) => RowOp::Delete(codec.type_cells(cells)?),
                    })
                });
                let ops = ops.collect::<Result<Vec<_>, EngineError>>()?;
                self.apply_batch(relation, ops)?;
            }
            WalRecord::Compact {
                relation: Some(rel),
            } => {
                self.compact_relation(&rel)?;
            }
            WalRecord::Compact { relation: None } => {
                self.compact();
            }
        }
        Ok(())
    }

    /// The WAL record of one write batch: the *original* text-level ops
    /// (vacuous deletes included — replay re-drops them the same way)
    /// plus the relation's pre-batch version, which recovery uses as a
    /// continuity check.
    pub(super) fn batch_record(relation: &str, version_before: u64, ops: &[RowOp]) -> WalRecord {
        let ops = ops.iter().map(|op| match op {
            RowOp::Insert(row) => CellOp::Insert(cell_texts(row)),
            RowOp::Delete(row) => CellOp::Delete(cell_texts(row)),
        });
        WalRecord::Batch(WalBatch {
            relation: relation.to_string(),
            version_before,
            ops: ops.collect(),
        })
    }

    /// Appends `record()` to the write-ahead log on a durable engine; a
    /// no-op (the record is never built) on an in-memory one. Callers
    /// hold the `db` write lock, which is what makes WAL order commit
    /// order.
    pub(super) fn log(&self, record: impl FnOnce() -> WalRecord) -> Result<(), EngineError> {
        if let Some(store) = &self.durability {
            store.lock().unwrap().log(&record())?;
        }
        Ok(())
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
            let (pos, next_lsn) = store.sync_position()?;
            (pos, next_lsn, (*db).clone(), store)
        };
        let dict = self.dict();
        let mut dumps = Vec::with_capacity(db.len());
        let mut rows_total = 0u64;
        for (id, rel) in db.iter() {
            let types = self.schema(id);
            let rows: Vec<Vec<String>> = rel
                .iter_tuples()
                .map(|tuple| stored_cell_texts(&tuple, types, &dict))
                .collect();
            rows_total += rows.len() as u64;
            dumps.push(RelationDump {
                name: rel.name().to_string(),
                types: type_tokens(types),
                version: db.version(id),
                rows,
            });
        }
        let manifest = store.commit_checkpoint(pos, next_lsn, &dumps)?;
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
        // Validate before logging.
        let id = relation.map(|rel| db.id_of(rel)).transpose()?;
        self.log(|| WalRecord::Compact {
            relation: relation.map(str::to_string),
        })?;
        let db = Arc::make_mut(&mut db);
        Ok(match id {
            Some(id) => db.compact(id) as usize,
            None => db.compact_all(),
        })
    }
}
