//! [`DurableStore`]: the data-directory orchestrator the engine talks to.
//!
//! A data directory (`--data-dir`) owns two subdirectories:
//!
//! ```text
//! DIR/wal/          000001.wal, 000002.wal, …   (see crate::wal)
//! DIR/checkpoints/  ckpt-000001/, …             (see crate::checkpoint)
//! ```
//!
//! [`DurableStore::open`] is the single entry point and decides between
//! two outcomes ([`Opened`]):
//!
//! * **Fresh** — no checkpoint and an empty (or absent) log: the caller
//!   loads its initial relations and writes checkpoint 1 before
//!   accepting writes, so every later boot has a snapshot to start from;
//! * **Recovered** — a valid checkpoint exists: the store replays the
//!   WAL tail behind it and hands back the dumped relations plus the
//!   tail records for the engine to re-apply, with warnings for
//!   anything it tolerated (a torn final line, an invalid newest
//!   checkpoint it fell back past).
//!
//! A checkpoint with no valid fallback while the log still holds
//! records is refused as corruption — recovery never silently drops
//! acknowledged writes.

use std::fs;
use std::path::{Path, PathBuf};

use crate::checkpoint::{
    load_latest, min_pinned_segment, prune_checkpoints, write_checkpoint, Manifest, RelationDump,
};
use crate::record::{SequencedRecord, WalRecord};
use crate::wal::{self, read_tail, truncate_to, FsyncPolicy, Wal, WalPosition};
use crate::DurabilityError;

/// A relation as recovery reconstructs it: the checkpoint dump the
/// engine re-loads before replaying the tail.
pub use crate::checkpoint::RelationDump as RecoveredRelation;

/// Tuning for a [`DurableStore`].
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// When the WAL fsyncs (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold in bytes.
    pub rotate_bytes: u64,
    /// Write a checkpoint after this many WAL records (0 = only on
    /// explicit `W CHECKPOINT` / shutdown).
    pub checkpoint_every: u64,
    /// How many published checkpoints to retain (the newest is the
    /// recovery source; older ones are fallbacks). Minimum 1.
    pub keep_checkpoints: usize,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: FsyncPolicy::Always,
            rotate_bytes: 4 << 20,
            checkpoint_every: 0,
            keep_checkpoints: 2,
        }
    }
}

/// The counters `STATS` reports (process-lifetime, since open).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityCounters {
    /// WAL records appended since open.
    pub wal_records: u64,
    /// WAL bytes appended since open.
    pub wal_bytes: u64,
    /// Checkpoints committed since open.
    pub checkpoints: u64,
    /// 1 when this boot recovered from an existing directory.
    pub recoveries: u64,
    /// WAL tail records replayed during that recovery.
    pub replayed_records: u64,
}

/// What recovery found — the engine rebuilds its catalog from
/// `relations`, then re-applies `tail` through its normal write path.
#[derive(Debug)]
pub struct Recovery {
    /// Relations from the newest valid checkpoint, in manifest order.
    pub relations: Vec<RecoveredRelation>,
    /// WAL records committed after that checkpoint, in LSN order.
    pub tail: Vec<SequencedRecord>,
    /// Conditions recovery tolerated (torn tail, skipped checkpoint).
    pub warnings: Vec<String>,
    /// The checkpoint id recovery started from.
    pub checkpoint_id: u64,
}

/// Outcome of [`DurableStore::open`].
#[derive(Debug)]
pub enum Opened {
    /// A brand-new directory: load initial data, then checkpoint.
    Fresh(DurableStore),
    /// An existing directory: rebuild from the recovery plan.
    Recovered(DurableStore, Recovery),
}

/// An open data directory: logs records, tracks checkpoint cadence,
/// commits and prunes checkpoints. One per engine; the engine wraps it
/// in a `Mutex` and holds it only inside its write lock.
#[derive(Debug)]
pub struct DurableStore {
    wal: Wal,
    wal_dir: PathBuf,
    ckpt_root: PathBuf,
    options: DurabilityOptions,
    next_ckpt_id: u64,
    records_since_ckpt: u64,
    checkpoints: u64,
    recoveries: u64,
    replayed_records: u64,
}

impl DurableStore {
    /// Opens (or initializes) the data directory at `dir`. See the
    /// module docs for the Fresh/Recovered/refuse trichotomy.
    pub fn open(dir: &Path, options: DurabilityOptions) -> Result<Opened, DurabilityError> {
        let options = DurabilityOptions {
            keep_checkpoints: options.keep_checkpoints.max(1),
            ..options
        };
        let wal_dir = dir.join("wal");
        let ckpt_root = dir.join("checkpoints");
        fs::create_dir_all(&wal_dir)?;
        fs::create_dir_all(&ckpt_root)?;

        let (loaded, mut warnings) = load_latest(&ckpt_root)?;
        let Some(loaded) = loaded else {
            let segments = wal::list_segments(&wal_dir)?;
            let log_bytes: u64 = segments
                .iter()
                .map(|&s| fs::metadata(wal::segment_file(&wal_dir, s)).map(|m| m.len()))
                .sum::<Result<u64, _>>()?;
            if !warnings.is_empty() || log_bytes > 0 {
                return Err(DurabilityError::Corrupt(format!(
                    "no valid checkpoint, but the directory is not empty \
                     ({} wal bytes, {} invalid checkpoints) — refusing to discard data",
                    log_bytes,
                    warnings.len()
                )));
            }
            let wal = if segments.is_empty() {
                Wal::create(&wal_dir, options.fsync, options.rotate_bytes)?
            } else {
                // A crash after `wal/000001.wal` was created but before
                // the initial checkpoint landed: the log is empty, reuse it.
                Wal::reopen(
                    &wal_dir,
                    WalPosition {
                        segment: segments[0],
                        offset: 0,
                    },
                    1,
                    options.fsync,
                    options.rotate_bytes,
                )?
            };
            return Ok(Opened::Fresh(DurableStore {
                wal,
                wal_dir,
                ckpt_root,
                options,
                next_ckpt_id: 1,
                records_since_ckpt: 0,
                checkpoints: 0,
                recoveries: 0,
                replayed_records: 0,
            }));
        };

        let manifest = &loaded.manifest;
        let tail = read_tail(&wal_dir, manifest.wal, manifest.next_lsn)?;
        if let Some(torn) = &tail.torn {
            truncate_to(&wal_dir, torn.truncate_at)?;
            warnings.push(format!("{} — truncated", torn.reason));
        }
        let replayed = tail.records.len() as u64;
        let wal = Wal::reopen(
            &wal_dir,
            tail.end,
            manifest.next_lsn + replayed,
            options.fsync,
            options.rotate_bytes,
        )?;
        let recovery = Recovery {
            relations: loaded.dumps,
            tail: tail.records,
            warnings,
            checkpoint_id: manifest.id,
        };
        let store = DurableStore {
            wal,
            wal_dir,
            ckpt_root,
            options,
            next_ckpt_id: manifest.id + 1,
            records_since_ckpt: replayed,
            checkpoints: 0,
            recoveries: 1,
            replayed_records: replayed,
        };
        Ok(Opened::Recovered(store, recovery))
    }

    /// Appends one committed record (the caller logs *before* swapping
    /// its in-memory state) and returns the record's LSN.
    pub fn log(&mut self, record: &WalRecord) -> Result<u64, DurabilityError> {
        let lsn = self.wal.append(record)?;
        self.records_since_ckpt += 1;
        Ok(lsn)
    }

    /// True when the periodic-checkpoint policy says it is time.
    pub fn checkpoint_due(&self) -> bool {
        self.options.checkpoint_every > 0
            && self.records_since_ckpt >= self.options.checkpoint_every
    }

    /// Fsyncs the log and returns the position + next LSN a checkpoint
    /// taken *now* must pin. Call under the same lock that freezes the
    /// state being dumped.
    pub fn sync_position(&mut self) -> Result<(WalPosition, u64), DurabilityError> {
        self.wal.sync()?;
        Ok((self.wal.position(), self.wal.next_lsn()))
    }

    /// Commits a checkpoint consistent with `(wal, next_lsn)` from
    /// [`DurableStore::sync_position`], prunes old checkpoints and any
    /// WAL segments nothing retained still pins.
    pub fn commit_checkpoint(
        &mut self,
        wal: WalPosition,
        next_lsn: u64,
        dumps: &[RelationDump],
    ) -> Result<Manifest, DurabilityError> {
        let manifest = write_checkpoint(&self.ckpt_root, self.next_ckpt_id, wal, next_lsn, dumps)?;
        self.next_ckpt_id += 1;
        self.checkpoints += 1;
        self.records_since_ckpt = 0;
        prune_checkpoints(&self.ckpt_root, self.options.keep_checkpoints)?;
        if let Some(min_seg) = min_pinned_segment(&self.ckpt_root)? {
            self.wal.prune_below(min_seg)?;
        }
        Ok(manifest)
    }

    /// The counters `STATS` reports.
    pub fn counters(&self) -> DurabilityCounters {
        DurabilityCounters {
            wal_records: self.wal.records(),
            wal_bytes: self.wal.bytes(),
            checkpoints: self.checkpoints,
            recoveries: self.recoveries,
            replayed_records: self.replayed_records,
        }
    }

    /// The configured options (read-back for STATS/tests).
    pub fn options(&self) -> DurabilityOptions {
        self.options
    }

    /// The WAL directory (diagnostics/tests).
    pub fn wal_dir(&self) -> &Path {
        &self.wal_dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Batch, CellOp};

    impl DurableStore {
        /// Checkpoint ids currently retained on disk.
        fn checkpoint_ids(&self) -> Result<Vec<u64>, DurabilityError> {
            Ok(crate::checkpoint::list_checkpoints(&self.ckpt_root)?)
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("msj-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rec(ver: u64, cell: &str) -> WalRecord {
        WalRecord::Batch(Batch {
            relation: "R".into(),
            version_before: ver,
            ops: vec![CellOp::Insert(vec![cell.into()])],
        })
    }

    fn dump(version: u64, rows: &[&str]) -> RelationDump {
        RelationDump {
            name: "R".into(),
            types: vec!["str".into()],
            version,
            rows: rows.iter().map(|r| vec![r.to_string()]).collect(),
        }
    }

    fn open_fresh(dir: &Path, opts: DurabilityOptions) -> DurableStore {
        match DurableStore::open(dir, opts).unwrap() {
            Opened::Fresh(s) => s,
            Opened::Recovered(..) => panic!("expected fresh"),
        }
    }

    #[test]
    fn fresh_then_log_then_recover_tail() {
        let dir = tmp("lifecycle");
        let mut store = open_fresh(&dir, DurabilityOptions::default());
        // The boot checkpoint, then three committed batches.
        let (pos, lsn) = store.sync_position().unwrap();
        store
            .commit_checkpoint(pos, lsn, &[dump(0, &["a"])])
            .unwrap();
        for (i, cell) in ["b", "c", "d"].iter().enumerate() {
            store.log(&rec(i as u64, cell)).unwrap();
        }
        drop(store);

        match DurableStore::open(&dir, DurabilityOptions::default()).unwrap() {
            Opened::Recovered(store, recovery) => {
                assert_eq!(recovery.checkpoint_id, 1);
                assert_eq!(recovery.relations, vec![dump(0, &["a"])]);
                assert_eq!(recovery.tail.len(), 3);
                assert_eq!(recovery.tail[0].lsn, 1);
                assert!(recovery.warnings.is_empty(), "{:?}", recovery.warnings);
                let c = store.counters();
                assert_eq!(c.recoveries, 1);
                assert_eq!(c.replayed_records, 3);
            }
            Opened::Fresh(_) => panic!("expected recovery"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_with_a_warning_and_log_reopens() {
        let dir = tmp("torn");
        let mut store = open_fresh(&dir, DurabilityOptions::default());
        let (pos, lsn) = store.sync_position().unwrap();
        store.commit_checkpoint(pos, lsn, &[dump(0, &[])]).unwrap();
        store.log(&rec(0, "keep")).unwrap();
        store.log(&rec(1, "lost")).unwrap();
        drop(store);
        // Tear the final record mid-line.
        let bytes = wal::read_segment_bytes(&dir.join("wal"), 1).unwrap();
        wal::write_segment_bytes(&dir.join("wal"), 1, &bytes[..bytes.len() - 3]).unwrap();

        let mut store = match DurableStore::open(&dir, DurabilityOptions::default()).unwrap() {
            Opened::Recovered(store, recovery) => {
                assert_eq!(recovery.tail.len(), 1, "only the intact record survives");
                assert_eq!(recovery.warnings.len(), 1);
                assert!(
                    recovery.warnings[0].contains("truncated"),
                    "{:?}",
                    recovery.warnings
                );
                store
            }
            Opened::Fresh(_) => panic!("expected recovery"),
        };
        // The reopened log continues the LSN sequence from the cut.
        assert_eq!(store.log(&rec(1, "next")).unwrap(), 2);
        drop(store);
        match DurableStore::open(&dir, DurabilityOptions::default()).unwrap() {
            Opened::Recovered(_, recovery) => {
                assert_eq!(recovery.tail.len(), 2);
                assert!(recovery.warnings.is_empty(), "{:?}", recovery.warnings);
            }
            Opened::Fresh(_) => panic!("expected recovery"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_records_without_any_checkpoint_is_refused() {
        let dir = tmp("refuse");
        let mut store = open_fresh(&dir, DurabilityOptions::default());
        store.log(&rec(0, "x")).unwrap();
        drop(store);
        // No checkpoint was ever committed: the schema for "R" is unknown.
        let err = DurableStore::open(&dir, DurabilityOptions::default()).unwrap_err();
        assert!(matches!(err, DurabilityError::Corrupt(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_reopens_fresh() {
        let dir = tmp("reinit");
        let store = open_fresh(&dir, DurabilityOptions::default());
        drop(store);
        // Crash before the boot checkpoint: segment 1 exists but is empty.
        let store = open_fresh(&dir, DurabilityOptions::default());
        assert_eq!(store.counters(), DurabilityCounters::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_prune_and_release_wal_segments() {
        let dir = tmp("prune");
        let opts = DurabilityOptions {
            fsync: FsyncPolicy::Never,
            rotate_bytes: 64,
            checkpoint_every: 2,
            keep_checkpoints: 2,
        };
        let mut store = open_fresh(&dir, opts);
        let (pos, lsn) = store.sync_position().unwrap();
        store.commit_checkpoint(pos, lsn, &[dump(0, &[])]).unwrap();
        assert!(!store.checkpoint_due());
        for i in 0..8 {
            store.log(&rec(i, "0123456789abcdef")).unwrap();
            if store.checkpoint_due() {
                let (pos, lsn) = store.sync_position().unwrap();
                store
                    .commit_checkpoint(pos, lsn, &[dump(i + 1, &[])])
                    .unwrap();
            }
        }
        assert_eq!(store.counters().checkpoints, 5);
        assert_eq!(store.checkpoint_ids().unwrap(), vec![4, 5]);
        let segments = wal::list_segments(store.wal_dir()).unwrap();
        assert!(
            segments[0] > 1,
            "segments below the oldest retained checkpoint are pruned: {segments:?}"
        );
        // Recovery from the pruned state still works.
        drop(store);
        match DurableStore::open(&dir, opts).unwrap() {
            Opened::Recovered(_, recovery) => {
                assert_eq!(recovery.checkpoint_id, 5);
                assert!(recovery.warnings.is_empty(), "{:?}", recovery.warnings);
            }
            Opened::Fresh(_) => panic!("expected recovery"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
