//! Crash-recovery integration tests: the durability contract of
//! `docs/DURABILITY.md`, end to end through `Engine::open_durable`.
//!
//! The model: a durable engine's data directory, killed at *any* byte
//! of the write-ahead log, recovers to exactly the longest prefix of
//! committed batches whose records survived intact — and every
//! registered evaluator returns results byte-identical to an in-memory
//! engine that applied that same prefix and never crashed.

use std::path::{Path, PathBuf};

use minesweeper_join::baselines::algorithm_names;
use minesweeper_join::durability::wal::{list_segments, read_segment_bytes, write_segment_bytes};
use minesweeper_join::durability::{DurabilityOptions, FsyncPolicy};
use minesweeper_join::engine::{DurableBoot, Engine, ExecOptions};
use minesweeper_join::render::body_string;
use minesweeper_join::storage::Value;

use proptest::prelude::*;

/// Integer join every registered evaluator supports.
const CHAIN: &str = "R(a, b), S(b, c)";
/// String self-join exercising the dictionary across recovery.
const HOPS: &str = "F(a, b), F(b, c)";

/// A scratch data directory removed on drop (pass or fail, a fresh run
/// never sees a stale one: the constructor clears leftovers).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("msj-recovery-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn wal_dir(&self) -> PathBuf {
        self.0.join("wal")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fast options for tests: no fsync (contents still reach the file),
/// no periodic checkpoints unless a test asks for them.
fn opts_nosync() -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::Never,
        ..DurabilityOptions::default()
    }
}

fn int_rows(pairs: &[(i64, i64)]) -> Vec<Vec<Value>> {
    pairs
        .iter()
        .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
        .collect()
}

fn str_rows(pairs: &[(&str, &str)]) -> Vec<Vec<Value>> {
    pairs
        .iter()
        .map(|&(a, b)| vec![Value::Str(a.to_string()), Value::Str(b.to_string())])
        .collect()
}

/// Seeds the canonical three-relation catalog: two integer relations
/// and a string relation whose cells are hostile to the log's text
/// format (empty cells, `#`, `%`, `;`, tabs, spaces, the `%-` marker).
fn load_initial(e: &mut Engine) {
    e.load_tsv("R", "1 5\n2 7\n4 9\n8 9\n").unwrap();
    e.load_tsv("S", "5 10\n7 11\n9 12\n").unwrap();
    e.load_tsv("F", "jfk sfo\nsfo lax\n").unwrap();
}

/// The deterministic write script. Each step is one committed batch —
/// one WAL record — mixing integer and string relations, inserts,
/// deletes, vacuous deletes, and delete-then-reinsert.
const STEPS: usize = 7;

fn apply_step(e: &Engine, step: usize) {
    match step {
        0 => {
            e.insert("R", int_rows(&[(3, 7), (6, 5)])).unwrap();
        }
        1 => {
            e.delete("R", int_rows(&[(4, 9), (8, 9)])).unwrap();
        }
        2 => {
            e.insert("S", int_rows(&[(9, 13), (5, 2)])).unwrap();
        }
        3 => {
            // Hostile strings: empty cell, comment leader, escape
            // metacharacters, embedded whitespace, the empty-marker.
            e.insert(
                "F",
                str_rows(&[
                    ("lax", "jfk"),
                    ("", "jfk"),
                    ("# not a comment", "sfo"),
                    ("per%cent", "semi;colon"),
                    ("two words", "tab\there"),
                    ("%-", "lax"),
                ]),
            )
            .unwrap();
        }
        4 => {
            e.delete("S", int_rows(&[(9, 12)])).unwrap();
        }
        5 => {
            // One real delete plus a vacuous one (never-interned string):
            // both are logged and must replay to the same no-op.
            e.delete("F", str_rows(&[("", "jfk"), ("nowhere", "jfk")]))
                .unwrap();
        }
        6 => {
            e.insert("R", int_rows(&[(8, 9)])).unwrap();
        }
        _ => unreachable!("script has {STEPS} steps"),
    }
}

/// An in-memory engine that loaded the initial catalog and applied the
/// first `n` script steps — the never-crashed reference.
fn reference(n: usize) -> Engine {
    let mut e = Engine::new();
    load_initial(&mut e);
    for step in 0..n {
        apply_step(&e, step);
    }
    e
}

/// Both query bodies, exactly as the CLI would print them.
fn snapshot(e: &Engine, opts: &ExecOptions) -> String {
    let mut out = String::new();
    for q in [CHAIN, HOPS] {
        out.push_str(&body_string(&e.prepare(q).unwrap(), opts).unwrap());
        out.push('\n');
    }
    out
}

/// Opens a fresh durable directory, loads the catalog, and writes the
/// boot checkpoint — the same sequence `msj serve --data-dir` runs.
fn boot_durable(dir: &Path, options: DurabilityOptions) -> Engine {
    let (mut e, boot) = Engine::open_durable(dir, options).unwrap();
    assert!(matches!(boot, DurableBoot::Fresh), "directory is new");
    load_initial(&mut e);
    let report = e.checkpoint().unwrap().expect("durable engines checkpoint");
    assert_eq!(report.relations, 3);
    e
}

/// Reopens a data directory and returns the engine plus its report.
fn reopen(dir: &Path) -> (Engine, minesweeper_join::engine::RecoveryReport) {
    let (e, boot) = Engine::open_durable(dir, opts_nosync()).unwrap();
    match boot {
        DurableBoot::Recovered(report) => (e, report),
        DurableBoot::Fresh => panic!("expected recovery, directory came up fresh"),
    }
}

/// Every evaluator the build registers, plus the serial and sharded
/// defaults.
fn all_option_sets() -> Vec<ExecOptions> {
    let mut sets = vec![
        ExecOptions::default(),
        ExecOptions::default().with_threads(2),
    ];
    for name in algorithm_names() {
        sets.push(ExecOptions::default().with_algo(name));
    }
    sets
}

/// The acceptance test, exhaustively: cut the WAL at **every byte
/// offset** and recover. Each cut must (a) replay exactly the complete
/// newline-terminated records in the surviving prefix, (b) answer
/// byte-identically to a never-crashed engine that applied that many
/// steps, and (c) warn — never fail — when the final record is torn.
#[test]
fn wal_cut_at_every_byte_offset_recovers_the_longest_valid_prefix() {
    let tmp = TempDir::new("every-byte");
    let e = boot_durable(tmp.path(), opts_nosync());
    for step in 0..STEPS {
        apply_step(&e, step);
    }
    drop(e);

    let full = read_segment_bytes(&tmp.wal_dir(), 1).unwrap();
    assert_eq!(
        full.iter().filter(|&&b| b == b'\n').count(),
        STEPS,
        "one WAL record per committed batch"
    );

    // Reference answers for every possible surviving prefix.
    let default_opts = ExecOptions::default();
    let expect: Vec<String> = (0..=STEPS)
        .map(|n| snapshot(&reference(n), &default_opts))
        .collect();

    for cut in 0..=full.len() {
        write_segment_bytes(&tmp.wal_dir(), 1, &full[..cut]).unwrap();
        let (recovered, report) = reopen(tmp.path());
        let survived = full[..cut].iter().filter(|&&b| b == b'\n').count();
        assert_eq!(
            report.replayed_records as usize, survived,
            "cut at byte {cut}: complete records in the prefix replay"
        );
        let torn = cut > 0 && full[cut - 1] != b'\n';
        assert_eq!(
            !report.warnings.is_empty(),
            torn,
            "cut at byte {cut}: a torn tail warns, a clean tail does not ({:?})",
            report.warnings
        );
        assert_eq!(
            snapshot(&recovered, &default_opts),
            expect[survived],
            "cut at byte {cut}: answers equal the never-crashed reference"
        );
    }

    // The untouched log (final loop iteration restored it) recovers the
    // whole script — byte-identical across every registered evaluator.
    let (recovered, report) = reopen(tmp.path());
    assert_eq!(report.replayed_records as usize, STEPS);
    assert!(report.warnings.is_empty());
    let fresh = reference(STEPS);
    for opts in &all_option_sets() {
        assert_eq!(
            snapshot(&recovered, opts),
            snapshot(&fresh, opts),
            "evaluator {:?} threads={} disagrees after recovery",
            opts.algo,
            opts.threads
        );
    }
}

/// Recovery composes: a mid-run checkpoint pins a later WAL position,
/// the tail (including an explicitly logged `COMPACT`) replays on top,
/// relation versions survive exactly, and a recovered engine keeps
/// accepting writes that themselves survive the next reopen.
#[test]
fn mid_run_checkpoint_tail_replay_and_reopen_continuity() {
    let tmp = TempDir::new("mid-ckpt");
    let e = boot_durable(tmp.path(), opts_nosync());
    for step in 0..3 {
        apply_step(&e, step);
    }
    let report = e.checkpoint().unwrap().unwrap();
    assert_eq!(report.id, 2, "boot checkpoint was id 1");
    for step in 3..STEPS {
        apply_step(&e, step);
    }
    let folded = e.compact_logged(None).unwrap();
    assert!(folded >= 1, "the script leaves deltas to fold");
    let versions: Vec<u64> = ["R", "S", "F"]
        .iter()
        .map(|r| e.relation_version(r).unwrap())
        .collect();
    drop(e);

    let (recovered, report) = reopen(tmp.path());
    assert_eq!(
        report.checkpoint_id, 2,
        "recovery starts at the newest checkpoint"
    );
    assert_eq!(
        report.replayed_records as usize,
        (STEPS - 3) + 1,
        "tail batches plus the logged COMPACT replay"
    );
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    let after: Vec<u64> = ["R", "S", "F"]
        .iter()
        .map(|r| recovered.relation_version(r).unwrap())
        .collect();
    assert_eq!(after, versions, "version continuity across recovery");

    let fresh = reference(STEPS);
    for opts in &all_option_sets() {
        assert_eq!(snapshot(&recovered, opts), snapshot(&fresh, opts));
    }

    // The recovered engine is a first-class durable engine: new writes
    // log at the continued LSN and survive another reopen.
    recovered
        .insert("R", int_rows(&[(10, 5), (11, 7)]))
        .unwrap();
    drop(recovered);
    let (again, report) = reopen(tmp.path());
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    fresh.insert("R", int_rows(&[(10, 5), (11, 7)])).unwrap();
    assert_eq!(
        snapshot(&again, &ExecOptions::default()),
        snapshot(&fresh, &ExecOptions::default())
    );
}

/// A torn tail is truncated, and the reopened log continues from the
/// cut: post-recovery writes land after the truncation point and the
/// directory reopens cleanly — no gap, no stale bytes resurfacing.
#[test]
fn torn_tail_truncates_then_writing_resumes_at_the_cut() {
    let tmp = TempDir::new("torn-resume");
    let e = boot_durable(tmp.path(), opts_nosync());
    for step in 0..STEPS {
        apply_step(&e, step);
    }
    drop(e);

    // Chop into the final record: recovery keeps STEPS - 1 batches.
    let full = read_segment_bytes(&tmp.wal_dir(), 1).unwrap();
    write_segment_bytes(&tmp.wal_dir(), 1, &full[..full.len() - 3]).unwrap();

    let (recovered, report) = reopen(tmp.path());
    assert_eq!(report.replayed_records as usize, STEPS - 1);
    assert!(
        report.warnings.iter().any(|w| w.contains("truncated")),
        "the torn tail surfaces as a truncation warning: {:?}",
        report.warnings
    );
    apply_step(&recovered, STEPS - 1); // redo the lost final step
    recovered.delete("S", int_rows(&[(5, 10)])).unwrap();
    drop(recovered);

    let (again, report) = reopen(tmp.path());
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    let fresh = reference(STEPS);
    fresh.delete("S", int_rows(&[(5, 10)])).unwrap();
    assert_eq!(
        snapshot(&again, &ExecOptions::default()),
        snapshot(&fresh, &ExecOptions::default())
    );
}

/// Mid-log damage — a flipped byte with intact records *after* it — is
/// corruption, not a torn tail: recovery refuses rather than silently
/// dropping committed batches.
#[test]
fn mid_log_corruption_is_refused() {
    let tmp = TempDir::new("mid-corrupt");
    let e = boot_durable(tmp.path(), opts_nosync());
    for step in 0..STEPS {
        apply_step(&e, step);
    }
    drop(e);

    let mut bytes = read_segment_bytes(&tmp.wal_dir(), 1).unwrap();
    bytes[2] ^= 0xff; // inside the first record's checksum
    write_segment_bytes(&tmp.wal_dir(), 1, &bytes).unwrap();

    let err = Engine::open_durable(tmp.path(), opts_nosync())
        .expect_err("mid-log corruption must refuse, not drop committed data");
    let msg = err.to_string();
    assert!(msg.contains("corrupt"), "error names the corruption: {msg}");
}

/// Small segments force rotation; recovery walks the whole chain, and a
/// checkpoint releases the segments nothing retained still pins.
#[test]
fn rotated_segments_recover_and_checkpoints_release_them() {
    let tmp = TempDir::new("rotate");
    let options = DurabilityOptions {
        fsync: FsyncPolicy::Never,
        rotate_bytes: 96,
        ..DurabilityOptions::default()
    };
    let e = boot_durable(tmp.path(), options);
    for step in 0..STEPS {
        apply_step(&e, step);
    }
    drop(e);

    let segments = list_segments(&tmp.wal_dir()).unwrap();
    assert!(
        segments.len() > 1,
        "96-byte segments rotate under the script: {segments:?}"
    );

    let (recovered, report) = reopen(tmp.path());
    assert_eq!(report.replayed_records as usize, STEPS);
    let fresh = reference(STEPS);
    assert_eq!(
        snapshot(&recovered, &ExecOptions::default()),
        snapshot(&fresh, &ExecOptions::default())
    );

    // Two more checkpoints: with keep = 2, only positions the retained
    // pair pins stay; the early segments are pruned.
    recovered.checkpoint().unwrap().unwrap();
    recovered.checkpoint().unwrap().unwrap();
    let after = list_segments(&tmp.wal_dir()).unwrap();
    assert!(
        after.first().unwrap() > segments.first().unwrap(),
        "checkpoints release unpinned segments: {segments:?} -> {after:?}"
    );
    drop(recovered);
    let (_, report) = reopen(tmp.path());
    assert_eq!(
        report.replayed_records, 0,
        "the newest checkpoint is current"
    );
}

/// Periodic checkpoints (`checkpoint_every`) fire through the engine's
/// write path and never change answers.
#[test]
fn periodic_checkpoints_are_observationally_silent() {
    let tmp = TempDir::new("periodic");
    let options = DurabilityOptions {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 2,
        ..DurabilityOptions::default()
    };
    let e = boot_durable(tmp.path(), options);
    for step in 0..STEPS {
        apply_step(&e, step);
        e.maybe_checkpoint().unwrap();
    }
    let stats = e.durability_stats().unwrap();
    assert!(
        stats.checkpoints >= 3,
        "boot + every-2-records checkpoints: {stats:?}"
    );
    assert_eq!(stats.wal_records, STEPS as u64);
    drop(e);

    let (recovered, report) = reopen(tmp.path());
    assert!(
        (report.replayed_records as usize) < STEPS,
        "a later checkpoint absorbed part of the log"
    );
    let fresh = reference(STEPS);
    assert_eq!(
        snapshot(&recovered, &ExecOptions::default()),
        snapshot(&fresh, &ExecOptions::default())
    );
    let stats = recovered.durability_stats().unwrap();
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.replayed_records, report.replayed_records);
}

/// WAL replay composes with the hybrid bitset backend: a durable engine
/// forced to dense leaves — checkpointed after a logged compaction that
/// selected packed runs — replays its tail onto the hybrid-compacted
/// base and answers byte-identically to a never-crashed reference, under
/// every registered evaluator and under either leaf policy at reopen.
#[test]
fn replay_onto_hybrid_compacted_checkpoint_is_byte_identical() {
    use minesweeper_join::storage::LeafPolicy;

    let tmp = TempDir::new("hybrid");
    let e = boot_durable(tmp.path(), opts_nosync());
    e.set_leaf_policy(LeafPolicy::Dense);
    // Densify R's first column, fold it with a logged compaction, and
    // checkpoint the compacted (hybrid-selected) base.
    let dense_rows: Vec<(i64, i64)> = (0..=40).map(|v| (v, 5)).collect();
    e.insert("R", int_rows(&dense_rows)).unwrap();
    e.compact_logged(None).unwrap(); // no-op if auto-compact already folded
    let ep = e
        .prepare(CHAIN)
        .unwrap()
        .explain(&ExecOptions::default())
        .unwrap();
    let storage = ep.storage.expect("engine explain fills storage");
    assert!(
        storage.dense_leaves > 0,
        "the checkpoint must capture a hybrid-selected base"
    );
    e.checkpoint().unwrap().unwrap();
    // The script becomes the WAL tail that must replay on top.
    for step in 0..STEPS {
        apply_step(&e, step);
    }
    drop(e);

    let fresh = reference(0);
    fresh.insert("R", int_rows(&dense_rows)).unwrap();
    for step in 0..STEPS {
        apply_step(&fresh, step);
    }

    let (recovered, report) = reopen(tmp.path());
    assert_eq!(report.replayed_records as usize, STEPS, "tail replays");
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    recovered.set_leaf_policy(LeafPolicy::Dense);
    for opts in &all_option_sets() {
        assert_eq!(
            snapshot(&recovered, opts),
            snapshot(&fresh, opts),
            "evaluator {:?} threads={} disagrees after hybrid recovery",
            opts.algo,
            opts.threads
        );
    }
    // After folding the replayed tail, the dense run is re-selected and
    // visible to the planner.
    recovered.compact();
    let ep = recovered
        .prepare(CHAIN)
        .unwrap()
        .explain(&ExecOptions::default())
        .unwrap();
    let storage = ep.storage.expect("engine explain fills storage");
    assert_eq!(storage.leaf, "dense");
    assert!(storage.dense_leaves > 0, "0..=40 run survives recovery");
    drop(recovered);

    // The same directory reopened under the sorted policy agrees too.
    let (sorted_rec, _) = reopen(tmp.path());
    sorted_rec.set_leaf_policy(LeafPolicy::Sorted);
    assert_eq!(
        snapshot(&sorted_rec, &ExecOptions::default()),
        snapshot(&fresh, &ExecOptions::default())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Model-based crash recovery: random batch interleavings over R and
    /// S, the log killed at a random byte offset, and the recovered
    /// engine must equal a never-crashed reference that applied exactly
    /// the batches whose records survived — serial and sharded.
    #[test]
    fn random_interleavings_with_random_cuts_recover_losslessly(
        batches in prop::collection::vec(
            (prop::bool::ANY, prop::bool::ANY, prop::collection::vec((0i64..8, 0i64..8), 0..4)),
            1..6,
        ),
        cut_frac in 0u32..=1000,
    ) {
        let tmp = TempDir::new("prop");
        let e = boot_durable(tmp.path(), opts_nosync());
        // Empty batches commit without logging a record; the model
        // tracks only the logged ones.
        type Batch = (bool, bool, Vec<(i64, i64)>);
        let mut logged: Vec<&Batch> = Vec::new();
        for b in &batches {
            let (on_r, is_insert, rows) = b;
            let rel = if *on_r { "R" } else { "S" };
            if *is_insert {
                e.insert(rel, int_rows(rows)).unwrap();
            } else {
                e.delete(rel, int_rows(rows)).unwrap();
            }
            if !rows.is_empty() {
                logged.push(b);
            }
        }
        drop(e);

        let full = read_segment_bytes(&tmp.wal_dir(), 1).unwrap();
        prop_assert_eq!(
            full.iter().filter(|&&b| b == b'\n').count(),
            logged.len()
        );
        let cut = (full.len() as u64 * u64::from(cut_frac) / 1000) as usize;
        write_segment_bytes(&tmp.wal_dir(), 1, &full[..cut]).unwrap();

        let (recovered, report) = reopen(tmp.path());
        let survived = full[..cut].iter().filter(|&&b| b == b'\n').count();
        prop_assert_eq!(report.replayed_records as usize, survived);

        let fresh = reference(0);
        for &(on_r, is_insert, ref rows) in logged.into_iter().take(survived) {
            let rel = if on_r { "R" } else { "S" };
            if is_insert {
                fresh.insert(rel, int_rows(rows)).unwrap();
            } else {
                fresh.delete(rel, int_rows(rows)).unwrap();
            }
        }
        for opts in [ExecOptions::default(), ExecOptions::default().with_threads(2)] {
            prop_assert_eq!(
                snapshot(&recovered, &opts),
                snapshot(&fresh, &opts)
            );
        }
    }
}

/// Whitespace-free strings hostile to every text format a row crosses —
/// the loader's comment leader, the log's escape and empty-cell markers,
/// quotes, the empty string, non-ASCII, digit-only strings that must stay
/// strings in a `str` column (the codec's own round-trip property, in
/// `src/engine/catalog.rs`, draws from the same pool).
const HOSTILE: [&str; 12] = [
    "%", "#", "%-", "%23", "\"", "'q'", "", "naïve", "日本", "007", "42", "-1",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The row codec is one rule in both directions of the log: a batch
    /// over a random `int`/`str` schema applied live (typed values →
    /// stored, and → text for its WAL record) equals that record replayed
    /// (text → typed values → stored) — decoded rows *and* rendered body
    /// bytes. Both engines start from the same checkpoint, so they intern
    /// in the same order and even the row order must agree.
    #[test]
    fn a_live_batch_equals_its_replayed_wal_record(
        strs in prop::collection::vec(prop::bool::ANY, 1..4),
        loaded in prop::collection::vec(prop::collection::vec((0i64..6, 0..HOSTILE.len()), 3), 0..8),
        batch in prop::collection::vec(
            (prop::bool::ANY, prop::collection::vec((0i64..6, 0..HOSTILE.len()), 3)),
            1..10,
        ),
    ) {
        use minesweeper_join::engine::RowOp;
        use minesweeper_join::storage::ColumnType;

        let types: Vec<ColumnType> = strs
            .iter()
            .map(|&s| if s { ColumnType::Str } else { ColumnType::Int })
            .collect();
        let typed = |row: &Vec<(i64, usize)>| -> Vec<Value> {
            let cells = row.iter().zip(&types);
            cells
                .map(|(&(int, word), ty)| match ty {
                    ColumnType::Int => Value::Int(int),
                    ColumnType::Str => Value::Str(HOSTILE[word].to_string()),
                })
                .collect()
        };
        let vars: Vec<String> = (0..types.len()).map(|c| format!("c{c}")).collect();
        let scan = format!("T({})", vars.join(", "));
        let answers = |e: &Engine| {
            let stmt = e.prepare(&scan).unwrap();
            let rows = stmt.execute(&ExecOptions::default()).unwrap().rows;
            (rows, body_string(&stmt, &ExecOptions::default()).unwrap())
        };

        let tmp = TempDir::new("prop-codec");
        let (mut boot, _) = Engine::open_durable(tmp.path(), opts_nosync()).unwrap();
        boot.add_relation("T", &types, loaded.iter().map(typed)).unwrap();
        boot.checkpoint().unwrap();
        drop(boot);

        let (live, report) = reopen(tmp.path());
        prop_assert_eq!(report.replayed_records, 0);
        let ops = batch.iter().map(|(insert, row)| match insert {
            true => RowOp::Insert(typed(row)),
            false => RowOp::Delete(typed(row)),
        });
        live.apply_batch("T", ops).unwrap();
        let want = answers(&live);
        drop(live);

        let (replayed, report) = reopen(tmp.path());
        prop_assert_eq!(report.replayed_records, 1);
        prop_assert!(report.warnings.is_empty());
        prop_assert_eq!(answers(&replayed), want);
    }
}

/// On-disk compatibility with the previous release, pinned as golden
/// bytes: the script below, logged by the commit before the row codec
/// existed, produced exactly these WAL records and this checkpoint —
/// hostile string cells, a vacuous delete and a single-row `INSERT`
/// record included. The engine must still *write* them byte for byte
/// (so an older binary recovers a newer directory) and must *recover*
/// a directory holding only them (so a newer binary recovers an older
/// one) to the never-crashed reference.
#[test]
fn previous_release_bytes_are_written_and_recovered_unchanged() {
    const WAL: &str = "e256ab567822c83b W 1 BATCH R 0 I 3 7 ; I 6 5\n\
        3698f1b1fa487e4d W 2 BATCH F 0 I lax jfk ; I %- jfk ; \
        I %23%20not%20a%20comment sfo ; I per%25cent semi%3bcolon ; \
        I two%20words tab%09here ; I %25- lax\n\
        232e2e11fd3a79eb W 3 BATCH F 1 D %- jfk ; D nowhere jfk\n\
        2ab3e918df9907dd W 4 INSERT R 1 8 9\n";
    const CHECKPOINT_2: [(&str, &str); 4] = [
        (
            "MANIFEST",
            "manifest 2\nwal 1 253 4\nrel R 1 6 int int\nrel S 0 3 int int\n\
             rel F 2 7 str str\nok 531f54bcc1b415cc\n",
        ),
        ("rel-000.tsv", "1\t5\n2\t7\n3\t7\n4\t9\n6\t5\n8\t9\n"),
        ("rel-001.tsv", "5\t10\n7\t11\n9\t12\n"),
        (
            "rel-002.tsv",
            "jfk\tsfo\nsfo\tlax\nlax\tjfk\n%23%20not%20a%20comment\tsfo\n\
             per%25cent\tsemi%3bcolon\ntwo%20words\ttab%09here\n%25-\tlax\n",
        ),
    ];
    let fresh = reference(0);
    for step in [0, 3, 5, 6] {
        apply_step(&fresh, step);
    }

    // Written now == written then.
    let tmp = TempDir::new("golden-write");
    let e = boot_durable(tmp.path(), opts_nosync());
    for step in [0, 3, 5] {
        apply_step(&e, step);
    }
    assert_eq!(e.checkpoint().unwrap().unwrap().id, 2);
    apply_step(&e, 6);
    drop(e);
    let wal = read_segment_bytes(&tmp.wal_dir(), 1).unwrap();
    assert_eq!(String::from_utf8(wal).unwrap(), WAL);
    let ckpt = tmp.path().join("checkpoints").join("ckpt-000002");
    for (file, bytes) in CHECKPOINT_2 {
        assert_eq!(
            std::fs::read_to_string(ckpt.join(file)).unwrap(),
            bytes,
            "{file}"
        );
    }

    // Written then, recovered now: a directory holding only the golden
    // bytes (checkpoint 2 plus the log it pins at offset 253).
    let old = TempDir::new("golden-read");
    let ckpt = old.path().join("checkpoints").join("ckpt-000002");
    std::fs::create_dir_all(&ckpt).unwrap();
    std::fs::create_dir_all(old.wal_dir()).unwrap();
    for (file, bytes) in CHECKPOINT_2 {
        std::fs::write(ckpt.join(file), bytes).unwrap();
    }
    write_segment_bytes(&old.wal_dir(), 1, WAL.as_bytes()).unwrap();
    let (recovered, report) = reopen(old.path());
    assert_eq!(report.checkpoint_id, 2);
    assert_eq!(
        report.replayed_records, 1,
        "only the record past offset 253"
    );
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    for opts in &all_option_sets() {
        assert_eq!(snapshot(&recovered, opts), snapshot(&fresh, opts));
    }
}
