//! Experiment `durability` — the write-ahead log and recovery, priced.
//!
//! The durability subsystem promises lossless recovery (see
//! `docs/DURABILITY.md`): every committed batch is logged before it
//! applies, a checkpoint pins a consistent snapshot plus a WAL
//! position, and reopening a directory replays exactly the tail. This
//! harness prices that contract with deterministic counters:
//!
//! 1. **Log** — a fixed insert/delete workload through a durable
//!    engine: one WAL record per committed batch, with the encoded byte
//!    volume gated (the text format is deterministic for a fixed
//!    workload).
//! 2. **Checkpoint** — a mid-run checkpoint dumps every relation's
//!    decoded rows; the dump size is gated.
//! 3. **Recover** — the directory reopens after more batches: the
//!    replayed-record count and the recovered join's output size must
//!    both match the never-crashed run exactly.
//! 4. **Torn tail** — the final record is cut mid-line; recovery
//!    truncates, warns, and replays one record fewer.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin durability
//! [--n size] [--json FILE]`.

use std::path::PathBuf;

use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_join::durability::wal::{list_segments, read_segment_bytes, write_segment_bytes};
use minesweeper_join::durability::{DurabilityOptions, FsyncPolicy};
use minesweeper_join::engine::{DurableBoot, Engine, ExecOptions};
use minesweeper_storage::{Val, Value};

/// Scratch directory for the run, removed on exit.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msj-bench-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Counters, not wall time, are the contract — skip fsync so the
/// numbers price the log and recovery code, not the disk.
fn options() -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::Never,
        ..DurabilityOptions::default()
    }
}

fn int_rows(pairs: impl IntoIterator<Item = (Val, Val)>) -> Vec<Vec<Value>> {
    pairs
        .into_iter()
        .map(|(a, b)| vec![Value::Int(a), Value::Int(b)])
        .collect()
}

/// Loads the fixed base tables: `R(a, b)` with three children per left
/// value and `S(b, c)` mapping every right value.
fn load_base(e: &mut Engine, n: Val) {
    let r: String = (0..n)
        .flat_map(|a| (0..3).map(move |k| format!("{a} {}\n", (a * 7 + k * 11) % (2 * n))))
        .collect();
    let s: String = (0..2 * n).map(|b| format!("{b} {}\n", b % 97)).collect();
    e.load_tsv("R", &r).unwrap();
    e.load_tsv("S", &s).unwrap();
}

/// The committed batches, in two halves: `0..half` land before the
/// mid-run checkpoint, the rest form the WAL tail recovery replays.
fn batch(e: &Engine, n: Val, i: Val) -> u64 {
    let out = match i % 3 {
        0 => e
            .insert("R", int_rows([(i % n, (i * 13 + 5) % (2 * n)), (n + i, i)]))
            .unwrap(),
        1 => e
            .delete("R", int_rows([(i % n, ((i % n) * 7) % (2 * n))]))
            .unwrap(),
        _ => e
            .insert("S", int_rows([((2 * n + i) % (3 * n), i % 97)]))
            .unwrap(),
    };
    out.affected() as u64
}

fn main() {
    let n: Val = arg_or("--n", 512);
    let json = arg_opt("--json");
    let mut record = BenchRecord::new();
    println!(
        "Durability: write-ahead log + checkpoint + recovery at n = {n} —\n\
         logged batches, dump sizes, and replay counts, all deterministic.\n"
    );

    let batches = n / 4;
    let half = batches / 2;
    let query = "R(a, b), S(b, c)";
    let opts = ExecOptions::default();
    let dir = scratch_dir();

    // ---- phase 1: log a fixed workload through a durable engine.
    let (mut engine, boot) = Engine::open_durable(&dir, options()).expect("open scratch dir");
    assert!(matches!(boot, DurableBoot::Fresh), "scratch dir is new");
    load_base(&mut engine, n);
    engine.checkpoint().expect("boot checkpoint").unwrap();
    let (changed, t_log) = timed(|| (0..half).map(|i| batch(&engine, n, i)).sum::<u64>());
    let stats = engine.durability_stats().unwrap();
    assert_eq!(stats.wal_records, half as u64, "one record per batch");
    record.metric("durability_wal_records", stats.wal_records);
    record.metric("durability_wal_bytes", stats.wal_bytes);
    record.metric("durability_changed_rows", changed);

    // ---- phase 2: a mid-run checkpoint pins snapshot + WAL position.
    let (report, t_ckpt) = timed(|| engine.checkpoint().expect("checkpoint").unwrap());
    record.metric("durability_checkpoint_relations", report.relations as u64);
    record.metric("durability_checkpoint_rows", report.rows);

    // ---- phase 3: more batches form the tail; reopening replays them.
    for i in half..batches {
        batch(&engine, n, i);
    }
    let z_live = engine
        .prepare(query)
        .unwrap()
        .execute(&opts)
        .unwrap()
        .rows
        .len();
    drop(engine);
    let ((engine, boot), t_recover) =
        timed(|| Engine::open_durable(&dir, options()).expect("reopen scratch dir"));
    let report = match boot {
        DurableBoot::Recovered(r) => r,
        DurableBoot::Fresh => panic!("the directory holds data"),
    };
    assert!(
        report.warnings.is_empty(),
        "clean log: {:?}",
        report.warnings
    );
    assert_eq!(
        report.replayed_records,
        (batches - half) as u64,
        "the tail is every batch after the checkpoint"
    );
    let z_after = engine
        .prepare(query)
        .unwrap()
        .execute(&opts)
        .unwrap()
        .rows
        .len();
    assert_eq!(z_after, z_live, "recovery must not change any answer");
    record.metric("durability_replayed_records", report.replayed_records);
    record.metric("durability_z_after", z_after as u64);

    // ---- phase 4: a torn final record is truncated, never refused.
    drop(engine);
    let wal_dir = dir.join("wal");
    let last = *list_segments(&wal_dir).unwrap().last().unwrap();
    let bytes = read_segment_bytes(&wal_dir, last).unwrap();
    write_segment_bytes(&wal_dir, last, &bytes[..bytes.len() - 3]).unwrap();
    let ((engine, boot), t_torn) =
        timed(|| Engine::open_durable(&dir, options()).expect("torn tails are tolerated"));
    let report = match boot {
        DurableBoot::Recovered(r) => r,
        DurableBoot::Fresh => panic!("the directory holds data"),
    };
    assert!(
        report.warnings.iter().any(|w| w.contains("truncated")),
        "the cut surfaces as a truncation warning: {:?}",
        report.warnings
    );
    assert_eq!(
        report.replayed_records,
        (batches - half) as u64 - 1,
        "exactly the cut record is lost"
    );
    record.metric("durability_torn_replayed", report.replayed_records);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    let mut table = Table::new(&["counter", "value"]);
    for (name, value) in record.metrics() {
        table.row(&[name.clone(), human(*value)]);
    }
    table.print();
    println!(
        "\nlog {} · checkpoint {} · recover {} · torn {}",
        human_time(t_log),
        human_time(t_ckpt),
        human_time(t_recover),
        human_time(t_torn)
    );
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
