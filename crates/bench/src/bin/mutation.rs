//! Experiment `mutation` — the write path's lazy merge, priced.
//!
//! A versioned relation answers cursor probes from *base + delta*
//! without materializing the merge (see `docs/STORAGE.md`). This
//! harness prices that contract with deterministic counters:
//!
//! 1. **Probe equivalence** — a forward `FindGap` sweep through a
//!    [`MergeCursor`] over a dirty relation (pending inserts and
//!    tombstoned deletes) must return gaps bit-identical to the same
//!    sweep over the materialized snapshot. The sweep's `delta_probes`
//!    (probes that consulted a non-empty delta) and `merge_steps`
//!    (per-child liveness/union work) are the lazy path's price.
//! 2. **Engine writes** — the same delta applied through
//!    [`Engine::insert`] / [`Engine::delete`]: the join's output size
//!    and certificate-proxy work after the writes are gated, and the
//!    relation version counter must move exactly once per
//!    content-changing batch.
//! 3. **Compaction** — folding the delta is content-neutral: same
//!    output, same probe work, cache still warm, and the fold count is
//!    gated.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin mutation
//! [--n size] [--json FILE]`.

use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_join::engine::{Engine, ExecOptions};
use minesweeper_storage::{
    ExecStats, MergeCursor, RelationBuilder, Val, VersionedRelation, WriteOp,
};

/// The base relation: `R(a, b)` with `n` left values, three right
/// values each — dense enough that deltas overlap real subtrees.
fn base_relation(n: Val) -> minesweeper_storage::TrieRelation {
    let mut rb = RelationBuilder::new("R", 2);
    for a in 0..n {
        for k in 0..3 {
            rb.push(&[a, (a * 7 + k * 11) % (2 * n)]);
        }
    }
    rb.build().unwrap()
}

/// The deterministic delta: an insert touching every 3rd subtree (one
/// new child, one brand-new left value), a delete tombstoning every 5th
/// base tuple, and a full subtree kill every 16th left value.
fn delta_ops(n: Val) -> Vec<WriteOp> {
    let mut ops = Vec::new();
    for a in (0..n).step_by(3) {
        ops.push(WriteOp::Insert(vec![a, (a * 7 + 5) % (2 * n)]));
        ops.push(WriteOp::Insert(vec![a + n, a]));
    }
    for a in (0..n).step_by(5) {
        ops.push(WriteOp::Delete(vec![a, (a * 7) % (2 * n)]));
    }
    for a in (0..n).step_by(16) {
        for k in 0..3 {
            ops.push(WriteOp::Delete(vec![a, (a * 7 + k * 11) % (2 * n)]));
        }
    }
    ops
}

fn main() {
    let n: Val = arg_or("--n", 512);
    let json = arg_opt("--json");
    let mut record = BenchRecord::new();
    println!(
        "Mutation: versioned delta tries at n = {n} — lazy merge probes vs\n\
         the materialized snapshot, engine write batches, compaction.\n"
    );

    // ---- phase 1: cursor-level probe equivalence over a dirty relation.
    let mut rel = VersionedRelation::from_base(base_relation(n));
    let ops = delta_ops(n);
    let (outcome, t_apply) = timed(|| rel.apply(&ops).expect("in-domain batch"));
    let snap = rel.snapshot().clone();

    let view = rel.merge_view();
    let mut lazy = ExecStats::new();
    let mut exact = ExecStats::new();
    let (probes, t_sweep) = timed(|| {
        let mut cursor = MergeCursor::new(view);
        let mut probes = 0u64;
        for a in 0..(2 * n + 2) {
            let got = cursor.find_gap(a, &mut lazy);
            let expect = snap.find_gap(snap.root(), a, &mut exact);
            assert_eq!(got, expect, "root gap at {a} must match the snapshot");
            probes += 1;
            // Exact hit: descend and sweep one level down, then return.
            if got.lo_val == a && cursor.descend(a, &mut lazy) {
                let under = snap.child(snap.root(), {
                    let g = snap.find_gap(snap.root(), a, &mut exact);
                    g.lo_coord
                });
                for b in (0..(2 * n + 2)).step_by(7) {
                    let got = cursor.find_gap(b, &mut lazy);
                    let expect = snap.find_gap(under, b, &mut exact);
                    assert_eq!(got, expect, "level-1 gap at ({a}, {b}) must match");
                    probes += 1;
                }
                cursor.up();
            }
        }
        probes
    });
    assert_eq!(
        view.iter_tuples().collect::<Vec<_>>(),
        snap.to_tuples(),
        "lazy iteration equals the materialized snapshot"
    );
    let (materialized, materialize_steps) = view.materialize();
    assert_eq!(materialized.len(), snap.len());

    record.metric("mutation_ops", ops.len() as u64);
    record.metric("mutation_changed_rows", outcome.affected() as u64);
    record.metric("mutation_probes", probes);
    record.metric("mutation_delta_probes", lazy.delta_probes);
    record.metric("mutation_merge_steps", lazy.merge_steps);
    record.metric("mutation_materialize_steps", materialize_steps);

    // ---- phase 2: the same writes through the engine front door.
    let mut engine = Engine::new();
    engine.add_int_relation(base_relation(n)).unwrap();
    {
        let mut sb = RelationBuilder::new("S", 2);
        for b in 0..(2 * n) {
            sb.push(&[b, b % 97]);
        }
        engine.add_int_relation(sb.build().unwrap()).unwrap();
    }
    let opts = ExecOptions::default().with_stats();
    let query = "R(a, b), S(b, c)";
    let z_before = engine
        .prepare(query)
        .unwrap()
        .execute(&opts)
        .unwrap()
        .rows
        .len();

    let (_, t_writes) = timed(|| {
        for chunk in ops.chunks(64) {
            let rows = chunk.iter().map(|op| {
                op.tuple()
                    .iter()
                    .map(|&v| minesweeper_storage::Value::Int(v))
                    .collect::<Vec<_>>()
            });
            let inserts: Vec<_> = chunk
                .iter()
                .zip(rows)
                .map(|(op, row)| match op {
                    WriteOp::Insert(_) => minesweeper_join::engine::RowOp::Insert(row),
                    WriteOp::Delete(_) => minesweeper_join::engine::RowOp::Delete(row),
                })
                .collect();
            engine.apply_batch("R", inserts).expect("valid batch");
        }
    });
    let version = engine.relation_version("R").unwrap();
    let after = engine.prepare(query).unwrap().execute(&opts).unwrap();
    let stats = after.stats.as_ref().expect("stats requested");
    record.metric("mutation_version", version);
    record.metric("mutation_z_before", z_before as u64);
    record.metric("mutation_z_after", after.rows.len() as u64);
    record.metric("mutation_find_gap_calls", stats.find_gap_calls);

    // ---- phase 3: compaction is observationally silent.
    let (folded, t_compact) = timed(|| engine.compact());
    let again = engine.prepare(query).unwrap();
    assert!(
        again.cache_hit(),
        "compaction must not invalidate the cache"
    );
    let re = again.execute(&opts).unwrap();
    assert_eq!(re.rows, after.rows, "compaction must not change results");
    assert_eq!(
        engine.relation_version("R").unwrap(),
        version,
        "compaction must not bump versions"
    );
    record.metric("mutation_compactions", folded as u64);

    let mut table = Table::new(&["counter", "value"]);
    for (name, value) in record.metrics() {
        table.row(&[name.clone(), human(*value)]);
    }
    table.print();
    println!(
        "\napply {} · sweep {} · writes {} · compact {}",
        human_time(t_apply),
        human_time(t_sweep),
        human_time(t_writes),
        human_time(t_compact)
    );
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
