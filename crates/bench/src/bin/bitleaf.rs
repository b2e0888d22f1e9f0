//! Experiment `bitleaf` — hybrid bitset leaves vs sorted arrays, priced.
//!
//! `BitLeafRelation` packs dense child lists into `u64` bitset words
//! with a rank directory while sparse lists keep the sorted arrays
//! (see `docs/STORAGE.md`). This harness prices that representation
//! with deterministic counters:
//!
//! 1. **Sweep equivalence** — a `FindGap` sweep over a fully dense
//!    two-level relation must return gaps bit-identical across the
//!    sorted and hybrid backends, with the hybrid's `bitset_probes` /
//!    `bitset_words_scanned` (and the sorted side's zeros) gated. The
//!    per-backend wall clocks are reported so the dense-workload win
//!    is visible in every run.
//! 2. **Selection** — the `Auto` policy must pick every run of the
//!    dense relation and *no* run of a sparse control; run and word
//!    totals are gated.
//! 3. **Join** — the same chain query through two engines differing
//!    only in `LeafPolicy`: identical rows, identical `find_gap_calls`,
//!    and the hybrid run's bitset counters gated.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin bitleaf
//! [--n run-length] [--json FILE]`.

use std::sync::Arc;

use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_join::engine::{Engine, ExecOptions};
use minesweeper_storage::{
    BitLeafRelation, ExecStats, LeafPolicy, RelationBuilder, TrieRelation, TrieStorage, Val,
};

/// The dense workload: `D(a, b)` with `m` contiguous left values, each
/// owning the contiguous run `0..n` — every node qualifies as dense.
fn dense_relation(name: &str, m: Val, n: Val) -> TrieRelation {
    let mut rb = RelationBuilder::new(name, 2);
    for a in 0..m {
        for b in 0..n {
            rb.push(&[a, b]);
        }
    }
    rb.build().unwrap()
}

/// The sparse control: the same shape with every value spread far
/// apart, so no run passes the `Auto` density test.
fn sparse_relation(m: Val, n: Val) -> TrieRelation {
    let mut rb = RelationBuilder::new("Z", 2);
    for a in 0..m {
        for b in 0..n {
            rb.push(&[a * 1000, b * 1000 + 1]);
        }
    }
    rb.build().unwrap()
}

/// A forward `FindGap` sweep over both levels of `rel`, folding every
/// gap into a checksum so the two backends can be compared exactly.
fn sweep<S: TrieStorage>(rel: &S, m: Val, n: Val, stats: &mut ExecStats) -> (u64, u64) {
    let mut checksum = 0u64;
    let mut probes = 0u64;
    let root = rel.root();
    for a in 0..m {
        let g = rel.find_gap(root, a, stats);
        probes += 1;
        assert!(g.exact(), "every left value is present");
        let child = rel.child(root, g.hi_coord);
        let mut b = -1;
        while b <= n {
            let g = rel.find_gap(child, b, stats);
            probes += 1;
            for part in [
                g.lo_coord as u64,
                g.hi_coord as u64,
                g.lo_val as u64,
                g.hi_val as u64,
            ] {
                checksum = checksum.wrapping_mul(1_000_003).wrapping_add(part);
            }
            b += 3;
        }
    }
    (checksum, probes)
}

/// An engine over the chain workload `R(a, b), S(b, c)` whose first
/// relation carries dense runs, built under the given leaf policy.
fn chain_engine(policy: LeafPolicy, m: Val, n: Val) -> Engine {
    let mut e = Engine::new();
    e.set_leaf_policy(policy);
    e.add_int_relation(dense_relation("R", m, n)).unwrap();
    let mut sb = RelationBuilder::new("S", 2);
    for b in 0..n {
        sb.push(&[b, b % 29]);
        sb.push(&[b, n + b % 31]);
    }
    e.add_int_relation(sb.build().unwrap()).unwrap();
    e
}

fn main() {
    let n: Val = arg_or("--n", 4096);
    let json = arg_opt("--json");
    let m: Val = 64;
    let mut record = BenchRecord::new();
    println!(
        "Bitleaf: hybrid bitset leaves at run length n = {n} — FindGap\n\
         sweeps and a chain join, sorted arrays vs packed bitset runs.\n"
    );

    // ---- phase 1: sweep equivalence and the per-backend wall clocks.
    let sorted = Arc::new(dense_relation("D", m, n));
    let hybrid =
        BitLeafRelation::build(sorted.clone(), LeafPolicy::Dense).expect("dense runs selected");
    let mut st_sorted = ExecStats::new();
    let mut st_hybrid = ExecStats::new();
    let ((sum_sorted, probes), t_sorted) = timed(|| sweep(sorted.as_ref(), m, n, &mut st_sorted));
    let ((sum_hybrid, probes_h), t_hybrid) = timed(|| sweep(&hybrid, m, n, &mut st_hybrid));
    assert_eq!(sum_sorted, sum_hybrid, "gaps must match bit for bit");
    assert_eq!(probes, probes_h);
    assert_eq!(
        st_sorted.bitset_probes, 0,
        "sorted backend never touches a bitset"
    );
    assert!(
        st_hybrid.bitset_probes > 0,
        "hybrid backend answers from runs"
    );
    record.metric("bitleaf_sweep_probes", probes);
    record.metric("bitleaf_sweep_bitset_probes", st_hybrid.bitset_probes);
    record.metric("bitleaf_sweep_words", st_hybrid.bitset_words_scanned);

    // ---- phase 2: Auto selection on dense data, silence on sparse.
    let auto = BitLeafRelation::build(sorted.clone(), LeafPolicy::Auto)
        .expect("Auto selects the dense runs");
    assert_eq!(
        auto.dense_run_count(),
        1 + m as u64,
        "root run + one per left value"
    );
    let control = Arc::new(sparse_relation(8, 8));
    assert!(
        BitLeafRelation::build(control, LeafPolicy::Auto).is_none(),
        "Auto must leave the sparse control sorted"
    );
    record.metric("bitleaf_dense_runs", auto.dense_run_count());
    record.metric("bitleaf_words_total", auto.words_total());

    // ---- phase 3: the chain join under both policies.
    let m_join: Val = 16;
    let n_join: Val = n / 4;
    let opts = ExecOptions::default().with_stats();
    let query = "R(a, b), S(b, c)";
    let e_sorted = chain_engine(LeafPolicy::Sorted, m_join, n_join);
    let e_hybrid = chain_engine(LeafPolicy::Dense, m_join, n_join);
    let (rows_sorted, t_join_sorted) =
        timed(|| e_sorted.prepare(query).unwrap().execute(&opts).unwrap());
    let (rows_hybrid, t_join_hybrid) =
        timed(|| e_hybrid.prepare(query).unwrap().execute(&opts).unwrap());
    assert_eq!(
        rows_sorted.rows, rows_hybrid.rows,
        "policies answer identically"
    );
    let js = rows_sorted.stats.as_ref().expect("stats requested");
    let jh = rows_hybrid.stats.as_ref().expect("stats requested");
    assert_eq!(js.find_gap_calls, jh.find_gap_calls, "same probe sequence");
    assert_eq!(js.bitset_probes, 0);
    assert_eq!(js.dense_leaves, 0);
    assert!(jh.dense_leaves > 0, "the dense relation is hybrid-backed");
    record.metric("bitleaf_join_z", rows_hybrid.rows.len() as u64);
    record.metric("bitleaf_join_find_gap", jh.find_gap_calls);
    record.metric("bitleaf_join_bitset_probes", jh.bitset_probes);
    record.metric("bitleaf_join_dense_leaves", jh.dense_leaves);

    let mut table = Table::new(&["counter", "value"]);
    for (name, value) in record.metrics() {
        table.row(&[name.clone(), human(*value)]);
    }
    table.print();
    println!(
        "\nsweep sorted {} · sweep hybrid {} · join sorted {} · join hybrid {}",
        human_time(t_sorted),
        human_time(t_hybrid),
        human_time(t_join_sorted),
        human_time(t_join_hybrid)
    );
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
