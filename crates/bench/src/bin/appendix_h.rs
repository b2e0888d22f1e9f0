//! Experiment `appendix_h` — Theorem H.4: Minesweeper's set-intersection
//! specialization is near instance optimal. Four instance families sweep
//! the certificate size from `O(m)` to `Θ(N)`; the probe counts must track
//! `|C|`, and the DLM-style adaptive baseline provides the comparison
//! point from Section 6.2.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin appendix_h
//! [--n size] [--json FILE]`. With `--json` each family's deterministic
//! work counters (Minesweeper probes and `FindGap`s, DLM seeks, m-way
//! merge comparisons, output size — the random family is seeded) are
//! written as flat JSON for CI's exact `bench_gate`.

use minesweeper_baselines::{adaptive_intersection, merge_intersection};
use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_core::set_intersection;
use minesweeper_storage::TrieRelation;
use minesweeper_workloads::intersection::{
    blocks, disjoint_ranges, interleaved, needle, random_sets,
};

fn main() {
    let n: i64 = arg_or("--n", 1 << 17);
    let json = arg_opt("--json");
    let mut record = BenchRecord::new();
    println!(
        "Appendix H: adaptive set intersection, N ≈ {} per family.\n",
        human(2 * n as u64)
    );
    let mut table = Table::new(&[
        "family",
        "N",
        "Z",
        "MS probes",
        "MS findgaps",
        "MS time",
        "DLM seeks",
        "DLM time",
        "merge cmps",
        "merge time",
    ]);
    let families: Vec<(&str, &str, Vec<TrieRelation>)> = vec![
        ("disjoint (|C|=O(m))", "disjoint", disjoint_ranges(2, n)),
        ("interleaved (|C|=Θ(N))", "interleaved", interleaved(2, n)),
        ("blocks b=16 (|C|=Θ(N/16))", "blocks16", blocks(n, 16)),
        (
            "blocks b=1024 (|C|=Θ(N/1024))",
            "blocks1024",
            blocks(n, 1024),
        ),
        ("needle (|C|=O(m))", "needle", needle(3, n)),
        ("random", "random", random_sets(3, n as usize / 2, n, 7)),
    ];
    for (name, slug, sets) in &families {
        let refs: Vec<&TrieRelation> = sets.iter().collect();
        let total: usize = sets.iter().map(|s| s.len()).sum();
        let (ms, t_ms) = timed(|| set_intersection(&refs));
        let (ad, t_ad) = timed(|| adaptive_intersection(&refs));
        let (mg, t_mg) = timed(|| merge_intersection(&refs));
        assert_eq!(ms.tuples.len(), ad.tuples.len(), "{name}");
        assert_eq!(ms.tuples.len(), mg.tuples.len(), "{name}");
        record.metric(format!("apxh_{slug}_z"), ms.stats.outputs);
        record.metric(format!("apxh_{slug}_probes"), ms.stats.probe_points);
        record.metric(format!("apxh_{slug}_findgap"), ms.stats.find_gap_calls);
        record.metric(format!("apxh_{slug}_dlm_seeks"), ad.stats.seeks);
        record.metric(format!("apxh_{slug}_merge_cmps"), mg.stats.comparisons);
        table.row(&[
            name.to_string(),
            human(total as u64),
            human(ms.stats.outputs),
            human(ms.stats.probe_points),
            human(ms.stats.find_gap_calls),
            human_time(t_ms),
            human(ad.stats.seeks),
            human_time(t_ad),
            human(mg.stats.comparisons),
            human_time(t_mg),
        ]);
    }
    table.print();
    println!(
        "\nPaper's shape: the adaptive algorithms collapse from Θ(N)\n\
         (interleaved) to O(1) (disjoint/needle) as the certificate\n\
         shrinks, with the block families interpolating at Θ(N/b);\n\
         the non-adaptive m-way merge pays Θ(N) on every family."
    );
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
