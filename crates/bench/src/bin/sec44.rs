//! Experiment `sec44` — the Section 4.4 argument that neither NPRR nor
//! LFTJ can match Minesweeper's certificate guarantee on β-acyclic
//! queries: compute all paths of length ℓ in a layered DAG whose longest
//! path has ℓ−1 edges. The output is empty, `|C| = O(ℓ·|E|)`, but the
//! worst-case-optimal algorithms enumerate all `width^(ℓ−1)` maximal
//! paths.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin sec44
//! [--layers l] [--wmax width] [--json FILE]`. With `--json` the
//! deterministic work counters (MS probes, LFTJ seeks, NPRR comparisons)
//! are written as flat JSON for CI's exact `bench_gate`.

use minesweeper_baselines::{generic_join, leapfrog_triejoin};
use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_cds::ProbeMode;
use minesweeper_core::minesweeper_join;
use minesweeper_workloads::layered_path_instance;

fn main() {
    let layers: usize = arg_or("--layers", 5);
    let wmax: i64 = arg_or("--wmax", 16);
    let json = arg_opt("--json");
    let mut record = BenchRecord::new();
    println!(
        "Section 4.4: ℓ = {layers}-edge path query on an (ℓ−1)-edge-deep\n\
         layered DAG (empty output; width^(ℓ−1) maximal paths to explore).\n"
    );
    let mut table = Table::new(&[
        "width",
        "|E|",
        "max paths",
        "MS probes",
        "MS time",
        "LFTJ seeks",
        "LFTJ time",
        "NPRR cmps",
        "NPRR time",
    ]);
    let mut width = 2i64;
    while width <= wmax {
        let inst = layered_path_instance(layers, width);
        let paths = (width as u64).pow(layers as u32 - 1);
        let (ms, t_ms) =
            timed(|| minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap());
        let (lf, t_lf) = timed(|| leapfrog_triejoin(&inst.db, &inst.query).unwrap());
        let (np, t_np) = timed(|| generic_join(&inst.db, &inst.query).unwrap());
        assert!(ms.tuples.is_empty() && lf.tuples.is_empty() && np.tuples.is_empty());
        record.metric(format!("sec44_w{width}_ms_probes"), ms.stats.probe_points);
        record.metric(format!("sec44_w{width}_lftj_seeks"), lf.stats.seeks);
        record.metric(
            format!("sec44_w{width}_nprr_comparisons"),
            np.stats.comparisons,
        );
        table.row(&[
            width.to_string(),
            human(inst.db.total_tuples() as u64),
            human(paths),
            human(ms.stats.probe_points),
            human_time(t_ms),
            human(lf.stats.seeks),
            human_time(t_lf),
            human(np.stats.comparisons),
            human_time(t_np),
        ]);
        width *= 2;
    }
    table.print();
    println!(
        "\nPaper's shape: Minesweeper's probes track |E| (the certificate),\n\
         while LFTJ's seeks and NPRR's comparisons track the exponential\n\
         count of maximal paths."
    );
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
