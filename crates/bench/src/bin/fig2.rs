//! Experiment `fig2` — regenerates Figure 2 of Section 5.2:
//! input size `N` vs certificate size `|C|` (measured as FindGap count,
//! exactly as the paper does) for the Star, 3-path, and Tree queries on
//! three scaled SNAP-like datasets.
//!
//! Usage: `cargo run --release -p minesweeper-bench --bin fig2
//! [--scale k] [--p prob] [--seed s] [--json FILE]`. `--scale` multiplies
//! the built-in per-dataset divisors (1 reproduces the default
//! laptop-scale setup). With `--json` the deterministic work counters
//! (FindGap = the |C| proxy, probe points, Z) are written as flat JSON
//! for CI's exact `bench_gate`.

use minesweeper_bench::{arg_opt, arg_or, human, human_time, timed, BenchRecord, Table};
use minesweeper_cds::ProbeMode;
use minesweeper_core::minesweeper_join;
use minesweeper_workloads::queries::Instance;
use minesweeper_workloads::snap_like::{GraphDataset, EPINIONS, LIVEJOURNAL, ORKUT};
use minesweeper_workloads::{star_query, three_path_query, tree_query};

fn main() {
    let scale: u64 = arg_or("--scale", 1);
    let p: f64 = arg_or("--p", 0.001);
    let seed: u64 = arg_or("--seed", 20140618);
    let json = arg_opt("--json");
    let mut record = BenchRecord::new();
    // Per-dataset base divisors chosen so the default run is laptop-sized
    // (~100–250K edges per graph).
    let configs = [(ORKUT, 1024u64), (EPINIONS, 4), (LIVEJOURNAL, 1024)];
    println!(
        "Figure 2 reproduction: input size (N) vs certificate size (|C|)\n\
         |C| measured by counting FindGap operations (Section 5.2).\n\
         Datasets are Chung-Lu stand-ins for the SNAP graphs (workloads::snap_like).\n"
    );
    let mut table = Table::new(&[
        "Query", "Dataset", "N", "|C|", "N/|C|", "Z", "probes", "time",
    ]);
    for (profile, base) in configs {
        let ds = GraphDataset::generate(profile, base * scale, seed);
        let n_edges = ds.edge_count();
        println!(
            "generated {:<16} scale 1/{:<7} nodes={} edges={}",
            profile.name,
            base * scale,
            human(ds.nodes as u64),
            human(n_edges as u64),
        );
        for (qname, inst) in [
            ("Star", star_query(&ds.edges, ds.nodes, p, seed)),
            ("3-path", three_path_query(&ds.edges, ds.nodes, p, seed)),
            ("Tree", tree_query(&ds.edges, ds.nodes, p, seed)),
        ] {
            let Instance { db, query } = inst;
            let n = db.total_tuples() as u64;
            let (res, t) = timed(|| minesweeper_join(&db, &query, ProbeMode::Chain).unwrap());
            let c = res.stats.certificate_estimate();
            let tag = format!(
                "fig2_{}_{}",
                qname.to_ascii_lowercase().replace('-', ""),
                profile.name.to_ascii_lowercase()
            );
            record.metric(format!("{tag}_findgap"), c);
            record.metric(format!("{tag}_probes"), res.stats.probe_points);
            record.metric(format!("{tag}_z"), res.stats.outputs);
            table.row(&[
                qname.to_string(),
                profile.name.to_string(),
                human(n),
                human(c),
                format!("{:.0}x", n as f64 / c.max(1) as f64),
                human(res.stats.outputs),
                human(res.stats.probe_points),
                human_time(t),
            ]);
        }
    }
    println!();
    table.print();
    println!(
        "\nPaper's shape: |C| is 3-4 orders of magnitude below N on every\n\
         query/dataset pair (e.g. Star on Orkut: N=352M vs |C|=214K)."
    );
    if let Some(path) = json {
        record.write_json(&path).expect("write --json file");
        println!("wrote {path}");
    }
}
