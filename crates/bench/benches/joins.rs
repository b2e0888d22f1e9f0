//! Join algorithm comparison benches, dispatched through the unified
//! `Algorithm` registry: every registered evaluator that supports the
//! query shape runs on (a) the Appendix J hidden-certificate family and
//! (b) the Section 5.2 star query on a power-law graph, plus a streaming
//! `LIMIT k` group showing the early-termination advantage of
//! `Plan::stream` over full materialization.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use minesweeper_baselines::algorithms;
use minesweeper_core::{plan, Run};
use minesweeper_workloads::appendix_j::hidden_certificate_instance;
use minesweeper_workloads::graphs::{chung_lu, symmetrize};
use minesweeper_workloads::star_query;

fn appendix_j_family(c: &mut Criterion) {
    let mut group = c.benchmark_group("appendix_j_m4");
    group.sample_size(10);
    for &chunk in &[16i64, 32] {
        let inst = hidden_certificate_instance(4, chunk);
        for algo in algorithms() {
            if algo.name() == "naive" || !algo.supports(&inst.query) {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(algo.name(), chunk), &inst, |b, inst| {
                b.iter(|| black_box(algo.run(&inst.db, &inst.query).unwrap().tuples.len()))
            });
        }
    }
    group.finish();
}

fn star_on_powerlaw(c: &mut Criterion) {
    let edges = symmetrize(&chung_lu(3000, 25_000, 2.3, 17));
    let inst = star_query(&edges, 3000, 0.005, 17);
    let mut group = c.benchmark_group("star_query");
    group.sample_size(10);
    for algo in algorithms() {
        // The naive oracle and the binary plans are too slow at this scale
        // to keep in the default sweep.
        if matches!(algo.name(), "naive" | "hash" | "sort-merge" | "nested-loop")
            || !algo.supports(&inst.query)
        {
            continue;
        }
        group.bench_function(algo.name(), |b| {
            b.iter(|| black_box(algo.run(&inst.db, &inst.query).unwrap().tuples.len()))
        });
    }
    group.finish();
}

fn streaming_limit(c: &mut Criterion) {
    // Z ≫ k: early termination through the streaming executor pays only
    // for the first k certified tuples.
    let inst = hidden_certificate_instance(4, 32);
    let db = std::sync::Arc::new(inst.db);
    let p = plan(&db, &inst.query).unwrap();
    let mut group = c.benchmark_group("limit_pushdown");
    group.sample_size(10);
    group.bench_function("stream_take_10", |b| {
        b.iter(|| {
            let bound = p.prepare_exec(&db).unwrap();
            black_box(bound.open(&db, &Run::default()).take(10).count())
        })
    });
    group.bench_function("materialize_then_truncate_10", |b| {
        b.iter(|| {
            let exec = p.execute(&db).unwrap();
            black_box(exec.result.tuples.iter().take(10).count())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    appendix_j_family,
    star_on_powerlaw,
    streaming_limit
);
criterion_main!(benches);
