//! Quickstart: build a small database, plan a query, stream its output,
//! and inspect the certificate-size statistics.
//!
//! Run with `cargo run --release --example quickstart`.

use minesweeper_join::prelude::*;

fn main() {
    // A tiny "who-can-review-what" schema:
    //   authors(A)           — people allowed to author
    //   wrote(A, P)          — authorship
    //   reviewed(P, R)       — reviews of papers
    //   reviewers(R)         — active reviewers
    // Query: authors ⋈ wrote ⋈ reviewed ⋈ reviewers over GAO (A, P, R).
    let mut db = Database::new();
    let authors = db.add(builder::unary("authors", [1, 2, 3])).unwrap();
    let wrote = db
        .add(builder::binary(
            "wrote",
            [(1, 10), (2, 11), (2, 12), (3, 13), (4, 14)],
        ))
        .unwrap();
    let reviewed = db
        .add(builder::binary(
            "reviewed",
            [(10, 100), (11, 101), (12, 100), (12, 102), (14, 103)],
        ))
        .unwrap();
    let reviewers = db
        .add(builder::unary("reviewers", [100, 101, 102]))
        .unwrap();

    let query = Query::new(3)
        .atom(authors, &[0])
        .atom(wrote, &[0, 1])
        .atom(reviewed, &[1, 2])
        .atom(reviewers, &[2]);

    // Plan once. The query is a path, hence β-acyclic: the planner picks a
    // nested elimination order and chain probe mode — the Õ(|C| + Z)
    // guarantee of Theorem 2.7.
    let db = std::sync::Arc::new(db);
    let p = plan(&db, &query).unwrap();
    println!("{}\n", p.explain());

    // Bind the plan to the database, then stream lazily: tuples arrive as
    // the gap structure certifies them, and statistics are live
    // mid-flight.
    let bound = p.prepare_exec(&db).unwrap();
    let mut stream = bound.open(&db, &Run::default());
    println!("output tuples (author, paper, reviewer):");
    if let Some(first) = stream.next() {
        println!(
            "  {first:?}   <- after {} FindGap calls",
            stream.stats().find_gap_calls
        );
    }
    for t in stream.by_ref() {
        println!("  {t:?}");
    }
    let stats = stream.stats();

    // Or materialize everything (sorted in the original attribute order)
    // and cross-check against the naive oracle — and against every other
    // algorithm in the registry.
    let exec = p.execute(&db).unwrap();
    assert_eq!(exec.result.tuples, naive_join(&db, &query).unwrap());
    for algo in algorithms() {
        assert_eq!(
            algo.run(&db, &query).unwrap().tuples,
            exec.result.tuples,
            "{} disagrees",
            algo.name()
        );
    }
    println!("\nall {} registry algorithms agree", algorithms().len());

    println!("\nexecution statistics:");
    println!(
        "  FindGap calls (certificate proxy): {}",
        stats.find_gap_calls
    );
    println!(
        "  probe points:                      {}",
        stats.probe_points
    );
    println!(
        "  constraints inserted:              {}",
        stats.constraints_inserted
    );
    println!("  outputs (Z):                       {}", stats.outputs);
    println!(
        "  Prop 2.6 certificate upper bound:  {}",
        canonical_certificate_size(&db, &query).unwrap()
    );
}
