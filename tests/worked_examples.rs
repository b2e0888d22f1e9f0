//! End-to-end replays of the paper's worked examples.

use minesweeper_join::baselines::yannakakis;
use minesweeper_join::cds::ProbeMode;
use minesweeper_join::core::{minesweeper_join, naive_join};
use minesweeper_join::workloads::examples::{
    example_2_1, example_b1, example_b2, example_b3, example_b6, example_d1, example_i3,
};

/// Appendix D.1: the 4-atom query over R, S = [N]², T = {(2,2),(2,4)},
/// U = {1,3} joins to nothing, and Minesweeper discovers that with a
/// handful of probes regardless of N.
#[test]
fn appendix_d1_full_run() {
    for n in [4, 8, 20] {
        let inst = example_d1(n);
        let res = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
        assert!(res.tuples.is_empty(), "N={n}");
        assert!(
            res.stats.probe_points <= 12,
            "N={n}: probes {}",
            res.stats.probe_points
        );
        // Matches the naive join and Yannakakis.
        assert!(naive_join(&inst.db, &inst.query).unwrap().is_empty());
        assert!(yannakakis(&inst.db, &inst.query).unwrap().tuples.is_empty());
    }
}

/// Example 2.1: the witnesses are {1,(1,i)} and {2,(2,i)} — 2N outputs.
#[test]
fn example_2_1_witness_structure() {
    let n = 30;
    let inst = example_2_1(n);
    let res = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
    assert_eq!(res.tuples.len() as i64, 2 * n);
    assert!(res.tuples.iter().all(|t| t[0] == 1 || t[0] == 2));
}

/// Example B.1: |C| = O(1) — the FindGap count must not grow with N.
#[test]
fn example_b1_certificate_constant_in_n() {
    let mut counts = Vec::new();
    for n in [100, 1_000, 10_000] {
        let inst = example_b1(n);
        let res = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
        assert!(res.tuples.is_empty());
        counts.push(res.stats.find_gap_calls);
    }
    assert_eq!(counts[0], counts[1], "{counts:?}");
    assert_eq!(counts[1], counts[2], "{counts:?}");
}

/// Example B.2: Z = N with a constant certificate — work is Θ(Z), and the
/// per-output overhead is constant.
#[test]
fn example_b2_work_linear_in_output() {
    let mut ratios = Vec::new();
    for n in [200, 400, 800] {
        let inst = example_b2(n);
        let res = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
        assert_eq!(res.tuples.len() as i64, n);
        ratios.push(res.stats.probe_points as f64 / n as f64);
    }
    for r in &ratios {
        assert!(
            *r <= 3.0,
            "per-output probe overhead must be constant: {ratios:?}"
        );
    }
}

/// Examples B.3/B.4: identical data, the GAO flips the certificate from
/// Θ(N²) to Θ(N).
#[test]
fn example_b3_vs_b4_gao_separation() {
    let n = 24;
    let inst = example_b3(n);
    let slow = minesweeper_join(&inst.db, &inst.query, ProbeMode::General).unwrap();
    let (db2, q2) =
        minesweeper_join::core::reindex_for_gao(&inst.db, &inst.query, &[2, 0, 1]).unwrap();
    let fast = minesweeper_join(&db2, &q2, ProbeMode::Chain).unwrap();
    assert!(slow.tuples.is_empty() && fast.tuples.is_empty());
    // Θ(N²) vs Θ(N): demand at least a factor-N/4 separation.
    assert!(
        slow.stats.probe_points > (n as u64 / 4) * fast.stats.probe_points,
        "slow={} fast={}",
        slow.stats.probe_points,
        fast.stats.probe_points
    );
}

/// Example B.6: under GAO (A,B) the certificate is O(1).
#[test]
fn example_b6_constant_under_ab() {
    let inst = example_b6(5_000);
    let res = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
    assert!(res.tuples.is_empty());
    assert!(res.stats.probe_points <= 4);
}

/// Example B.6's flip side: under GAO (B, A) the optimal certificate is
/// Ω(N) — the per-B rows must each be separated (`R[i,N] < S[i,1]` for
/// every i in the paper's account of the reversed instance).
#[test]
fn example_b6_linear_under_ba() {
    let n = 400;
    let inst = example_b6(n);
    // Identity (A,B): constant probes.
    let fast = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
    assert!(fast.stats.probe_points <= 4);
    // Reversed (B,A): work must scale with N.
    let (db2, q2) =
        minesweeper_join::core::reindex_for_gao(&inst.db, &inst.query, &[1, 0]).unwrap();
    let slow = minesweeper_join(&db2, &q2, ProbeMode::Chain).unwrap();
    assert!(slow.tuples.is_empty());
    assert!(
        slow.stats.probe_points as i64 >= n / 2,
        "(B,A) order must pay Ω(N): {}",
        slow.stats.probe_points
    );
}

/// Appendix I.3: the bow-tie hidden-certificate instance — Algorithm 9,
/// which is Algorithm 2 on the bow-tie, stays O(1) while N grows.
#[test]
fn appendix_i3_constant_probes() {
    let mut counts = Vec::new();
    for n in [1_000, 10_000, 100_000] {
        let inst = example_i3(n);
        let res = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
        assert!(res.tuples.is_empty());
        counts.push(res.stats.probe_points);
    }
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    assert!(counts[0] <= 6);
}

/// Section 3.2's illustration: R(A,B) ⋈ S(B) with S[4] = 20, S[5] = 28
/// implies the gap constraint ⟨˚,(20,28)⟩ — no output B-value strictly
/// between 20 and 28.
#[test]
fn section_3_2_gap_illustration() {
    use minesweeper_join::storage::{builder, Database};
    let mut db = Database::new();
    let r = db
        .add(builder::binary(
            "R",
            (1..=10).flat_map(|a| (18..=30).map(move |b| (a, b))),
        ))
        .unwrap();
    let s = db
        .add(builder::unary("S", [5, 10, 15, 20, 28, 35]))
        .unwrap();
    let q = minesweeper_join::core::Query::new(2)
        .atom(r, &[0, 1])
        .atom(s, &[1]);
    let res = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap();
    let mut got = res.tuples.clone();
    got.sort();
    assert_eq!(got, naive_join(&db, &q).unwrap());
    assert!(got.iter().all(|t| t[1] == 20 || t[1] == 28));
    assert_eq!(got.len(), 20);
}
