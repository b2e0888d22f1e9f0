//! The paper's quantitative guarantees, asserted as scaling laws on the
//! instance families of the evaluation.

use minesweeper_join::baselines::{generic_join, leapfrog_triejoin, yannakakis};
use minesweeper_join::cds::ProbeMode;
use minesweeper_join::core::triangle::triangle_query;
use minesweeper_join::core::{minesweeper_join, set_intersection, triangle_join};
use minesweeper_join::storage::{builder, Database, TrieRelation, Val};
use minesweeper_join::workloads::appendix_j::hidden_certificate_instance;
use minesweeper_join::workloads::intersection::blocks;
use minesweeper_join::workloads::prop53::qw_instance;

/// Theorem 2.7 on the block-intersection family: N fixed, |C| = Θ(N/b) —
/// probe counts must scale with 1/b.
#[test]
fn theorem_2_7_work_tracks_certificate_not_input() {
    let n: Val = 1 << 12;
    let probes: Vec<u64> = [4i64, 32, 256]
        .iter()
        .map(|&b| {
            let sets = blocks(n, b);
            let refs: Vec<&TrieRelation> = sets.iter().collect();
            let res = set_intersection(&refs);
            assert!(res.tuples.is_empty());
            res.stats.probe_points
        })
        .collect();
    // 8x smaller certificate ⇒ ~8x fewer probes (allow 4x..16x).
    for w in probes.windows(2) {
        let ratio = w[0] as f64 / w[1] as f64;
        assert!((4.0..=16.0).contains(&ratio), "{probes:?}");
    }
}

/// Appendix J: Minesweeper linear in M, worst-case-optimal baselines
/// quadratic (measured via machine-independent work counters).
#[test]
fn appendix_j_separation_in_work_counters() {
    let m = 4;
    let mut ms_probes = Vec::new();
    let mut lftj_seeks = Vec::new();
    let mut nprr_comparisons = Vec::new();
    let mut yann_touches = Vec::new();
    for chunk in [16i64, 32, 64] {
        let inst = hidden_certificate_instance(m, chunk);
        let ms = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
        ms_probes.push(ms.stats.probe_points);
        let lf = leapfrog_triejoin(&inst.db, &inst.query).unwrap();
        lftj_seeks.push(lf.stats.seeks);
        let np = generic_join(&inst.db, &inst.query).unwrap();
        nprr_comparisons.push(np.stats.comparisons);
        let ya = yannakakis(&inst.db, &inst.query).unwrap();
        yann_touches.push(ya.stats.comparisons + ya.stats.intermediate_tuples);
    }
    // Minesweeper ~linear: doubling M at most ~2.6x.
    for w in ms_probes.windows(2) {
        assert!(
            (w[1] as f64) < 2.6 * w[0] as f64,
            "minesweeper superlinear: {ms_probes:?}"
        );
    }
    // Baselines ~quadratic: doubling M at least 3x.
    for (name, series) in [
        ("lftj", &lftj_seeks),
        ("nprr", &nprr_comparisons),
        ("yannakakis", &yann_touches),
    ] {
        for w in series.windows(2) {
            assert!(
                w[1] as f64 > 3.0 * w[0] as f64,
                "{name} sub-quadratic: {series:?}"
            );
        }
    }
}

/// Proposition 5.3: Minesweeper's CDS merge work on Q₂ is Ω(m²) while the
/// certificate upper bound is O(m) — probes stay linear, backtracks do
/// not.
#[test]
fn prop_5_3_merge_lower_bound() {
    let mut backtracks = Vec::new();
    let mut probes = Vec::new();
    for m in [8i64, 16, 32] {
        let inst = qw_instance(2, m);
        let res = minesweeper_join(&inst.db, &inst.query, ProbeMode::General).unwrap();
        assert!(res.tuples.is_empty());
        backtracks.push(res.stats.backtracks);
        probes.push(res.stats.probe_points);
    }
    for w in backtracks.windows(2) {
        assert!(w[1] as f64 >= 3.0 * w[0] as f64, "{backtracks:?}");
    }
    for w in probes.windows(2) {
        assert!(w[1] as f64 <= 2.6 * w[0] as f64, "{probes:?}");
    }
}

/// Theorem 5.4: on the hard triangle instance, the dyadic CDS's Next-call
/// count grows ~linearly while the generic CDS's grows ~quadratically.
#[test]
fn theorem_5_4_dyadic_vs_generic_cds() {
    fn hard(
        m: Val,
    ) -> (
        Database,
        minesweeper_join::storage::RelId,
        minesweeper_join::storage::RelId,
        minesweeper_join::storage::RelId,
    ) {
        let mut db = Database::new();
        let mut pairs = Vec::new();
        for a in 1..=m {
            for b in 1..=m {
                pairs.push((a, b));
            }
        }
        let r = db.add(builder::binary("R", pairs)).unwrap();
        let s = db
            .add(builder::binary("S", (1..=m).map(|b| (b, 1))))
            .unwrap();
        let t = db
            .add(builder::binary("T", (1..=m).map(|a| (a, 2))))
            .unwrap();
        (db, r, s, t)
    }
    let mut generic_next = Vec::new();
    let mut dyadic_next = Vec::new();
    for m in [16i64, 32, 64] {
        let (db, r, s, t) = hard(m);
        let q = triangle_query(r, s, t);
        let gen = minesweeper_join(&db, &q, ProbeMode::General).unwrap();
        let tri = triangle_join(&db, r, s, t).unwrap();
        assert!(gen.tuples.is_empty() && tri.tuples.is_empty());
        generic_next.push(gen.stats.cds_next_calls);
        dyadic_next.push(tri.stats.cds_next_calls);
    }
    // Generic: ≥3x per doubling. Dyadic: ≤2.8x per doubling.
    for w in generic_next.windows(2) {
        assert!(w[1] as f64 >= 3.0 * w[0] as f64, "generic {generic_next:?}");
    }
    for w in dyadic_next.windows(2) {
        assert!(w[1] as f64 <= 2.8 * w[0] as f64, "dyadic {dyadic_next:?}");
    }
    // And at m = 64 the dyadic CDS must do substantially less total work.
    assert!(
        generic_next[2] > 2 * dyadic_next[2],
        "generic {generic_next:?} vs dyadic {dyadic_next:?}"
    );
}

/// Proposition 2.5's flavor, empirically: the FindGap count never exceeds
/// the Prop 2.6 canonical bound by more than the paper's 4^r·2^n query
/// factor on β-acyclic runs (loose sanity envelope, constants included).
/// Inputs: a fixed 2-path under random data, and random tree-shaped
/// queries run through `core::execute`, so NEO selection and re-indexing
/// are on the path.
#[test]
fn theorem_3_2_findgap_envelope() {
    use minesweeper_join::core::{canonical_certificate_size, execute};
    use minesweeper_join::workloads::{random_tree_instance, TreeQueryConfig};

    // Theorem 3.2: probes ≤ O(2^r |C|) + Z with r = 2, plus slack for
    // small constants.
    let check = |probes: u64, ub: u64, z: u64, ctx: &str| {
        assert!(
            probes <= 8 * ub + 4 * z + 16,
            "{ctx}: probes {probes} vs bound from ub {ub} z {z}"
        );
    };
    for n_attrs in 2..=6 {
        for seed in 0..100 {
            let cfg = TreeQueryConfig {
                n_attrs,
                ..TreeQueryConfig::default()
            };
            let inst = random_tree_instance(cfg, seed);
            let exec = execute(&inst.db, &inst.query).unwrap();
            let ub = canonical_certificate_size(&inst.db, &inst.query).unwrap();
            let z = exec.result.tuples.len() as u64;
            let ctx = format!("tree n_attrs={n_attrs} seed={seed}");
            check(exec.result.stats.probe_points, ub, z, &ctx);
        }
    }
    let mut rng = 0xabcdu64;
    let mut next = move |m: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % m
    };
    for _ in 0..10 {
        let mut db = Database::new();
        let e1 = db
            .add(builder::binary(
                "E1",
                (0..30).map(|_| (next(10) as Val, next(10) as Val)),
            ))
            .unwrap();
        let e2 = db
            .add(builder::binary(
                "E2",
                (0..30).map(|_| (next(10) as Val, next(10) as Val)),
            ))
            .unwrap();
        let q = minesweeper_join::core::Query::new(3)
            .atom(e1, &[0, 1])
            .atom(e2, &[1, 2]);
        let res = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap();
        let ub = canonical_certificate_size(&db, &q).unwrap();
        let z = res.tuples.len() as u64;
        check(res.stats.probe_points, ub, z, "2-path");
    }
}
