//! The Appendix J counterexample family.
//!
//! Query: `Q = ⋈_{i=1..m} Rᵢ(Aᵢ, Aᵢ₊₁)` — a β-acyclic path whose identity
//! GAO is a nested elimination order. Each attribute ranges over `[m·M]`,
//! split into `m` chunks of width `M`. Relation `Rᵢ` contains
//!
//! * for every chunk `j ∉ {i, i−1}`: the full grid
//!   `[(j−1)M+2, jM] × [(j−1)M+2, jM]`,
//! * for chunk `i`: the single tuple `((i−1)M+1, (i−1)M+1)`,
//! * for chunk `i−1` (cyclically, so `R₁`'s chunk `m`): nothing.
//!
//! The output is empty and a certificate of size `O(mM)` exists ("the
//! certificate is hidden along a long path"), so Minesweeper finishes in
//! `Õ(mM)`; Yannakakis' semijoins and the worst-case-optimal algorithms
//! each touch `Ω(mM²)` tuples/prefixes. The `appendix_j` harness measures
//! exactly this separation.

use minesweeper_core::Query;
use minesweeper_storage::{Database, RelationBuilder, Val};

use crate::queries::Instance;

/// Builds the hidden-certificate instance with `m ≥ 3` relations and chunk
/// width `M ≥ 2`. Input size is `Θ(m²M²)` total.
pub fn hidden_certificate_instance(m: usize, chunk: Val) -> Instance {
    assert!(m >= 3, "the construction needs m >= 3");
    assert!(chunk >= 2);
    let mut db = Database::new();
    let mut query = Query::new(m + 1);
    for i in 1..=m {
        let mut b = RelationBuilder::new(format!("R{i}"), 2);
        for j in 1..=m {
            let j_val = j as Val;
            if j == i {
                // Single off-grid tuple.
                let v = (j_val - 1) * chunk + 1;
                b.push(&[v, v]);
            } else if j == prev_chunk(i, m) {
                // Empty chunk.
            } else {
                let lo = (j_val - 1) * chunk + 2;
                let hi = j_val * chunk;
                for a in lo..=hi {
                    for bb in lo..=hi {
                        b.push(&[a, bb]);
                    }
                }
            }
        }
        let rel = db.add(b.build().unwrap()).unwrap();
        query = query.atom(rel, &[i - 1, i]);
    }
    Instance { db, query }
}

/// The chunk index `i − 1`, cyclically (chunk `m` for `i = 1`).
fn prev_chunk(i: usize, m: usize) -> usize {
    if i == 1 {
        m
    } else {
        i - 1
    }
}

/// The generalized-arity variant of the family: `Q = ⋈ᵢ Rᵢ(Aᵢ, …,
/// A_{i+k−1})` with `k`-dimensional grid chunks `[(j−1)M+2, jM]^k` — the
/// paper's second Appendix J construction, which widens the baseline gap
/// to `Ω(mM^k)` while Minesweeper stays `Õ(mM)`. `k = 2` reduces to
/// [`hidden_certificate_instance`].
pub fn hidden_certificate_path_k(m: usize, k: usize, chunk: Val) -> Instance {
    assert!(m >= 3 && k >= 2 && chunk >= 2);
    let mut db = Database::new();
    let mut query = Query::new(m + k - 1);
    for i in 1..=m {
        let mut b = RelationBuilder::new(format!("R{i}"), k);
        for j in 1..=m {
            let j_val = j as Val;
            if j == i {
                let v = (j_val - 1) * chunk + 1;
                b.push(&vec![v; k]);
            } else if j == prev_chunk(i, m) {
                // Empty chunk.
            } else {
                let lo = (j_val - 1) * chunk + 2;
                let hi = j_val * chunk;
                // Full k-dimensional grid over [lo, hi].
                let mut t = vec![lo; k];
                loop {
                    b.push(&t);
                    let mut pos = k;
                    let mut done = true;
                    while pos > 0 {
                        pos -= 1;
                        if t[pos] < hi {
                            t[pos] += 1;
                            for x in &mut t[pos + 1..] {
                                *x = lo;
                            }
                            done = false;
                            break;
                        }
                    }
                    if done {
                        break;
                    }
                }
            }
        }
        let rel = db.add(b.build().unwrap()).unwrap();
        let attrs: Vec<usize> = (i - 1..i - 1 + k).collect();
        query = query.atom(rel, &attrs);
    }
    Instance { db, query }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minesweeper_cds::ProbeMode;
    use minesweeper_core::{minesweeper_join, naive_join};
    use minesweeper_hypergraph::{is_beta_acyclic, is_nested_elimination_order};

    #[test]
    fn instance_shape() {
        let m = 4;
        let chunk: Val = 5;
        let inst = hidden_certificate_instance(m, chunk);
        assert_eq!(inst.query.num_atoms(), m);
        assert_eq!(inst.query.n_attrs, m + 1);
        // Each relation: (m−2) chunks of (M−1)² plus one singleton.
        let expect = (m - 2) * ((chunk - 1) * (chunk - 1)) as usize + 1;
        for (_, rel) in inst.db.iter() {
            assert_eq!(rel.len(), expect);
        }
        let h = inst.query.hypergraph();
        assert!(is_beta_acyclic(&h));
        let gao: Vec<usize> = (0..=m).collect();
        assert!(is_nested_elimination_order(&h, &gao));
    }

    #[test]
    fn output_is_empty() {
        let inst = hidden_certificate_instance(3, 4);
        assert!(naive_join(&inst.db, &inst.query).unwrap().is_empty());
        let inst = hidden_certificate_instance(4, 3);
        assert!(naive_join(&inst.db, &inst.query).unwrap().is_empty());
    }

    #[test]
    fn arity_k_instance_shape() {
        let m = 3;
        let k = 3;
        let chunk: Val = 3;
        let inst = hidden_certificate_path_k(m, k, chunk);
        assert_eq!(inst.query.n_attrs, m + k - 1);
        assert_eq!(inst.query.max_arity(), k);
        let h = inst.query.hypergraph();
        assert!(is_beta_acyclic(&h));
        let gao: Vec<usize> = (0..m + k - 1).collect();
        assert!(is_nested_elimination_order(&h, &gao));
        // Each relation: (m−2) chunks of (M−1)^k plus one singleton.
        let expect = (m - 2) * ((chunk - 1).pow(k as u32)) as usize + 1;
        for (_, rel) in inst.db.iter() {
            assert_eq!(rel.len(), expect);
        }
        assert!(naive_join(&inst.db, &inst.query).unwrap().is_empty());
        assert_eq!(
            hidden_certificate_path_k(4, 2, 5).db.total_tuples(),
            hidden_certificate_instance(4, 5).db.total_tuples(),
            "k = 2 reduces to the base family"
        );
    }

    #[test]
    fn arity_k_minesweeper_stays_fast() {
        // k = 3: baselines pay Ω(M³) per grid; Minesweeper's probes stay
        // linear in M.
        let mut probes = Vec::new();
        for chunk in [4i64, 8, 16] {
            let inst = hidden_certificate_path_k(3, 3, chunk);
            let res = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
            assert!(res.tuples.is_empty());
            probes.push(res.stats.probe_points);
        }
        assert!(
            probes[2] < 3 * probes[1],
            "superlinear probe growth: {probes:?}"
        );
    }

    #[test]
    fn minesweeper_is_subquadratic_in_chunk_width() {
        // Probe counts must scale ~linearly with M (certificate size
        // Θ(mM)), far below the Θ(M²) grid sizes.
        let m = 4;
        let mut probes = Vec::new();
        for chunk in [8, 16, 32] {
            let inst = hidden_certificate_instance(m, chunk);
            let res = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
            assert!(res.tuples.is_empty());
            probes.push(res.stats.probe_points);
        }
        // Doubling M should roughly double the probes, not quadruple them.
        assert!(probes[2] < 3 * probes[1], "superlinear growth: {probes:?}");
        let chunk = 32;
        let inst = hidden_certificate_instance(m, chunk);
        let grid = (chunk - 1) * (chunk - 1);
        let res = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
        assert!(
            (res.stats.probe_points as i64) < grid,
            "probes {} should be well below one grid {grid}",
            res.stats.probe_points
        );
    }
}
