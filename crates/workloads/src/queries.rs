//! The queries of the paper's evaluation (Section 5.2) and general query
//! builders.
//!
//! * Star: `Q = R₁(A) ⋈ S(A,B) ⋈ S(A,C) ⋈ S(A,D) ⋈ R₂(B) ⋈ R₃(C) ⋈ R₄(D)`
//! * 3-path: `Q = S(A,B) ⋈ S(B,C) ⋈ S(C,D) ⋈ R₅(A) ⋈ R₆(B) ⋈ R₇(C) ⋈ R₈(D)`
//! * Tree: `Q = S(A,B) ⋈ S(B,C) ⋈ S(B,D) ⋈ S(D,E) ⋈ R₉(A) ⋈ R₁₀(C) ⋈
//!   R₁₁(D) ⋈ R₁₂(E)`
//!
//! where `S` is a graph's edge relation and each `Rᵢ` samples the vertex
//! set with probability `p` (0.001 in the paper).

use minesweeper_core::Query;
use minesweeper_storage::{builder, Database, RelId, Val};

use crate::graphs::{sample_vertices, EdgeList};

/// A ready-to-run instance.
#[derive(Debug)]
pub struct Instance {
    /// The catalog.
    pub db: Database,
    /// The query over it.
    pub query: Query,
}

fn edge_rel(db: &mut Database, name: &str, edges: &[(Val, Val)]) -> RelId {
    db.add(builder::binary(name, edges.iter().copied()))
        .unwrap()
}

fn vertex_rel(db: &mut Database, name: &str, n: Val, p: f64, seed: u64) -> RelId {
    db.add(builder::unary(name, sample_vertices(n, p, seed)))
        .unwrap()
}

/// The star query of Section 5.2. GAO: `A, B, C, D`.
pub fn star_query(edges: &EdgeList, n_vertices: Val, p: f64, seed: u64) -> Instance {
    let mut db = Database::new();
    let s = edge_rel(&mut db, "S", edges);
    let r1 = vertex_rel(&mut db, "R1", n_vertices, p, seed);
    let r2 = vertex_rel(&mut db, "R2", n_vertices, p, seed.wrapping_add(1));
    let r3 = vertex_rel(&mut db, "R3", n_vertices, p, seed.wrapping_add(2));
    let r4 = vertex_rel(&mut db, "R4", n_vertices, p, seed.wrapping_add(3));
    let query = Query::new(4)
        .atom(r1, &[0])
        .atom(s, &[0, 1])
        .atom(s, &[0, 2])
        .atom(s, &[0, 3])
        .atom(r2, &[1])
        .atom(r3, &[2])
        .atom(r4, &[3]);
    Instance { db, query }
}

/// The 3-path query of Section 5.2. GAO: `A, B, C, D`.
pub fn three_path_query(edges: &EdgeList, n_vertices: Val, p: f64, seed: u64) -> Instance {
    let mut db = Database::new();
    let s = edge_rel(&mut db, "S", edges);
    let r5 = vertex_rel(&mut db, "R5", n_vertices, p, seed);
    let r6 = vertex_rel(&mut db, "R6", n_vertices, p, seed.wrapping_add(1));
    let r7 = vertex_rel(&mut db, "R7", n_vertices, p, seed.wrapping_add(2));
    let r8 = vertex_rel(&mut db, "R8", n_vertices, p, seed.wrapping_add(3));
    let query = Query::new(4)
        .atom(s, &[0, 1])
        .atom(s, &[1, 2])
        .atom(s, &[2, 3])
        .atom(r5, &[0])
        .atom(r6, &[1])
        .atom(r7, &[2])
        .atom(r8, &[3]);
    Instance { db, query }
}

/// The tree query of Section 5.2. GAO: `A, B, C, D, E`.
pub fn tree_query(edges: &EdgeList, n_vertices: Val, p: f64, seed: u64) -> Instance {
    let mut db = Database::new();
    let s = edge_rel(&mut db, "S", edges);
    let r9 = vertex_rel(&mut db, "R9", n_vertices, p, seed);
    let r10 = vertex_rel(&mut db, "R10", n_vertices, p, seed.wrapping_add(1));
    let r11 = vertex_rel(&mut db, "R11", n_vertices, p, seed.wrapping_add(2));
    let r12 = vertex_rel(&mut db, "R12", n_vertices, p, seed.wrapping_add(3));
    let query = Query::new(5)
        .atom(s, &[0, 1])
        .atom(s, &[1, 2])
        .atom(s, &[1, 3])
        .atom(s, &[3, 4])
        .atom(r9, &[0])
        .atom(r10, &[2])
        .atom(r11, &[3])
        .atom(r12, &[4]);
    Instance { db, query }
}

/// The triangle instance `R(A,B) ⋈ S(B,C) ⋈ T(A,C)` over one edge list.
/// Returns the database plus the three relation ids (for
/// `minesweeper_core::triangle_join`).
pub fn triangle_instance(edges: &EdgeList) -> (Database, RelId, RelId, RelId, Query) {
    let mut db = Database::new();
    let r = edge_rel(&mut db, "R", edges);
    let s = edge_rel(&mut db, "S", edges);
    let t = edge_rel(&mut db, "T", edges);
    let q = Query::new(3)
        .atom(r, &[0, 1])
        .atom(s, &[1, 2])
        .atom(t, &[0, 2]);
    (db, r, s, t, q)
}

/// The Section 4.4 layered instance: a DAG of `layers` layers of `width`
/// vertices with complete bipartite edges between consecutive layers. Its
/// longest path has `layers − 1` edges, so the path query of length
/// `layers` is empty — yet the graph contains `width^(layers−1)` maximal
/// paths, all of which the worst-case-optimal algorithms enumerate while
/// Minesweeper's certificate stays `O(ℓ·|E|)` ("both NPRR and LFTJ will
/// have to explore all ω(|E|) paths").
pub fn layered_path_instance(layers: usize, width: Val) -> Instance {
    assert!(layers >= 2 && width >= 1);
    let mut edges: EdgeList = Vec::new();
    for l in 0..(layers as Val - 1) {
        for u in 0..width {
            for v in 0..width {
                edges.push((l * width + u, (l + 1) * width + v));
            }
        }
    }
    path_query(&edges, layers)
}

/// A path query of length `m` over one shared edge relation:
/// `E(A₀,A₁) ⋈ E(A₁,A₂) ⋈ … ⋈ E(A_{m−1},A_m)` — the family the paper uses
/// to argue NPRR/LFTJ are not certificate-optimal (Section 4.4).
pub fn path_query(edges: &EdgeList, m: usize) -> Instance {
    assert!(m >= 1);
    let mut db = Database::new();
    let e = edge_rel(&mut db, "E", edges);
    let mut query = Query::new(m + 1);
    for i in 0..m {
        query = query.atom(e, &[i, i + 1]);
    }
    Instance { db, query }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minesweeper_cds::ProbeMode;
    use minesweeper_core::{choose_gao, minesweeper_join, naive_join};
    use minesweeper_hypergraph::is_beta_acyclic;

    fn toy_edges() -> EdgeList {
        crate::graphs::symmetrize(&[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (0, 2)])
    }

    #[test]
    fn star_is_beta_acyclic_and_correct() {
        let inst = star_query(&toy_edges(), 5, 0.9, 42);
        assert!(is_beta_acyclic(&inst.query.hypergraph()));
        let choice = choose_gao(&inst.query, 8);
        assert_eq!(choice.mode, ProbeMode::Chain);
        // The identity GAO (A,B,C,D) is itself a NEO for the star query.
        assert!(minesweeper_hypergraph::is_nested_elimination_order(
            &inst.query.hypergraph(),
            &[0, 1, 2, 3]
        ));
        let ms = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
        let mut got = ms.tuples;
        got.sort();
        assert_eq!(got, naive_join(&inst.db, &inst.query).unwrap());
    }

    #[test]
    fn three_path_is_beta_acyclic_and_correct() {
        let inst = three_path_query(&toy_edges(), 5, 0.9, 7);
        assert!(is_beta_acyclic(&inst.query.hypergraph()));
        assert!(minesweeper_hypergraph::is_nested_elimination_order(
            &inst.query.hypergraph(),
            &[0, 1, 2, 3]
        ));
        let ms = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
        let mut got = ms.tuples;
        got.sort();
        assert_eq!(got, naive_join(&inst.db, &inst.query).unwrap());
    }

    #[test]
    fn tree_is_beta_acyclic_and_correct() {
        let inst = tree_query(&toy_edges(), 5, 0.9, 9);
        assert!(is_beta_acyclic(&inst.query.hypergraph()));
        let choice = choose_gao(&inst.query, 8);
        assert_eq!(choice.mode, ProbeMode::Chain);
        // Note: the identity order (A,B,C,D,E) is NOT necessarily nested
        // for the tree query; run with the chosen NEO after re-indexing.
        let (db2, q2) =
            minesweeper_core::reindex_for_gao(&inst.db, &inst.query, &choice.order).unwrap();
        let ms = minesweeper_join(&db2, &q2, ProbeMode::Chain).unwrap();
        // Map back to original attribute order for comparison.
        let mut inv = [0usize; 5];
        for (i, &a) in choice.order.iter().enumerate() {
            inv[a] = i;
        }
        let mut got: Vec<Vec<i64>> = ms
            .tuples
            .iter()
            .map(|t| (0..5).map(|a| t[inv[a]]).collect())
            .collect();
        got.sort();
        assert_eq!(got, naive_join(&inst.db, &inst.query).unwrap());
    }

    #[test]
    fn path_query_shapes() {
        let inst = path_query(&toy_edges(), 3);
        assert_eq!(inst.query.n_attrs, 4);
        assert_eq!(inst.query.num_atoms(), 3);
        assert!(is_beta_acyclic(&inst.query.hypergraph()));
        assert!(inst.db.total_tuples() > 0);
    }

    #[test]
    fn layered_instance_is_empty_and_cheap_for_minesweeper() {
        let layers = 5;
        let width = 6;
        let inst = layered_path_instance(layers, width);
        assert!(naive_join(&inst.db, &inst.query).unwrap().is_empty());
        // Edge count: (layers−1)·width².
        let edges = inst.db.total_tuples();
        assert_eq!(edges, (layers - 1) * (width * width) as usize);
        let res = minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain).unwrap();
        assert!(res.tuples.is_empty());
        // Probes stay near-linear in |E|, far below width^(layers−1)
        // (= 1296 maximal paths here).
        assert!(
            (res.stats.probe_points as usize) < 2 * edges,
            "probes {} vs |E| {edges}",
            res.stats.probe_points
        );
    }

    #[test]
    fn triangle_instance_builds() {
        let (db, r, s, t, q) = triangle_instance(&toy_edges());
        assert_eq!(q.num_atoms(), 3);
        let res = minesweeper_core::triangle_join(&db, r, s, t).unwrap();
        let mut got = res.tuples;
        got.sort();
        assert_eq!(got, naive_join(&db, &q).unwrap());
        assert!(!got.is_empty(), "toy graph has symmetrized triangles");
    }
}
