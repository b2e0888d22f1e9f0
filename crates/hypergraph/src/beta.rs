//! β-acyclicity: nest points, β-cycles, and nested elimination orders.
//!
//! A hypergraph is β-acyclic iff every sub-hypergraph is α-acyclic, iff it
//! has no β-cycle (Definition A.4), iff some vertex ordering is a *nested
//! elimination order* (Proposition A.6). The constructive route uses nest
//! points: Brouwer–Kolen (1980) proved every β-acyclic hypergraph has at
//! least two *nest points* — vertices whose incident edges form a chain
//! under inclusion. Eliminating nest points back to front yields the NEO
//! the Minesweeper analysis needs (Section 4).

use crate::hypergraph::Hypergraph;

fn is_nest_point(h: &Hypergraph, v: usize) -> bool {
    let incident = h.edges_containing(v);
    let mut sets: Vec<_> = incident.iter().map(|&i| h.edge(i)).collect();
    sets.sort_by_key(|s| s.len());
    sets.windows(2).all(|w| w[0].is_subset(w[1]))
}

/// Computes a nested elimination order `v₁, …, v_n` via nest-point
/// elimination, or `None` if the hypergraph is β-cyclic.
///
/// Vertices not covered by any edge are appended at deterministic positions
/// (they are trivially nest points). The construction follows the proof of
/// Proposition A.6: pick a nest point `v`, make it the *last* remaining
/// vertex of the order, recurse on `H − {v}`.
pub fn nested_elimination_order(h: &Hypergraph) -> Option<Vec<usize>> {
    let n = h.num_vertices();
    let mut current = h.clone();
    let mut removed = vec![false; n];
    let mut suffix: Vec<usize> = Vec::with_capacity(n);
    // Vertices in no edge at all can be eliminated immediately.
    loop {
        let covered = current.covered_vertices();
        // Pick the smallest-index unremoved vertex that is currently a nest
        // point (uncovered vertices are nest points vacuously).
        let pick = (0..n)
            .filter(|&v| !removed[v])
            .find(|&v| !covered.contains(&v) || is_nest_point(&current, v));
        match pick {
            Some(v) => {
                removed[v] = true;
                suffix.push(v);
                current = current.remove_vertex(v);
                if suffix.len() == n {
                    break;
                }
            }
            None => return None, // some covered vertices remain, none a nest point
        }
    }
    suffix.reverse();
    Some(suffix)
}

/// β-acyclicity test (via nest-point elimination).
///
/// ```
/// use minesweeper_hypergraph::{is_beta_acyclic, Hypergraph};
/// // The bow-tie {X}, {X,Y}, {Y} is β-acyclic…
/// let bowtie = Hypergraph::new(2, vec![vec![0], vec![0, 1], vec![1]]);
/// assert!(is_beta_acyclic(&bowtie));
/// // …while the triangle is not.
/// let triangle = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
/// assert!(!is_beta_acyclic(&triangle));
/// ```
pub fn is_beta_acyclic(h: &Hypergraph) -> bool {
    nested_elimination_order(h).is_some()
}

/// Searches for a β-cycle `(F₁,u₁,F₂,u₂,…,F_m,u_m,F₁)` with `m ≥ 3`
/// (Definition A.4): distinct vertices `uᵢ`, distinct edges `Fᵢ`,
/// `uᵢ ∈ Fᵢ ∩ Fᵢ₊₁`, and `uᵢ ∉ F_j` for every other `j`. Exponential-time
/// backtracking search; intended for cross-validating [`is_beta_acyclic`]
/// on small hypergraphs in tests.
///
/// Returns the cycle as `(edges, vertices)` with `edges.len() ==
/// vertices.len() == m`.
pub fn find_beta_cycle(h: &Hypergraph) -> Option<(Vec<usize>, Vec<usize>)> {
    let m = h.num_edges();
    for start in 0..m {
        let mut edges = vec![start];
        let mut verts = Vec::new();
        if extend_cycle(h, start, &mut edges, &mut verts) {
            return Some((edges, verts));
        }
    }
    None
}

fn extend_cycle(
    h: &Hypergraph,
    start: usize,
    edges: &mut Vec<usize>,
    verts: &mut Vec<usize>,
) -> bool {
    let last = *edges.last().unwrap();
    // Option 1: close the cycle back to `start` if long enough.
    if edges.len() >= 3 {
        for &u in h.edge(last) {
            if h.edge(start).contains(&u)
                && !verts.contains(&u)
                && cycle_vertex_ok(h, u, edges, verts, edges.len() - 1, true)
            {
                verts.push(u);
                if revalidate(h, edges, verts) {
                    return true;
                }
                verts.pop();
            }
        }
    }
    if edges.len() >= h.num_edges() {
        return false;
    }
    // Option 2: extend with a new edge.
    for next in 0..h.num_edges() {
        if edges.contains(&next) || next == start {
            continue;
        }
        for &u in h.edge(last) {
            if h.edge(next).contains(&u)
                && !verts.contains(&u)
                && cycle_vertex_ok(h, u, edges, verts, edges.len() - 1, false)
            {
                edges.push(next);
                verts.push(u);
                if extend_cycle(h, start, edges, verts) {
                    return true;
                }
                verts.pop();
                edges.pop();
            }
        }
    }
    false
}

/// Checks `u = u_i` is absent from all currently chosen edges except
/// `F_i`/`F_{i+1}` (where `F_{i+1}` is `F₁` when closing).
fn cycle_vertex_ok(
    h: &Hypergraph,
    u: usize,
    edges: &[usize],
    _verts: &[usize],
    i: usize,
    closing: bool,
) -> bool {
    for (j, &e) in edges.iter().enumerate() {
        let allowed = j == i || (closing && j == 0);
        if !allowed && h.edge(e).contains(&u) {
            return false;
        }
    }
    true
}

/// Full re-validation of a candidate cycle against Definition A.4 (the
/// incremental checks above cannot see future edges, so verify at closing
/// time).
fn revalidate(h: &Hypergraph, edges: &[usize], verts: &[usize]) -> bool {
    let m = edges.len();
    if m < 3 || verts.len() != m {
        return false;
    }
    for i in 0..m {
        let u = verts[i];
        let fi = edges[i];
        let fi1 = edges[(i + 1) % m];
        if !h.edge(fi).contains(&u) || !h.edge(fi1).contains(&u) {
            return false;
        }
        for (j, &e) in edges.iter().enumerate() {
            if j != i && j != (i + 1) % m && h.edge(e).contains(&u) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::fixtures::*;

    /// The nest points of `h` restricted to vertices that occur in some edge: a
    /// vertex `v` is a nest point when `{F ∈ E : v ∈ F}` is a chain under `⊆`.
    fn nest_points(h: &Hypergraph) -> Vec<usize> {
        let covered = h.covered_vertices();
        covered
            .into_iter()
            .filter(|&v| is_nest_point(h, v))
            .collect()
    }

    #[test]
    fn triangle_is_beta_cyclic_with_witness() {
        let h = triangle();
        assert!(!is_beta_acyclic(&h));
        let (edges, verts) = find_beta_cycle(&h).expect("triangle has a β-cycle");
        assert_eq!(edges.len(), 3);
        assert!(revalidate(&h, &edges, &verts));
    }

    #[test]
    fn triangle_plus_u_is_beta_cyclic() {
        // Example A.1: α-acyclic yet β-cyclic.
        let h = triangle_plus_u();
        assert!(!is_beta_acyclic(&h));
        assert!(find_beta_cycle(&h).is_some());
    }

    #[test]
    fn bowtie_path_star_are_beta_acyclic() {
        assert!(is_beta_acyclic(&bowtie()));
        assert!(find_beta_cycle(&bowtie()).is_none());
        assert!(is_beta_acyclic(&path(6)));
        assert!(find_beta_cycle(&path(4)).is_none());
        let star = Hypergraph::new(
            4,
            vec![
                vec![0],
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1],
                vec![2],
                vec![3],
            ],
        );
        assert!(is_beta_acyclic(&star));
    }

    #[test]
    fn example_b7_is_beta_acyclic() {
        let h = example_b7();
        assert!(is_beta_acyclic(&h));
        assert!(find_beta_cycle(&h).is_none());
    }

    #[test]
    fn nest_points_of_bowtie() {
        // In the bow-tie {X}, {X,Y}, {Y}: both X and Y are nest points
        // ({X} ⊂ {X,Y} and {Y} ⊂ {X,Y}).
        let pts = nest_points(&bowtie());
        assert_eq!(pts, vec![0, 1]);
    }

    #[test]
    fn nest_points_of_triangle_absent() {
        assert!(nest_points(&triangle()).is_empty());
    }

    #[test]
    fn brouwer_kolen_two_nest_points() {
        // Every β-acyclic hypergraph with ≥ 2 covered vertices has ≥ 2 nest
        // points (Brouwer–Kolen).
        for h in [bowtie(), path(5), example_b7()] {
            if h.covered_vertices().len() >= 2 {
                assert!(nest_points(&h).len() >= 2, "{h:?}");
            }
        }
    }

    #[test]
    fn neo_of_path_is_valid_permutation() {
        let h = path(4);
        let neo = nested_elimination_order(&h).unwrap();
        let mut sorted = neo.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..5).collect::<Vec<_>>());
        assert!(crate::elimination::is_nested_elimination_order(&h, &neo));
    }

    #[test]
    fn neo_none_for_beta_cyclic() {
        assert!(nested_elimination_order(&triangle()).is_none());
        assert!(nested_elimination_order(&triangle_plus_u()).is_none());
    }

    #[test]
    fn uncovered_vertices_are_handled() {
        // Vertex 2 occurs in no edge.
        let h = Hypergraph::new(3, vec![vec![0, 1]]);
        let neo = nested_elimination_order(&h).unwrap();
        assert_eq!(neo.len(), 3);
    }

    #[test]
    fn beta_definition_agrees_with_subgraph_definition() {
        // β-acyclic iff every edge-subset is α-acyclic (the original
        // definition). Check on all sub-hypergraphs of a few fixtures.
        for h in [
            triangle(),
            triangle_plus_u(),
            bowtie(),
            example_b7(),
            path(3),
        ] {
            let m = h.num_edges();
            let mut all_alpha = true;
            for mask in 1u32..(1 << m) {
                let keep: Vec<usize> = (0..m).filter(|&i| mask & (1 << i) != 0).collect();
                if !crate::gyo::is_alpha_acyclic(&h.edge_subgraph(&keep)) {
                    all_alpha = false;
                    break;
                }
            }
            assert_eq!(all_alpha, is_beta_acyclic(&h), "{h:?}");
        }
    }
}
