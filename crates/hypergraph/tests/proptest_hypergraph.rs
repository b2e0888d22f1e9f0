//! Property-based cross-validation of the acyclicity machinery on random
//! hypergraphs.

use proptest::prelude::*;

use minesweeper_hypergraph::{
    elimination_width, find_beta_cycle, induced_width_of_order, is_alpha_acyclic, is_beta_acyclic,
    is_nested_elimination_order, min_width_order, nested_elimination_order, treewidth_exact,
    Hypergraph,
};

/// Random hypergraph with up to 5 vertices and 5 edges (small enough for
/// the exponential witnesses searches).
fn hypergraph_strategy() -> impl Strategy<Value = Hypergraph> {
    (2usize..=5).prop_flat_map(|n| {
        prop::collection::vec(prop::collection::btree_set(0..n, 1..=n.min(3)), 1..=5).prop_map(
            move |edges| {
                Hypergraph::new(
                    n,
                    edges.into_iter().map(|e| e.into_iter().collect()).collect(),
                )
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Proposition A.6 both ways: a NEO exists iff no β-cycle exists, and
    /// any constructed NEO passes the prefix-poset chain check.
    #[test]
    fn neo_iff_no_beta_cycle(h in hypergraph_strategy()) {
        let neo = nested_elimination_order(&h);
        let cycle = find_beta_cycle(&h);
        prop_assert_eq!(neo.is_some(), cycle.is_none(), "{:?}", h);
        if let Some(order) = neo {
            prop_assert!(is_nested_elimination_order(&h, &order));
        }
    }

    /// β-acyclicity equals "every edge-subset is α-acyclic" (the original
    /// definition from Fagin).
    #[test]
    fn beta_equals_hereditary_alpha(h in hypergraph_strategy()) {
        let m = h.num_edges();
        let mut hereditary = true;
        for mask in 1u32..(1 << m) {
            let keep: Vec<usize> = (0..m).filter(|&i| mask & (1 << i) != 0).collect();
            if !is_alpha_acyclic(&h.edge_subgraph(&keep)) {
                hereditary = false;
                break;
            }
        }
        prop_assert_eq!(hereditary, is_beta_acyclic(&h), "{:?}", h);
    }

    /// Proposition A.7: Gaifman induced width equals prefix-poset
    /// elimination width for every order, and min_width_order achieves the
    /// exact treewidth at these sizes.
    #[test]
    fn widths_agree(h in hypergraph_strategy()) {
        let n = h.num_vertices();
        // Check a handful of orders: identity, reverse, and one rotation.
        let identity: Vec<usize> = (0..n).collect();
        let reverse: Vec<usize> = (0..n).rev().collect();
        let rotated: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
        for order in [identity, reverse, rotated] {
            prop_assert_eq!(
                induced_width_of_order(&h, &order),
                elimination_width(&h, &order),
                "{:?} {:?}", h, order
            );
        }
        let (best, w) = min_width_order(&h, 6);
        prop_assert_eq!(w, treewidth_exact(&h, 6));
        prop_assert_eq!(induced_width_of_order(&h, &best), w);
    }

    /// A NEO's elimination width never undercuts the treewidth.
    #[test]
    fn neo_width_bounded_below_by_treewidth(h in hypergraph_strategy()) {
        if let Some(order) = nested_elimination_order(&h) {
            let tw = treewidth_exact(&h, 6);
            prop_assert!(elimination_width(&h, &order) >= tw);
        }
    }
}
