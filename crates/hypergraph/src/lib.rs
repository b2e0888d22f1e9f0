//! Hypergraph structure theory for join queries.
//!
//! Implements Appendix A of "Beyond Worst-case Analysis for Joins with
//! Minesweeper" (Ngo, Nguyen, Ré, Rudra; PODS 2014):
//!
//! * [`Hypergraph`] — vertices are query attributes, hyperedges are atoms;
//! * GYO reduction for **α-acyclicity** and join-tree construction
//!   ([`gyo`]) — the substrate for Yannakakis' algorithm;
//! * **β-acyclicity** via Brouwer–Kolen nest-point elimination and (for
//!   cross-validation) direct β-cycle search ([`beta`]);
//! * **nested elimination orders** (Definition A.5 / Proposition A.6) — the
//!   GAOs under which Minesweeper achieves `Õ(|C| + Z)`;
//! * **prefix posets** and **elimination width** (Section A.2 /
//!   Proposition A.7) — the `w` of the `Õ(|C|^{w+1} + Z)` bound;
//! * treewidth computation (exact for small hypergraphs, min-fill heuristic
//!   otherwise) ([`treewidth`]).

pub mod beta;
pub mod elimination;
pub mod gyo;
pub mod hypergraph;
pub mod treewidth;

pub use beta::{find_beta_cycle, is_beta_acyclic, nested_elimination_order};
pub use elimination::{elimination_width, is_nested_elimination_order, prefix_posets, PrefixPoset};
pub use gyo::{gyo_reduce, is_alpha_acyclic, join_tree, JoinTree};
pub use hypergraph::Hypergraph;
pub use treewidth::{induced_width_of_order, min_width_order, treewidth_exact, treewidth_upper};
