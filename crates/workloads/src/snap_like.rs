//! Scaled stand-ins for the paper's SNAP datasets (Section 5.2).
//!
//! The paper evaluates on `com-Orkut` (3.07M nodes / 117M edges),
//! `soc-Epinions1` (76K / 509K) and `soc-LiveJournal1` (4.8M / 69M) from
//! <http://snap.stanford.edu/data/>. Those graphs are not available
//! offline, so we generate Chung–Lu power-law graphs with the same
//! node:edge *ratio*, scaled down by a configurable factor. What Figure 2
//! measures (certificate size vs input size under gap-skipping joins)
//! depends on the sortedness/skew structure that power-law graphs
//! reproduce, not on the identity of the exact SNAP edges.

use minesweeper_storage::Val;

use crate::graphs::{chung_lu, symmetrize, EdgeList};

/// A named dataset profile: node and edge counts of the original SNAP
/// graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetProfile {
    /// Dataset name as printed in Figure 2.
    pub name: &'static str,
    /// Node count of the original graph.
    pub nodes: u64,
    /// Directed edge count of the original graph.
    pub edges: u64,
}

/// `com-Orkut`: 3,072,441 nodes, 117,185,083 edges.
pub const ORKUT: DatasetProfile = DatasetProfile {
    name: "com-Orkut",
    nodes: 3_072_441,
    edges: 117_185_083,
};

/// `soc-Epinions1`: 75,879 nodes, 508,837 edges.
pub const EPINIONS: DatasetProfile = DatasetProfile {
    name: "soc-Epinions1",
    nodes: 75_879,
    edges: 508_837,
};

/// `soc-LiveJournal1`: 4,847,571 nodes, 68,993,773 edges.
pub const LIVEJOURNAL: DatasetProfile = DatasetProfile {
    name: "soc-LiveJournal1",
    nodes: 4_847_571,
    edges: 68_993_773,
};

/// The three Figure 2 datasets.
pub const FIGURE2_DATASETS: [DatasetProfile; 3] = [ORKUT, EPINIONS, LIVEJOURNAL];

/// A generated graph with its provenance.
#[derive(Debug, Clone)]
pub struct GraphDataset {
    /// Profile this graph imitates.
    pub profile: DatasetProfile,
    /// Scale divisor applied to the original size.
    pub scale: u64,
    /// Number of vertices generated.
    pub nodes: Val,
    /// Directed edges (symmetrized).
    pub edges: EdgeList,
}

impl GraphDataset {
    /// Generates a stand-in at `1/scale` of the original size with a
    /// power-law exponent of 2.3 (typical for social graphs).
    pub fn generate(profile: DatasetProfile, scale: u64, seed: u64) -> Self {
        assert!(scale >= 1);
        let nodes = ((profile.nodes / scale).max(16)) as Val;
        let m = ((profile.edges / scale).max(32) / 2) as usize; // symmetrized below
        let edges = symmetrize(&chung_lu(nodes, m, 2.3, seed));
        GraphDataset {
            profile,
            scale,
            nodes,
            edges,
        }
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_snap_metadata() {
        assert_eq!(ORKUT.nodes, 3_072_441);
        assert_eq!(EPINIONS.edges, 508_837);
        assert_eq!(LIVEJOURNAL.nodes, 4_847_571);
        assert_eq!(FIGURE2_DATASETS.len(), 3);
    }

    #[test]
    fn scaled_generation_ratios() {
        let g = GraphDataset::generate(EPINIONS, 64, 1);
        // ~1186 nodes, ~7950 symmetrized edges.
        assert!(g.nodes > 1000 && g.nodes < 1400, "{}", g.nodes);
        assert!(
            g.edge_count() > 6000 && g.edge_count() < 9000,
            "{}",
            g.edge_count()
        );
        // Symmetric closure.
        let set: std::collections::HashSet<_> = g.edges.iter().copied().collect();
        assert!(g.edges.iter().all(|&(u, v)| set.contains(&(v, u))));
    }

    #[test]
    fn tiny_scale_still_nonempty() {
        let g = GraphDataset::generate(EPINIONS, 1_000_000, 2);
        assert!(g.nodes >= 16);
        assert!(g.edge_count() >= 32);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = GraphDataset::generate(ORKUT, 100_000, 9);
        let b = GraphDataset::generate(ORKUT, 100_000, 9);
        assert_eq!(a.edges, b.edges);
    }
}
