//! Seeded input generators. `--seed` feeds only this module: the server
//! receives the generated TSV files and request lines, never the seed.

use std::collections::HashSet;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A directed edge `(source, target)`.
pub type Edge = (u32, u32);

/// SplitMix64 — small, seedable, and good enough for workload synthesis.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2⁻³² for every `n` used
    /// here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `edges` distinct directed edges without self-loops over `nodes` nodes,
/// endpoints uniform; sorted.
pub fn uniform_graph(rng: &mut Rng, nodes: u32, edges: usize) -> Vec<Edge> {
    let mut seen: HashSet<Edge> = HashSet::with_capacity(edges * 2);
    while seen.len() < edges {
        let e = (
            rng.below(nodes as u64) as u32,
            rng.below(nodes as u64) as u32,
        );
        if e.0 != e.1 {
            seen.insert(e);
        }
    }
    sorted(seen)
}

/// Rank offset of the Chung–Lu weights: it trims the very head of the degree
/// sequence, where most of the seed-to-seed variance of the join's work
/// comes from (prototype runs: the work's quartile spread over ten seeds
/// falls from 6 % to 3 % at the size `triangle_list` uses).
const HEAD_OFFSET: f64 = 5.0;

/// A Chung–Lu graph: `edges` distinct edges whose endpoints are drawn with
/// probability proportional to the power-law weights
/// `w_i = (i + 1 + HEAD_OFFSET)^(-1/(γ-1))`. Each edge is oriented
/// low-id → high-id, so the triangle query over `R = S = T = E` lists every
/// triangle once. Node ids are shuffled so the heavy nodes do not sit at the
/// front of every index.
pub fn chung_lu_graph(rng: &mut Rng, nodes: u32, edges: usize, gamma: f64) -> Vec<Edge> {
    let mut cumulative = Vec::with_capacity(nodes as usize);
    let mut total = 0.0;
    for i in 0..nodes {
        total += ((i + 1) as f64 + HEAD_OFFSET).powf(-1.0 / (gamma - 1.0));
        cumulative.push(total);
    }
    let mut label: Vec<u32> = (0..nodes).collect();
    for i in (1..label.len()).rev() {
        label.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let draw = |rng: &mut Rng| {
        let x = rng.unit() * total;
        label[cumulative
            .partition_point(|&c| c <= x)
            .min(nodes as usize - 1)]
    };
    let mut seen: HashSet<Edge> = HashSet::with_capacity(edges * 2);
    while seen.len() < edges {
        let (a, b) = (draw(rng), draw(rng));
        if a != b {
            seen.insert((a.min(b), a.max(b)));
        }
    }
    sorted(seen)
}

fn sorted(set: HashSet<Edge>) -> Vec<Edge> {
    let mut v: Vec<Edge> = set.into_iter().collect();
    v.sort_unstable();
    v
}

/// Writes one `source target` line per edge — the format `msj --rel` loads.
pub fn write_tsv(path: &Path, edges: &[Edge]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (a, b) in edges {
        writeln!(out, "{a} {b}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_graph_other_seed_other_graph() {
        let a = uniform_graph(&mut Rng::new(7), 100, 300);
        let b = uniform_graph(&mut Rng::new(7), 100, 300);
        let c = uniform_graph(&mut Rng::new(8), 100, 300);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 300);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(a.iter().all(|&(x, y)| x != y && x < 100 && y < 100));
    }

    #[test]
    fn chung_lu_is_oriented_skewed_and_seeded() {
        let g = chung_lu_graph(&mut Rng::new(3), 200, 800, 2.3);
        assert_eq!(g, chung_lu_graph(&mut Rng::new(3), 200, 800, 2.3));
        assert_ne!(g, chung_lu_graph(&mut Rng::new(4), 200, 800, 2.3));
        assert_eq!(g.len(), 800);
        assert!(g.iter().all(|&(a, b)| a < b && b < 200));
        let mut degree = vec![0usize; 200];
        for &(a, b) in &g {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let max = *degree.iter().max().unwrap();
        assert!(max > 4 * 8, "power-law head: max degree {max} vs mean 8");
    }
}
