//! The unified join-algorithm interface.
//!
//! Every join evaluator in the workspace — Minesweeper itself and each
//! baseline in `minesweeper-baselines` — implements [`Algorithm`], so the
//! CLI, the equivalence harness, and the bench binaries dispatch through
//! one trait object instead of seven ad-hoc function signatures. The
//! name-based registry lives in `minesweeper_baselines::registry` (it must
//! see both this crate and the baselines).
//!
//! The output contract is deliberately strict so results are directly
//! comparable across implementations: `run` returns tuples over the full
//! attribute space, **sorted lexicographically in the original attribute
//! numbering**.

use std::sync::Arc;

use minesweeper_storage::{Database, ExecStats};

use crate::execute::{execute, Run};
use crate::minesweeper::JoinResult;
use crate::naive::naive_join;
use crate::query::{Query, QueryError};

/// A complete join evaluator with a stable name.
pub trait Algorithm {
    /// Registry / CLI name (lowercase, stable).
    fn name(&self) -> &'static str;

    /// One-line description for `--help`-style listings.
    fn description(&self) -> &'static str;

    /// Whether this algorithm can evaluate `query` (e.g. Yannakakis
    /// requires α-acyclicity). `run` on an unsupported query returns
    /// [`QueryError::Unsupported`].
    fn supports(&self, query: &Query) -> bool {
        let _ = query;
        true
    }

    /// Evaluates the query to completion. Tuples are sorted
    /// lexicographically in the original attribute numbering.
    fn run(&self, db: &Database, query: &Query) -> Result<JoinResult, QueryError>;
}

/// The paper's algorithm, via [`crate::plan()`] → sorted collect.
#[derive(Debug, Clone, Copy, Default)]
pub struct Minesweeper;

impl Algorithm for Minesweeper {
    fn name(&self) -> &'static str {
        "minesweeper"
    }

    fn description(&self) -> &'static str {
        "certificate-optimal probe loop over a constraint data structure (PODS 2014)"
    }

    fn run(&self, db: &Database, query: &Query) -> Result<JoinResult, QueryError> {
        Ok(execute(db, query)?.result)
    }
}

/// The paper's algorithm run shard-parallel: [`crate::plan()`] →
/// [`crate::PreparedExec::execute`] with a worker count (equi-depth
/// shards of the first GAO attribute, one probe loop per shard task).
/// Output is byte-identical to [`Minesweeper`]'s on every query.
#[derive(Debug, Clone, Copy)]
pub struct MinesweeperPar {
    /// Worker-thread / maximum-shard count.
    pub threads: usize,
}

impl MinesweeperPar {
    /// A parallel evaluator with an explicit worker count (`0` clamps
    /// to 1, i.e. serial).
    pub fn with_threads(threads: usize) -> Self {
        MinesweeperPar {
            threads: threads.max(1),
        }
    }
}

impl Default for MinesweeperPar {
    /// Auto-sizes to the hardware, always at least 2 workers (so the
    /// sharded path — not the serial fallback — is what registry
    /// equivalence tests exercise) and at most 8 (the probe loop is
    /// memory-bound; more buys little on typical hosts).
    fn default() -> Self {
        MinesweeperPar {
            threads: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .clamp(2, 8),
        }
    }
}

impl Algorithm for MinesweeperPar {
    fn name(&self) -> &'static str {
        "minesweeper-par"
    }

    fn description(&self) -> &'static str {
        "Minesweeper with per-shard parallel probe loops over an equi-depth domain partition"
    }

    fn run(&self, db: &Database, query: &Query) -> Result<JoinResult, QueryError> {
        // Shard workers co-own the database they probe; relations are
        // `Arc`-shared inside, so this clone is O(relations).
        let db = Arc::new(db.clone());
        let run = Run {
            threads: Some(self.threads),
            ..Run::default()
        };
        let exec = crate::plan(&db, query)?.prepare_exec(&db)?;
        Ok(exec.execute(&db, &run).result)
    }
}

/// Nested-loop ground truth; quadratic-ish, for oracles and tiny inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Naive;

impl Algorithm for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn description(&self) -> &'static str {
        "nested-loop evaluation used as the testing oracle"
    }

    fn run(&self, db: &Database, query: &Query) -> Result<JoinResult, QueryError> {
        let tuples = naive_join(db, query)?;
        let mut stats = ExecStats::new();
        stats.outputs = tuples.len() as u64;
        Ok(JoinResult { tuples, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minesweeper_storage::builder;

    #[test]
    fn minesweeper_and_naive_agree_through_the_trait() {
        let mut db = Database::new();
        let r = db
            .add(builder::binary("R", [(1, 2), (2, 3), (5, 1)]))
            .unwrap();
        let q = Query::new(3).atom(r, &[0, 1]).atom(r, &[1, 2]);
        let algos: Vec<Box<dyn Algorithm>> = vec![Box::new(Minesweeper), Box::new(Naive)];
        let results: Vec<_> = algos
            .iter()
            .map(|a| {
                assert!(a.supports(&q));
                a.run(&db, &q).unwrap().tuples
            })
            .collect();
        assert_eq!(results[0], results[1]);
        assert!(
            results[0].windows(2).all(|w| w[0] < w[1]),
            "sorted contract"
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Minesweeper.name(), "minesweeper");
        assert_eq!(MinesweeperPar::default().name(), "minesweeper-par");
        assert_eq!(Naive.name(), "naive");
        assert!(!Minesweeper.description().is_empty());
    }

    #[test]
    fn parallel_entry_matches_serial_through_the_trait() {
        let mut db = Database::new();
        let r = db
            .add(builder::binary(
                "R",
                (0..40).map(|i: i64| (i % 9, (i * 5 + 2) % 9)),
            ))
            .unwrap();
        let q = Query::new(3).atom(r, &[0, 1]).atom(r, &[1, 2]);
        let serial = Minesweeper.run(&db, &q).unwrap();
        let par = MinesweeperPar::default();
        assert!(par.threads >= 2, "registry default must actually shard");
        let got = par.run(&db, &q).unwrap();
        assert_eq!(got.tuples, serial.tuples);
        assert_eq!(got.stats.outputs, serial.stats.outputs);
        assert_eq!(
            MinesweeperPar::with_threads(0).threads,
            1,
            "explicit 0 clamps to serial"
        );
    }
}
