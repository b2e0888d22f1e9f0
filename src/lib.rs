//! # minesweeper-join
//!
//! A faithful, from-scratch Rust implementation of **"Beyond Worst-case
//! Analysis for Joins with Minesweeper"** (Hung Q. Ngo, Dung T. Nguyen,
//! Christopher Ré, Atri Rudra; PODS 2014, full version arXiv:1302.0914).
//!
//! Minesweeper is a natural-join algorithm for relations stored in ordered
//! indexes. Instead of scanning, it keeps a *constraint data structure* of
//! the gaps it has discovered in the output space and repeatedly probes
//! the first point not yet excluded. Its runtime is measured against the
//! smallest **certificate** `C` — the fewest comparisons any
//! comparison-based algorithm must make to certify the output:
//!
//! * β-acyclic queries, nested elimination order GAO: `Õ(|C| + Z)`
//!   (Theorem 2.7) — *instance optimal* up to a log factor;
//! * general queries with elimination width `w`: `Õ(|C|^{w+1} + Z)`
//!   (Theorem 5.1);
//! * the triangle query with a dyadic CDS: `Õ(|C|^{3/2} + Z)`
//!   (Theorem 5.4).
//!
//! ## Quick start
//!
//! The front door is the [`engine::Engine`]: it owns the database, a
//! schema catalog with typed (integer *and* string) columns behind a
//! dictionary encoder — one row codec converts every cell on the way in
//! and out — and a prepared-statement cache, so planning and GAO
//! re-indexing are paid once per query shape and repeated executions go
//! straight to the probe loop:
//!
//! ```
//! use minesweeper_join::engine::{Engine, ExecOptions};
//! use minesweeper_join::storage::Value;
//!
//! let mut engine = Engine::new();
//! engine.load_tsv("R", "1 5\n2 7\n4 9\n").unwrap();
//! engine.load_tsv("T", "5\n9\n").unwrap();
//!
//! // Prepare once: parse + plan + (if needed) re-index, all cached.
//! let stmt = engine.prepare("R(x, y), T(y)").unwrap();
//! let result = stmt.execute(&ExecOptions::default()).unwrap();
//! assert_eq!(result.columns, vec!["x", "y"]);
//! assert_eq!(result.rows[0], vec![Value::Int(1), Value::Int(5)]);
//!
//! // A repeat prepare (any variable names) hits the cache.
//! let again = engine.prepare("R(a, b), T(b)").unwrap();
//! assert!(again.cache_hit());
//! ```
//!
//! Underneath sits the plan/execute split: [`core::plan()`] makes every
//! decision that doesn't touch tuples (GAO choice, probe mode, re-index
//! mapping) and returns a reusable [`core::Plan`];
//! [`core::Plan::prepare_exec`] binds it to a database, and
//! [`core::PreparedExec::open`] is the one way to run it — a lazy
//! [`core::ExecStream`] that yields tuples as they are certified: stop
//! after `k` tuples and the remaining certificate work is never paid. A
//! [`core::Run`] restricts the same stream (a limit, literal seeds) or
//! asks for shard workers feeding it in the identical order;
//! [`core::PreparedExec::execute`], [`core::Plan::execute`] and
//! [`core::execute()`] drain it.
//!
//! ```
//! use minesweeper_join::prelude::*;
//!
//! // Build a database of ordered relations.
//! let mut db = Database::new();
//! let r = db.add(builder::unary("R", [1, 2, 4])).unwrap();
//! let s = db.add(builder::binary("S", [(1, 5), (2, 7), (4, 9)])).unwrap();
//! let t = db.add(builder::unary("T", [5, 9])).unwrap();
//!
//! // The bow-tie query R(X) ⋈ S(X,Y) ⋈ T(Y); attributes are GAO positions.
//! let q = Query::new(2).atom(r, &[0]).atom(s, &[0, 1]).atom(t, &[1]);
//!
//! // Plan once (β-acyclic ⇒ chain mode), bind, then stream lazily …
//! let db = std::sync::Arc::new(db);
//! let p = plan(&db, &q).unwrap();
//! let exec = p.prepare_exec(&db).unwrap();
//! let mut stream = exec.open(&db, &Run::default());
//! assert_eq!(stream.next(), Some(vec![1, 5]));
//! // … statistics are live mid-stream (FindGap count ≈ the paper's |C|):
//! assert!(stream.stats().find_gap_calls < 40);
//! assert_eq!(stream.next(), Some(vec![4, 9]));
//!
//! // Or materialize everything, sorted in the original attribute order:
//! let result = p.execute(&db).unwrap().result;
//! assert_eq!(result.tuples, vec![vec![1, 5], vec![4, 9]]);
//!
//! // Every evaluator — Minesweeper and all baselines — is also reachable
//! // through the `Algorithm` registry:
//! let lftj = lookup("leapfrog").unwrap();
//! assert_eq!(lftj.run(&db, &q).unwrap().tuples, result.tuples);
//! ```
//!
//! ## Crates
//!
//! | Crate | Contents |
//! |---|---|
//! | [`storage`] | sorted-trie relations, `FindGap`, cursors, catalog |
//! | [`hypergraph`] | GYO, β-acyclicity, nested elimination orders, treewidth |
//! | [`cds`] | interval sets, `ConstraintTree`, shadow chains, triangle CDS |
//! | [`core`] | the Minesweeper algorithm and its specializations |
//! | [`baselines`] | Yannakakis, LFTJ, NPRR, binary plans, DLM intersection |
//! | [`workloads`] | synthetic graphs and the paper's instance families |

#[warn(missing_docs)]
pub mod engine;
#[warn(missing_docs)]
pub mod render;
#[warn(missing_docs)]
pub mod server;
pub mod text;

/// Re-export of `minesweeper-storage`.
pub use minesweeper_storage as storage;

/// Re-export of `minesweeper-durability`.
pub use minesweeper_durability as durability;

/// Re-export of `minesweeper-hypergraph`.
pub use minesweeper_hypergraph as hypergraph;

/// Re-export of `minesweeper-cds`.
pub use minesweeper_cds as cds;

/// Re-export of `minesweeper-core`.
pub use minesweeper_core as core;

/// Re-export of `minesweeper-baselines`.
pub use minesweeper_baselines as baselines;

/// Re-export of `minesweeper-workloads`.
pub use minesweeper_workloads as workloads;

/// The most common imports in one place: the engine front door
/// ([`engine::Engine`], [`engine::PreparedStatement`],
/// [`engine::ExecOptions`], [`engine::StatementResult`]), the plan/stream
/// API ([`core::plan()`],
/// [`core::Plan`], [`core::ExecStream`]), the [`core::Algorithm`] trait
/// with its baselines registry ([`baselines::registry::lookup`]), and the
/// storage/CDS types they rely on.
pub mod prelude {
    pub use crate::engine::{Engine, ExecOptions, PreparedStatement, StatementResult};
    pub use minesweeper_baselines::{algorithm_names, algorithms, lookup, lookup_configured};
    pub use minesweeper_cds::{Constraint, ConstraintTree, IntervalSet, Pattern, ProbeMode};
    pub use minesweeper_core::{
        canonical_certificate_size, choose_gao, execute, minesweeper_join, naive_join, plan,
        reindex_for_gao, set_intersection, triangle_join, Algorithm, ExecStream, Execution,
        ExplainPlan, JoinResult, Plan, PreparedExec, Query, Run, ShardStats,
    };
    pub use minesweeper_storage::{
        builder, ColumnType, Database, Dictionary, ExecStats, GapCursor, RelId, ShardBounds,
        ShardSpec, TrieRelation, Val, Value,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_sufficient_for_a_join() {
        let mut db = Database::new();
        let a = db.add(builder::unary("A", [1, 2, 3])).unwrap();
        let b = db.add(builder::unary("B", [2, 3, 4])).unwrap();
        let q = Query::new(1).atom(a, &[0]).atom(b, &[0]);
        let res = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap();
        assert_eq!(res.tuples, vec![vec![2], vec![3]]);
    }

    #[test]
    fn prelude_is_sufficient_for_plan_stream_and_registry() {
        let mut db = Database::new();
        let a = db.add(builder::unary("A", [1, 2, 3])).unwrap();
        let b = db.add(builder::unary("B", [2, 3, 4])).unwrap();
        let q = Query::new(1).atom(a, &[0]).atom(b, &[0]);
        let db = std::sync::Arc::new(db);
        let p: Plan = plan(&db, &q).unwrap();
        let bound: PreparedExec = p.prepare_exec(&db).unwrap();
        let first: Vec<_> = bound.open(&db, &Run::default()).take(1).collect();
        assert_eq!(first, vec![vec![2]]);
        let exec: Execution = p.execute(&db).unwrap();
        assert_eq!(exec.result.tuples, vec![vec![2], vec![3]]);
        for algo in algorithms() {
            assert!(algo.supports(&q));
            assert_eq!(algo.run(&db, &q).unwrap().tuples, exec.result.tuples);
        }
        assert!(lookup("minesweeper").is_some());
        assert_eq!(algorithm_names().first(), Some(&"minesweeper"));
    }
}
