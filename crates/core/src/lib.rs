//! The Minesweeper join algorithm (Ngo, Nguyen, Ré, Rudra; PODS 2014).
//!
//! Minesweeper evaluates a natural join over relations stored in ordered
//! indexes consistent with a *global attribute order* (GAO). It repeatedly
//! asks its constraint data structure for an **active tuple** (a point of
//! the output space not yet excluded), probes every relation around that
//! tuple with `FindGap`, and either reports the tuple as output or inserts
//! the discovered gaps as constraints. Its running time is bounded by the
//! size of the smallest *certificate* for the instance (Theorem 3.2):
//! `Õ(|C| + Z)` for β-acyclic queries under a nested elimination order
//! (Theorem 2.7), `Õ(|C|^{w+1} + Z)` for elimination width `w`
//! (Theorem 5.1), and `Õ(|C|^{3/2} + Z)` for the triangle query with the
//! dyadic CDS (Theorem 5.4).
//!
//! Entry points:
//! * [`Query`] — atoms over a GAO, with hypergraph extraction;
//! * [`plan()`] — validation + GAO/probe-mode/re-index selection, producing
//!   a reusable, inspectable [`Plan`]; [`Plan::prepare_exec`] binds it to
//!   a database (the one re-index build) as a cacheable [`PreparedExec`];
//! * [`PreparedExec::open`] — **the** way to run a plan: a [`Run`] names
//!   the restrictions (worker count, limit, literal seeds) and the
//!   returned [`ExecStream`] yields tuples as they are certified, in
//!   global attribute order — pull `k` and the probe loop stops early,
//!   [`ExecStream::stats`] reads counters mid-flight, and
//!   [`ExecStream::finish`] returns the final (per-shard) accounting.
//!   Asked for workers, the same stream is fed by equi-depth shards of the
//!   first GAO attribute's domain (nested second-attribute splits for
//!   heavy duplicate runs), claimed in ascending order by the workers and
//!   concatenated back into the identical sequence;
//! * [`PreparedExec::execute`] — drain that stream, sorted in the original
//!   attribute numbering; [`Plan::execute`] and [`execute()`] are the
//!   bind-and-drain shorthands;
//! * [`Algorithm`] — the unified evaluator trait implemented by
//!   [`Minesweeper`], [`Naive`], and every baseline (registry in
//!   `minesweeper_baselines::registry`);
//! * [`minesweeper_join`] — Algorithm 2 over the generic
//!   [`minesweeper_cds::ConstraintTree`]; on the bow-tie
//!   `R(X) ⋈ S(X,Y) ⋈ T(Y)` it is Appendix I's Algorithm 9;
//! * [`triangle_join`] — Theorem 5.4: the same probe loop over the dyadic
//!   [`minesweeper_cds::TriangleCds`], for `R(A,B) ⋈ S(B,C) ⋈ T(A,C)`;
//! * [`set_intersection()`] — the Appendix H specialization (Algorithm 8);
//! * [`choose_gao`] / [`reindex_for_gao`] — GAO selection (nested
//!   elimination order when β-acyclic, minimum elimination width
//!   otherwise) and physical re-indexing;
//! * [`naive_join`] — nested-loop ground truth for testing;
//! * [`canonical_certificate_size`] — Proposition 2.6's upper bound on an
//!   instance's certificate size (Section 2.2).

#![warn(missing_docs)]

pub mod algorithm;
pub mod certificate;
pub mod execute;
pub mod explain;
pub mod gao;
pub mod minesweeper;
pub mod naive;
pub mod plan;
pub mod query;
pub mod set_intersection;
pub mod sharded;
pub mod stream;
pub mod triangle;

pub use algorithm::{Algorithm, Minesweeper, MinesweeperPar, Naive};
pub use certificate::canonical_certificate_size;
pub use execute::{execute, ExecStream, Execution, Run};
pub use explain::{
    json_string, ExplainAtom, ExplainCache, ExplainPlan, ExplainShards, ExplainStorage,
};
pub use gao::{choose_gao, private_attributes_last, reindex_for_gao, GaoChoice};
pub use minesweeper::{minesweeper_join, JoinResult};
pub use naive::naive_join;
pub use plan::{plan, Plan, PreparedExec};
pub use query::{Atom, Query, QueryError};
pub use set_intersection::set_intersection;
pub use sharded::{shard_strategy, ShardReport, ShardStats, MAX_TASKS_PER_THREAD, OVERSPLIT};
pub use triangle::triangle_join;
