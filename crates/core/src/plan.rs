//! Query planning, split from execution.
//!
//! [`plan`] validates a query and makes every decision that does **not**
//! require touching tuples: the global attribute order (a nested
//! elimination order when the query is β-acyclic — Theorem 2.7 — otherwise
//! a minimum elimination width order — Theorem 5.1), the probe mode that
//! order supports, and the column permutation needed to re-index the stored
//! relations when the chosen GAO differs from the identity. The resulting
//! [`Plan`] is cheap to build and inspectable ([`Plan::explain`] /
//! [`Plan::explain_plan`]). [`Plan::prepare_exec`] binds it to a database
//! — the (at most one) re-index build happens there — and the returned
//! [`PreparedExec`] owns that re-indexed copy, so it can sit in a cache
//! next to a catalog and be run any number of times through the one
//! execution path, [`PreparedExec::open`] (see [`mod@crate::execute`]).
//! [`Plan::execute`] is the bind-and-drain shorthand.
//!
//! ```
//! use std::sync::Arc;
//! use minesweeper_core::{plan, Query, Run};
//! use minesweeper_storage::{builder, Database};
//!
//! let mut db = Database::new();
//! let r = db.add(builder::binary("R", [(1, 10), (2, 20)])).unwrap();
//! let s = db.add(builder::binary("S", [(10, 5), (20, 9)])).unwrap();
//! let q = Query::new(3).atom(r, &[0, 1]).atom(s, &[1, 2]);
//!
//! // Plan once: the planner picks a nested elimination order for this
//! // β-acyclic path query (re-indexing if it differs from the identity) …
//! let p = plan(&db, &q).unwrap();
//! assert!(p.explain().contains("chain"));
//! // … bind once, then stream with early termination …
//! let db = Arc::new(db);
//! let exec = p.prepare_exec(&db).unwrap();
//! let first: Vec<_> = exec.open(&db, &Run::default()).take(1).collect();
//! assert_eq!(first, vec![vec![1, 10, 5]]);
//! // … or materialize everything.
//! let all = exec.execute(&db, &Run::default());
//! assert_eq!(all.result.tuples, vec![vec![1, 10, 5], vec![2, 20, 9]]);
//! ```

use std::sync::Arc;

use minesweeper_cds::ProbeMode;
use minesweeper_storage::{Database, Val};

use crate::execute::Execution;
use crate::explain::{ExplainAtom, ExplainPlan};
use crate::gao::{choose_gao, reindex_for_gao, GaoChoice};
use crate::query::{Query, QueryError};
use crate::stream::{CdsChoice, ProbeCtx};

/// Exhaustive-treewidth search limit handed to [`choose_gao`]; larger
/// queries fall back to the min-fill heuristic.
const EXACT_WIDTH_LIMIT: usize = 9;

/// A validated, executable query plan (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The query in the caller's attribute numbering.
    query: Query,
    /// The chosen GAO, probe mode, and elimination width.
    gao: GaoChoice,
    /// `inv[a]` = GAO position of original attribute `a`; `None` when the
    /// chosen order is the identity and the stored indexes can be probed
    /// directly.
    inv: Option<Vec<usize>>,
}

/// Plans `query` against `db`: validation plus GAO / probe-mode / re-index
/// selection. No tuple is touched — the returned [`Plan`] has done no
/// execution work yet.
pub fn plan(db: &Database, query: &Query) -> Result<Plan, QueryError> {
    query.validate(db)?;
    let gao = choose_gao(query, EXACT_WIDTH_LIMIT);
    let identity: Vec<usize> = (0..query.n_attrs).collect();
    let inv = if gao.order == identity {
        None
    } else {
        let mut inv = vec![0usize; query.n_attrs];
        for (i, &a) in gao.order.iter().enumerate() {
            inv[a] = i;
        }
        Some(inv)
    };
    Ok(Plan {
        query: query.clone(),
        gao,
        inv,
    })
}

impl Plan {
    /// The planned query (original attribute numbering).
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The chosen GAO, probe mode, and elimination width.
    pub fn gao(&self) -> &GaoChoice {
        &self.gao
    }

    /// True when execution must re-index the stored relations because the
    /// chosen GAO is not the identity.
    pub fn is_reindexed(&self) -> bool {
        self.inv.is_some()
    }

    /// The paper's runtime bound for this plan's mode and width.
    pub fn runtime_bound(&self) -> String {
        match self.gao.mode {
            ProbeMode::Chain => "Õ(|C| + Z)  [Theorem 2.7]".to_string(),
            ProbeMode::General => {
                format!("Õ(|C|^{} + Z)  [Theorem 5.1]", self.gao.width + 1)
            }
        }
    }

    /// Binds the plan to a database: validation plus the (at most one)
    /// re-index build happen here, so every subsequent
    /// [`PreparedExec::open`] / [`PreparedExec::execute`] pays only probe
    /// work. The returned [`PreparedExec`] carries the re-indexed database
    /// (when the GAO demanded one) inside itself and borrows nothing, so
    /// it can be stored — e.g. in an engine's statement cache — and run
    /// against the database again at each call.
    ///
    /// `db` is re-validated so a plan cannot silently run against a
    /// database with different arities than the one it was built for.
    pub fn prepare_exec(&self, db: &Database) -> Result<PreparedExec, QueryError> {
        self.query.validate(db)?;
        Ok(match &self.inv {
            None => PreparedExec {
                gao: self.gao.clone(),
                exec_query: self.query.clone(),
                inv: None,
                reindexed: None,
            },
            Some(inv) => {
                let (db2, q2) = reindex_for_gao(db, &self.query, &self.gao.order)?;
                PreparedExec {
                    gao: self.gao.clone(),
                    exec_query: q2,
                    inv: Some(inv.clone()),
                    reindexed: Some(Arc::new(db2)),
                }
            }
        })
    }

    /// Binds and runs the plan to completion on the calling thread —
    /// shorthand for [`Plan::prepare_exec`] + [`PreparedExec::execute`]
    /// with the default [`crate::Run`], for callers holding a plain
    /// `&Database`.
    ///
    /// The result's tuples are **sorted lexicographically in the original
    /// attribute numbering** regardless of the GAO the plan chose (the
    /// identity-GAO probe order already is that order; re-indexed runs are
    /// sorted after translation).
    pub fn execute(&self, db: &Database) -> Result<Execution, QueryError> {
        Ok(self.prepare_exec(db)?.execute_in_thread(db))
    }

    /// The structured form of every planning decision — serialize with
    /// [`ExplainPlan::to_json`], render with [`ExplainPlan::render`].
    /// Relation/attribute names and execution-level context (shards,
    /// cache provenance) are filled in by the layers that know them.
    pub fn explain_plan(&self) -> ExplainPlan {
        ExplainPlan {
            algorithm: "minesweeper".to_string(),
            n_attrs: self.query.n_attrs,
            attr_names: None,
            atoms: self
                .query
                .atoms
                .iter()
                .map(|a| ExplainAtom {
                    relation: None,
                    attrs: a.attrs.clone(),
                })
                .collect(),
            gao_order: self.gao.order.clone(),
            probe_mode: self.gao.mode,
            width: self.gao.width,
            reindexed: self.is_reindexed(),
            runtime_bound: self.runtime_bound(),
            shards: None,
            cache: None,
            storage: None,
        }
    }

    /// A human-readable description of the planning decisions, rendered
    /// from [`Plan::explain_plan`] (attribute names are applied by the
    /// text layer).
    pub fn explain(&self) -> String {
        self.explain_plan().render()
    }
}

/// A plan bound to a database with the re-index work already done and
/// **owned** (see [`Plan::prepare_exec`]): no borrow of the planning-time
/// database remains, so the value can live in caches. It is run through
/// [`PreparedExec::open`] (or its drain, [`PreparedExec::execute`]), which
/// pay probe work only.
#[derive(Debug, Clone)]
pub struct PreparedExec {
    gao: GaoChoice,
    /// Execution-side query (re-indexed when the GAO demanded it).
    exec_query: Query,
    /// `inv[a]` = execution column of original attribute `a`.
    inv: Option<Vec<usize>>,
    /// The re-indexed database, when the GAO is not the identity. `None`
    /// means the caller's own database is probed directly. Shared
    /// (`Arc`) so the background workers of a parallel stream can co-own
    /// it.
    reindexed: Option<Arc<Database>>,
}

impl PreparedExec {
    /// The GAO this prepared execution runs under.
    pub fn gao(&self) -> &GaoChoice {
        &self.gao
    }

    /// True when this execution probes privately re-indexed relations.
    pub fn is_reindexed(&self) -> bool {
        self.reindexed.is_some()
    }

    /// What a probe loop of this execution reads: the cached re-indexed
    /// database when one was built (otherwise the caller's `db`), the
    /// execution-side query, the generic CDS in the GAO's probe mode, and
    /// the original-numbering translation.
    pub(crate) fn ctx<'a>(&'a self, db: &'a Database) -> ProbeCtx<'a> {
        ProbeCtx {
            db: self.reindexed.as_deref().unwrap_or(db),
            query: &self.exec_query,
            cds: CdsChoice::Tree(self.gao.mode),
            inv: self.inv.as_deref(),
        }
    }

    /// Translates equality seeds given in the *original* attribute
    /// numbering into the execution numbering the probe loop uses.
    pub(crate) fn exec_seeds(&self, eq_seeds: &[(usize, Val)]) -> Vec<(usize, Val)> {
        eq_seeds
            .iter()
            .map(|&(a, v)| {
                (
                    match &self.inv {
                        Some(inv) => inv[a],
                        None => a,
                    },
                    v,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::Run;
    use crate::naive::naive_join;
    use minesweeper_storage::{builder, RelationBuilder, Tuple};

    fn b7_db_query() -> (Arc<Database>, Query) {
        // Example B.7's query R(A,B,C) ⋈ S(A,C) ⋈ T(B,C): the identity is
        // not a NEO, so the plan must re-index.
        let mut db = Database::new();
        let r = db
            .add(
                RelationBuilder::new("R", 3)
                    .tuple(&[1, 2, 3])
                    .tuple(&[4, 5, 6])
                    .tuple(&[1, 5, 3])
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let s = db.add(builder::binary("S", [(1, 3), (4, 6)])).unwrap();
        let t = db.add(builder::binary("T", [(2, 3), (5, 3)])).unwrap();
        let q = Query::new(3)
            .atom(r, &[0, 1, 2])
            .atom(s, &[0, 2])
            .atom(t, &[1, 2]);
        (Arc::new(db), q)
    }

    #[test]
    fn plan_is_constructible_without_executing() {
        let (db, q) = b7_db_query();
        let p = plan(&db, &q).unwrap();
        assert!(p.is_reindexed());
        assert_eq!(p.gao().mode, ProbeMode::Chain);
        // Planning happened; nothing has been executed and the plan can be
        // inspected and reused.
        assert!(p.explain().contains("gao order"));
        assert_eq!(p.query().atoms.len(), 3);
    }

    #[test]
    fn plan_executes_many_times() {
        let (db, q) = b7_db_query();
        let p = plan(&db, &q).unwrap();
        let a = p.execute(&db).unwrap();
        let b = p.execute(&db).unwrap();
        assert_eq!(a.result.tuples, b.result.tuples);
        assert_eq!(a.result.tuples, naive_join(&db, &q).unwrap());
    }

    #[test]
    fn prepared_exec_reindexes_once_and_streams_many_times() {
        let (db, q) = b7_db_query();
        let p = plan(&db, &q).unwrap();
        assert!(p.is_reindexed());
        // One prepare = one re-index; every open/execute after that is
        // probe work only.
        let prepared = p.prepare_exec(&db).unwrap();
        let run = Run::default();
        let take_one: Vec<Tuple> = prepared.open(&db, &run).take(1).collect();
        assert_eq!(take_one.len(), 1);
        let s1: Vec<Tuple> = prepared.open(&db, &run).collect();
        let s2: Vec<Tuple> = prepared.open(&db, &run).collect();
        assert_eq!(s1, s2);
        let exec = prepared.execute(&db, &run);
        assert_eq!(exec.result.tuples, naive_join(&db, &q).unwrap());
        assert_eq!(prepared.gao(), p.gao());
    }

    #[test]
    fn prepared_exec_is_owned_and_replayable() {
        let (db, q) = b7_db_query();
        let p = plan(&db, &q).unwrap();
        let exec = p.prepare_exec(&db).unwrap();
        assert!(exec.is_reindexed(), "B.7 forces a re-index");
        assert_eq!(exec.gao(), p.gao());
        // The exec can outlive the plan and be bound repeatedly.
        drop(p);
        let a = exec.execute(&db, &Run::default());
        let b = exec.execute(&db, &Run::default());
        assert_eq!(a.result.tuples, b.result.tuples);
        assert_eq!(a.result.tuples, naive_join(&db, &q).unwrap());
        let streamed: Vec<Tuple> = exec.open(&db, &Run::default()).take(1).collect();
        assert_eq!(streamed.len(), 1);
    }

    #[test]
    fn stream_translates_to_original_numbering() {
        let (db, q) = b7_db_query();
        let p = plan(&db, &q).unwrap();
        let exec = p.prepare_exec(&db).unwrap();
        let mut got: Vec<Tuple> = exec.open(&db, &Run::default()).collect();
        got.sort();
        assert_eq!(got, naive_join(&db, &q).unwrap());
    }

    #[test]
    fn identity_plan_streams_in_lex_order() {
        // A unary query has only one possible GAO, so the plan cannot
        // re-index and the stream's certification order *is* lexicographic
        // in the original numbering.
        let mut db = Database::new();
        let r = db.add(builder::unary("R", [9, 1, 5, 3])).unwrap();
        let s = db.add(builder::unary("S", [3, 9, 2, 5])).unwrap();
        let q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
        let p = plan(&db, &q).unwrap();
        assert!(!p.is_reindexed());
        let db = Arc::new(db);
        let exec = p.prepare_exec(&db).unwrap();
        let got: Vec<Tuple> = exec.open(&db, &Run::default()).collect();
        assert_eq!(got, naive_join(&db, &q).unwrap(), "already lex-sorted");
    }

    #[test]
    fn bind_revalidates_against_foreign_database() {
        let mut db = Database::new();
        let r = db.add(builder::unary("R", [1, 2])).unwrap();
        let q = Query::new(1).atom(r, &[0]);
        let p = plan(&db, &q).unwrap();
        // A database where the planned RelId has a different arity.
        let mut other = Database::new();
        other.add(builder::binary("R2", [(1, 2)])).unwrap();
        assert!(p.prepare_exec(&other).is_err());
        assert!(p.execute(&other).is_err());
    }

    #[test]
    fn explain_mentions_mode_and_bound() {
        let mut db = Database::new();
        let e = db.add(builder::binary("E", [(1, 2)])).unwrap();
        let q = Query::new(3)
            .atom(e, &[0, 1])
            .atom(e, &[1, 2])
            .atom(e, &[0, 2]);
        let p = plan(&db, &q).unwrap();
        let text = p.explain();
        assert!(text.contains("general"), "{text}");
        assert!(text.contains("|C|^3"), "width-2 triangle bound: {text}");
        // The structured form agrees with the rendered string.
        let ep = p.explain_plan();
        assert_eq!(ep.width, 2);
        assert_eq!(ep.render(), text);
        assert!(ep.to_json().contains("\"probe_mode\":\"general\""));
    }
}
