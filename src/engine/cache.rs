//! The statement-cache seam: [`Engine::prepare`] and the per-shape
//! entries it shares between statements.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use minesweeper_core::{plan, Plan, PreparedExec, Query};
use minesweeper_storage::{ColumnType, Database, RelId, Val};

use super::catalog::lookup;
use super::{Engine, EngineError, PreparedStatement};
use crate::text::{bind_query, parse_query_ast};

/// One cached prepared-statement entry: everything repeated executions of
/// a query *shape* reuse — differently-parameterized literals share it,
/// since literal values live in per-statement seed constraints, not here.
/// Shared (`Arc`) between the cache and the statements hitting it — also
/// across threads, which is what lets one engine serve many connections.
#[derive(Debug)]
pub(super) struct CachedStatement {
    /// Stable plan identity: statements reporting the same id share one
    /// plan and one set of re-indexed relations.
    pub(super) id: u64,
    /// The query (original numbering) over the engine's database.
    pub(super) query: Query,
    /// The planning decisions.
    pub(super) plan: Plan,
    /// The bound execution: owns the GAO-re-indexed relations when the
    /// plan demanded them — the expensive half of the cache. Built
    /// lazily on the first Minesweeper-path execution, so statements
    /// dispatched to a baseline never pay the physical re-index.
    /// `OnceLock`, so concurrent first executions race safely and every
    /// later one reads the same bound state.
    pub(super) exec: OnceLock<PreparedExec>,
    /// Per-attribute value types (decode map).
    pub(super) attr_types: Vec<ColumnType>,
    /// `(relation, version)` for every relation the query touches, at plan
    /// time. A later prepare whose database disagrees treats the entry as
    /// stale — the write path's cache-invalidation key (see
    /// `docs/STORAGE.md`). Writes to relations *not* listed here leave the
    /// entry warm.
    pub(super) versions: Vec<(RelId, u64)>,
}

impl CachedStatement {
    /// The bound execution, built (at most once, then cached) on first
    /// use. `plan()` already validated the query against this immutable
    /// catalog, so the bind cannot newly fail.
    pub(super) fn exec(&self, db: &Database) -> &PreparedExec {
        self.exec.get_or_init(|| {
            self.plan
                .prepare_exec(db)
                .expect("query validated when the plan was built")
        })
    }
}

impl Engine {
    /// Parses and prepares a query. Planning, GAO selection, and any
    /// physical re-indexing happen **at most once per query shape per
    /// data version**: a repeat prepare (different variable names,
    /// different literal values) returns the cached plan and re-indexed
    /// relations, and every [`PreparedStatement::execute`] after that
    /// goes straight to the probe loop. A write to a relation the shape
    /// touches bumps that relation's version and the next prepare
    /// rebuilds the entry; writes elsewhere leave it warm. Literals never
    /// touch the catalog or dictionary — they become pre-seeded CDS
    /// constraints on this statement.
    ///
    /// The statement is bound to the engine's **current snapshot**: later
    /// writes never change what it returns (snapshot isolation);
    /// re-prepare to observe them.
    pub fn prepare(&self, text: &str) -> Result<PreparedStatement, EngineError> {
        self.parses.fetch_add(1, Ordering::Relaxed);
        let db = self.db();
        let dict = self.dict();
        let bound = bind_query(parse_query_ast(text)?, &db)?;
        let (entry, hit) = self.entry_for(&db, &bound.query, &bound.attr_names)?;
        // Literals: type-check against the column the position landed in,
        // then encode as equality seeds. A string the dictionary snapshot
        // has never seen cannot occur in this statement's database
        // snapshot (interning happens before a write lands), so the
        // statement is vacuously empty.
        let mut seeds: Vec<(usize, Val)> = Vec::with_capacity(bound.literals.len());
        let mut vacuous = false;
        for (attr, literal) in bound.literals {
            let (expected, found) = (entry.attr_types[attr], literal.column_type());
            if found != expected {
                return Err(EngineError::TypeMismatch {
                    attr: bound.attr_names[attr].clone(),
                    expected,
                    found,
                });
            }
            match lookup(&literal, &dict) {
                Some(v) => seeds.push((attr, v)),
                None => vacuous = true,
            }
        }
        Ok(PreparedStatement {
            db,
            dict,
            entry,
            attr_names: bound.attr_names,
            visible: bound.visible,
            seeds,
            vacuous,
            hit,
        })
    }

    /// Prepares an already-built [`Query`] over this engine's database —
    /// the programmatic twin of [`Engine::prepare`], sharing the same
    /// plan/re-index cache (bench harnesses and embedded callers use
    /// this). Attributes are named by position (`a0`, `a1`, …).
    pub fn prepare_query(&self, query: &Query) -> Result<PreparedStatement, EngineError> {
        let db = self.db();
        let attr_names: Vec<String> = (0..query.n_attrs).map(|a| format!("a{a}")).collect();
        let (entry, hit) = self.entry_for(&db, query, &attr_names)?;
        Ok(PreparedStatement {
            db,
            dict: self.dict(),
            entry,
            visible: vec![true; attr_names.len()],
            attr_names,
            seeds: Vec::new(),
            vacuous: false,
            hit,
        })
    }

    /// How many query texts [`Engine::prepare`] has parsed. Executing an
    /// already-prepared statement never parses, so a service holding
    /// statements across requests (the `PREPARE`/`EXEC` verbs) keeps
    /// this flat — the deterministic evidence that the text front end
    /// was skipped.
    pub fn query_parses(&self) -> u64 {
        self.parses.load(Ordering::Relaxed)
    }

    /// Cache lookup / population for a structural query against one
    /// database snapshot. An entry hits only when the versions of every
    /// relation the shape touches still match `db` — a write to one of
    /// them bumps its version and the stale entry is rebuilt (and
    /// replaced) here; writes to other relations leave it warm.
    fn entry_for(
        &self,
        db: &Arc<Database>,
        query: &Query,
        attr_names: &[String],
    ) -> Result<(Arc<CachedStatement>, bool), EngineError> {
        // Guard stale handles before any indexing: a Query built against
        // a different database must error, not panic.
        if let Some(atom) = query.atoms.iter().find(|a| a.rel.0 >= db.len()) {
            return Err(EngineError::Storage(format!(
                "relation id {} is not in this engine's catalog",
                atom.rel.0
            )));
        }
        let mut rels: Vec<RelId> = query.atoms.iter().map(|a| a.rel).collect();
        rels.sort_unstable();
        rels.dedup();
        let versions: Vec<(RelId, u64)> = rels.into_iter().map(|r| (r, db.version(r))).collect();
        let key = shape_key(query);
        if let Some(entry) = self.cache.read().unwrap().get(&key) {
            if entry.versions == versions {
                return Ok((Arc::clone(entry), true));
            }
        }
        // Plan outside any lock: planning is pure and read-only, so two
        // threads racing on a cold shape at worst both plan — the loser's
        // entry is discarded below, keeping plan identity one-per-shape
        // (per data version).
        let attr_types = self.unify_attr_types(query, attr_names)?;
        let plan = plan(db, query)?;
        let mut cache = self.cache.write().unwrap();
        if let Some(entry) = cache.get(&key) {
            if entry.versions == versions {
                return Ok((Arc::clone(entry), true));
            }
        }
        let id = self.next_plan_id.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(CachedStatement {
            id,
            query: query.clone(),
            plan,
            exec: OnceLock::new(),
            attr_types,
            versions,
        });
        cache.insert(key, Arc::clone(&entry));
        Ok((entry, false))
    }

    /// Derives each attribute's value type from the columns binding it,
    /// rejecting conflicting bindings.
    fn unify_attr_types(
        &self,
        query: &Query,
        attr_names: &[String],
    ) -> Result<Vec<ColumnType>, EngineError> {
        let mut types: Vec<Option<ColumnType>> = vec![None; query.n_attrs];
        for atom in &query.atoms {
            let schema = self.schema(atom.rel);
            // A column or attribute out of range is an arity mismatch;
            // plan() reports it properly.
            for (&ty, &a) in schema.iter().zip(&atom.attrs) {
                match types.get_mut(a) {
                    Some(slot @ None) => *slot = Some(ty),
                    Some(&mut Some(prev)) if prev != ty => {
                        return Err(EngineError::TypeMismatch {
                            attr: attr_names
                                .get(a)
                                .cloned()
                                .unwrap_or_else(|| format!("a{a}")),
                            expected: prev,
                            found: ty,
                        });
                    }
                    _ => {}
                }
            }
        }
        Ok(types
            .into_iter()
            .map(|t| t.unwrap_or(ColumnType::Int))
            .collect())
    }
}

/// A structural cache key: two query texts with the same atoms over the
/// same relations — whatever the variables are called, whatever constants
/// the literals carry — share one entry.
fn shape_key(query: &Query) -> String {
    use std::fmt::Write;
    let mut key = format!("{}", query.n_attrs);
    for atom in &query.atoms {
        let _ = write!(key, "|{}:{:?}", atom.rel.0, atom.attrs);
    }
    key
}
