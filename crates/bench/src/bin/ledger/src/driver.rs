//! A benchmark-side driver of the paper's Algorithm 2, built only from the
//! layers' public calls, so the probe loop can be timed from outside the
//! program: three clock reads per probe point split it into
//! `getProbePoint` (cds), atom exploration (`FindGap` in storage plus
//! gap-constraint building in core) and `InsConstraint` (cds). It must
//! produce the rows and work counters of `PreparedStatement::execute`; the
//! traced pass aborts when it does not.

use std::time::Instant;

use minesweeper_join::cds::{Constraint, ConstraintTree, Pattern, PatternComp, ProbeStats};
use minesweeper_join::core::{choose_gao, reindex_for_gao, Atom, GaoChoice, Query};
use minesweeper_join::storage::{
    Database, ExecStats, GapCursor, NodeId, StorageRef, TrieStorage, Tuple, Val,
};

/// `plan()`'s exhaustive-treewidth search limit.
const EXACT_WIDTH_LIMIT: usize = 9;

/// One `FindGap` call, as logged for the storage-only replay.
pub type Probe = (usize, NodeId, Val);

/// What a run of the loop does besides joining.
pub enum Mode<'a> {
    /// Nothing: the loop as `execute` runs it.
    Plain,
    /// Three clock reads per probe point fill the `*_ns` buckets.
    Timed,
    /// Every `FindGap` call is appended to the log.
    Logged(&'a mut Vec<Probe>),
}

/// The planning half: the chosen attribute order and, when it is not the
/// identity, the re-indexed database and query the loop runs on.
pub struct Driver {
    pub gao: GaoChoice,
    reindexed: Option<(Database, Query)>,
    /// `inv[a]` = execution column of original attribute `a`.
    inv: Option<Vec<usize>>,
}

/// What one run of the loop produced and where its time went.
pub struct Run {
    /// Output rows in the original attribute numbering, ascending.
    pub rows: Vec<Tuple>,
    pub stats: ExecStats,
    pub cds: ProbeStats,
    pub cds_nodes: usize,
    /// Calls the driver itself made (`getProbePoint` also inserts
    /// backtracking constraints, which `cds.constraints_inserted` includes).
    pub get_calls: u64,
    pub insert_calls: u64,
    pub get_ns: u64,
    pub explore_ns: u64,
    pub insert_ns: u64,
    pub loop_ns: u64,
    pub sort_ns: u64,
}

impl Driver {
    /// Chooses the GAO and re-indexes if it demands it.
    pub fn bind(db: &Database, query: &Query) -> Driver {
        let gao = choose_gao(query, EXACT_WIDTH_LIMIT);
        if gao.order.iter().copied().eq(0..query.n_attrs) {
            return Driver {
                gao,
                reindexed: None,
                inv: None,
            };
        }
        let mut inv = vec![0; query.n_attrs];
        for (position, &attr) in gao.order.iter().enumerate() {
            inv[attr] = position;
        }
        let reindexed = reindex_for_gao(db, query, &gao.order).expect("the query was validated");
        Driver {
            gao,
            reindexed: Some(reindexed),
            inv: Some(inv),
        }
    }

    pub fn is_reindexed(&self) -> bool {
        self.reindexed.is_some()
    }

    /// The database and query the loop probes.
    pub fn target<'a>(&'a self, db: &'a Database, query: &'a Query) -> (&'a Database, &'a Query) {
        match &self.reindexed {
            Some((db, query)) => (db, query),
            None => (db, query),
        }
    }

    /// Algorithm 2, stopping after `limit` outputs.
    pub fn run(&self, db: &Database, query: &Query, limit: Option<usize>, mode: Mode) -> Run {
        let timed = matches!(mode, Mode::Timed);
        let mut log = match mode {
            Mode::Logged(log) => Some(log),
            Mode::Plain | Mode::Timed => None,
        };
        let (db, query) = self.target(db, query);
        let n = query.n_attrs;
        let mut cds = ConstraintTree::new(n, self.gao.mode);
        let mut cursors: Vec<GapCursor> = query
            .atoms
            .iter()
            .map(|a| GapCursor::new(db.relation(a.rel).arity()))
            .collect();
        let (mut stats, mut pst) = (ExecStats::new(), ProbeStats::default());
        let mut gaps: Vec<Constraint> = Vec::new();
        let mut rows: Vec<Tuple> = Vec::new();
        let (mut get_ns, mut explore_ns, mut insert_ns) = (0u64, 0u64, 0u64);
        let (mut get_calls, mut insert_calls) = (0u64, 0u64);
        let begin = Instant::now();
        // Time since the previous lap, or 0 in the untimed modes (their
        // buckets stay empty; only `loop_ns` is read).
        let mut last = begin;
        let mut lap = || {
            if !timed {
                return 0;
            }
            let now = Instant::now();
            let ns = (now - last).as_nanos() as u64;
            last = now;
            ns
        };
        while limit.is_none_or(|k| rows.len() < k) {
            let probe = cds.get_probe_point(&mut pst);
            get_ns += lap();
            get_calls += 1;
            let Some(t) = probe else { break };
            gaps.clear();
            let mut is_output = true;
            for (i, (atom, cursor)) in query.atoms.iter().zip(&mut cursors).enumerate() {
                let mut explorer = Explorer {
                    atom,
                    t: &t,
                    cursor,
                    gaps: &mut gaps,
                    stats: &mut stats,
                    log: log.as_deref_mut().map(|l| (i, l)),
                    matched: true,
                };
                match db.probe_target(atom.rel) {
                    StorageRef::Sorted(rel) => explorer.explore(rel, rel.root(), true, &mut vec![]),
                    StorageRef::Hybrid(rel) => explorer.explore(rel, rel.root(), true, &mut vec![]),
                }
                is_output &= explorer.matched;
            }
            explore_ns += lap();
            if is_output {
                cds.insert_constraint(&Constraint::point_exclusion(&t), &mut pst);
                insert_calls += 1;
                rows.push(match &self.inv {
                    None => t,
                    Some(inv) => inv.iter().map(|&c| t[c]).collect(),
                });
            } else {
                for c in &gaps {
                    cds.insert_constraint(c, &mut pst);
                }
                insert_calls += gaps.len() as u64;
            }
            insert_ns += lap();
        }
        let loop_ns = begin.elapsed().as_nanos() as u64;
        let sorting = Instant::now();
        // `execute` sorts re-indexed and `limit`-cut results; an identity
        // GAO's full output already ascends.
        if self.inv.is_some() || limit.is_some() {
            rows.sort_unstable();
        }
        Run {
            rows,
            stats,
            cds_nodes: cds.node_count(),
            cds: pst,
            get_calls,
            insert_calls,
            get_ns,
            explore_ns,
            insert_ns,
            loop_ns,
            sort_ns: sorting.elapsed().as_nanos() as u64,
        }
    }

    /// Replays a logged `FindGap` sequence against fresh cursors — the same
    /// storage work as the loop, with nothing else around it. Returns the
    /// nanoseconds taken.
    pub fn replay(&self, db: &Database, query: &Query, log: &[Probe]) -> u64 {
        let (db, query) = self.target(db, query);
        let targets: Vec<StorageRef> = query.atoms.iter().map(|a| db.probe_target(a.rel)).collect();
        let mut cursors: Vec<GapCursor> = query
            .atoms
            .iter()
            .map(|a| GapCursor::new(db.relation(a.rel).arity()))
            .collect();
        let mut stats = ExecStats::new();
        let begin = Instant::now();
        for &(atom, node, a) in log {
            let gap = match targets[atom] {
                StorageRef::Sorted(rel) => cursors[atom].find_gap(rel, node, a, &mut stats),
                StorageRef::Hybrid(rel) => cursors[atom].find_gap(rel, node, a, &mut stats),
            };
            std::hint::black_box(gap);
        }
        begin.elapsed().as_nanos() as u64
    }
}

/// Algorithm 2 lines 4–10 and 15–20 for one atom around probe `t`: collects
/// the gaps bracketing `t`'s projection and whether the all-exact descent
/// matched it.
struct Explorer<'a> {
    atom: &'a Atom,
    t: &'a [Val],
    cursor: &'a mut GapCursor,
    gaps: &'a mut Vec<Constraint>,
    stats: &'a mut ExecStats,
    log: Option<(usize, &'a mut Vec<Probe>)>,
    matched: bool,
}

impl Explorer<'_> {
    fn explore<S: TrieStorage>(
        &mut self,
        rel: &S,
        node: NodeId,
        exact: bool,
        prefix: &mut Vec<Val>,
    ) {
        let p = prefix.len();
        let a = self.t[self.atom.attrs[p]];
        if let Some((atom, log)) = &mut self.log {
            log.push((*atom, node, a));
        }
        let gap = self.cursor.find_gap(rel, node, a, self.stats);
        if !gap.exact() {
            // ⟨equalities at the atom's earlier positions, (lo, hi)⟩
            let mut comps = vec![PatternComp::Star; self.atom.attrs[p]];
            for (j, &v) in prefix.iter().enumerate() {
                comps[self.atom.attrs[j]] = PatternComp::Eq(v);
            }
            self.gaps
                .push(Constraint::new(Pattern(comps), gap.lo_val, gap.hi_val));
            self.matched &= !exact;
        }
        if p + 1 == self.atom.attrs.len() {
            return;
        }
        if gap.lo_coord >= 1 {
            prefix.push(gap.lo_val);
            self.explore(
                rel,
                rel.child(node, gap.lo_coord),
                exact && gap.exact(),
                prefix,
            );
            prefix.pop();
        } else {
            self.matched &= !exact;
        }
        if gap.hi_coord <= rel.child_count(node) && gap.hi_coord != gap.lo_coord {
            prefix.push(gap.hi_val);
            self.explore(rel, rel.child(node, gap.hi_coord), false, prefix);
            prefix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{chung_lu_graph, uniform_graph, Rng};
    use minesweeper_join::engine::{Engine, ExecOptions};
    use minesweeper_join::storage::Value;
    use minesweeper_join::text::parse_query;

    /// The driver against `PreparedStatement::execute`: rows and the three
    /// work counters must be identical.
    fn assert_matches_execute(tsv: &str, relations: &[&str], text: &str, limit: Option<usize>) {
        let mut engine = Engine::new();
        for name in relations {
            engine.load_tsv(name, tsv).unwrap();
        }
        let mut opts = ExecOptions::default().with_stats();
        opts.limit = limit;
        let result = engine.prepare(text).unwrap().execute(&opts).unwrap();
        let expected = result.stats.unwrap();

        let db = engine.db();
        let query = parse_query(text, &db).unwrap().query;
        let driver = Driver::bind(&db, &query);
        let mut log = Vec::new();
        let run = driver.run(&db, &query, limit, Mode::Logged(&mut log));
        let plain = driver.run(&db, &query, limit, Mode::Plain);
        assert_eq!((plain.rows.len(), plain.get_ns), (run.rows.len(), 0));
        assert!(driver.run(&db, &query, limit, Mode::Timed).get_ns > 0);
        let rows: Vec<Vec<Value>> = run
            .rows
            .iter()
            .map(|t| t.iter().map(|&v| Value::Int(v)).collect())
            .collect();
        assert!(!rows.is_empty(), "the instance must have output");
        assert_eq!(rows, result.rows);
        assert_eq!(run.stats.find_gap_calls, expected.find_gap_calls);
        assert_eq!(run.cds.probe_points, expected.probe_points);
        assert_eq!(run.cds.constraints_inserted, expected.constraints_inserted);
        assert_eq!(log.len() as u64, expected.find_gap_calls);
        assert!(driver.replay(&db, &query, &log) > 0);
    }

    fn tsv(edges: &[(u32, u32)]) -> String {
        edges.iter().map(|(a, b)| format!("{a} {b}\n")).collect()
    }

    #[test]
    fn beta_acyclic_instance_matches_execute() {
        let edges = uniform_graph(&mut Rng::new(11), 120, 400);
        assert_matches_execute(&tsv(&edges), &["E"], "E(x,y), E(y,z)", None);
        assert_matches_execute(&tsv(&edges), &["E"], "E(x,y), E(y,z)", Some(16));
    }

    #[test]
    fn triangle_instance_matches_execute() {
        let edges = chung_lu_graph(&mut Rng::new(5), 80, 400, 2.3);
        assert_matches_execute(
            &tsv(&edges),
            &["R", "S", "T"],
            "R(a,b), S(b,c), T(a,c)",
            None,
        );
    }
}
