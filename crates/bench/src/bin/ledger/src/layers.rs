//! The traced pass (`--trace 1`): the workload's generated inputs replayed
//! in-process on one thread, with spans recorded *around* calls into each
//! layer's public functions, plus one served connection for the wire-side
//! numbers. It produces every per-layer metric of `metrics::PER_LAYER`,
//! dumps the spans to `trace_<workload>.json`, and prints the ledger: where
//! one served request's time goes.
//!
//! Request 0 is the cold one (first prepare, re-index); the medians are over
//! the requests after it. On `write_mix` every read follows 200 writes, so
//! every read re-plans and re-indexes, served and in-process alike.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minesweeper_join::baselines::lookup;
use minesweeper_join::core::{plan, Query};
use minesweeper_join::durability::{
    Batch, CellOp, DurabilityOptions, DurableStore, FsyncPolicy, Opened, RelationDump, WalRecord,
};
use minesweeper_join::engine::{DurableBoot, Engine, ExecOptions, RowOp, StatementResult};
use minesweeper_join::render::write_body;
use minesweeper_join::server::protocol::parse_request;
use minesweeper_join::server::Request;
use minesweeper_join::storage::{
    BitLeafRelation, Database, ExecStats, GapCursor, LeafPolicy, MergeView, TrieRelation,
    TrieStorage, Tuple, Value, WriteOp as StorageWrite,
};
use minesweeper_join::text::{parse_query, parse_query_ast};

use crate::deploy::{
    err, with_scratch_dir, write_loop, Config, Deployment, Inputs, Tally, CHECKPOINT_EVERY,
    FSYNC_EVERY,
};
use crate::driver::{Driver, Mode, Run};
use crate::gen::{Edge, Rng};
use crate::metrics::PER_LAYER;
use crate::model::{self, Expected, Model, WriteOp};
use crate::report;
use crate::stats::{self, median, percentile};
use crate::trace::{self_time_by_name, Tracer};
use crate::wire::Conn;
use crate::workload::Workload;

/// Writes applied before each read of `write_mix`.
const WRITES_PER_READ: usize = 200;
/// Writes of the paced phase on the served connection.
const PACED_WRITES: usize = 300;
const PINGS: usize = 2_000;
/// Repetitions of the cheap micro-measurements.
const MICRO_REPS: usize = 200;
/// Repetitions of the expensive ones (builds, compactions, checkpoints).
const HEAVY_REPS: usize = 3;
/// Unmeasured requests that warm the served connection up.
const SERVED_WARM: Duration = Duration::from_millis(1_500);
/// Probes of the `MergeView` sweep.
const MERGE_SWEEP: usize = 20_000;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every `PER_LAYER` metric, in table order.
    pub values: Vec<report::Value>,
}

/// Named series of per-request (or per-repetition) samples, in ns.
#[derive(Default)]
struct Series(BTreeMap<&'static str, Vec<f64>>);

impl Series {
    fn push(&mut self, name: &'static str, ns: u64) {
        self.0.entry(name).or_default().push(ns as f64);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median in ns; 0 for a series nothing was pushed to (a step this
    /// workload does not take, e.g. a re-index under an identity GAO).
    fn median(&self, name: &str) -> f64 {
        match self.get(name) {
            [] => 0.0,
            v => median(v),
        }
    }
}

/// What every part of the pass records into.
struct Pass {
    tracer: Tracer,
    series: Series,
    /// Finished per-layer metrics by name.
    sheet: BTreeMap<&'static str, f64>,
    tally: Tally,
}

/// The relation the writes go to, its edges as loaded, and the write
/// schedule every write-side measurement replays from that state.
struct Writes<'a> {
    relation: &'a str,
    loaded: &'a [Edge],
    ops: &'a [WriteOp],
}

/// One write as the engine takes it: a one-row batch, as `W INSERT` sends.
fn row_op(op: &WriteOp) -> RowOp {
    let row = vec![Value::Int(op.edge.0 as i64), Value::Int(op.edge.1 as i64)];
    if op.insert {
        RowOp::Insert(row)
    } else {
        RowOp::Delete(row)
    }
}

fn tuple_of(edge: Edge) -> Tuple {
    vec![edge.0 as i64, edge.1 as i64]
}

fn cells_of(edge: Edge) -> Vec<String> {
    vec![edge.0.to_string(), edge.1.to_string()]
}

fn tsv_of(edges: &[Edge]) -> String {
    edges.iter().map(|(a, b)| format!("{a} {b}\n")).collect()
}

/// The query text and options a request line executes: its own for `Q`,
/// the named `PREPARE` line's for `EXEC`.
fn query_of(w: &Workload, request: &str) -> Result<(String, ExecOptions), String> {
    let line = match request.strip_prefix("EXEC ") {
        Some(name) => w
            .prepare
            .iter()
            .find(|p| p.starts_with(&format!("PREPARE {} ", name.trim())))
            .ok_or(format!("{request:?} names no PREPARE line"))?,
        None => request,
    };
    match parse_request(line)? {
        Request::Query { opts, text, .. } | Request::Prepare { opts, text, .. } => Ok((text, opts)),
        other => Err(format!("{line:?} is not a query: {other:?}")),
    }
}

fn same_rows(result: &StatementResult, run: &Run) -> bool {
    result.rows.len() == run.rows.len()
        && result.rows.iter().zip(&run.rows).all(|(row, tuple)| {
            row.len() == tuple.len() && row.iter().zip(tuple).all(|(v, &x)| *v == Value::Int(x))
        })
}

fn same_counters(stats: &ExecStats, run: &Run) -> bool {
    stats.find_gap_calls == run.stats.find_gap_calls
        && stats.probe_points == run.cds.probe_points
        && stats.constraints_inserted == run.cds.constraints_inserted
}

/// The state of the in-process request loops.
struct Requests<'a> {
    w: &'a Workload,
    engine: &'a Engine,
    text: String,
    opts: ExecOptions,
    /// `opts` with statistics collected.
    exec_opts: ExecOptions,
    tracer: &'a mut Tracer,
    series: &'a mut Series,
    tally: &'a mut Tally,
    /// The driver bound to the snapshot the last cold request saw.
    bound: Option<(Arc<Database>, Query, Driver)>,
}

impl Requests<'_> {
    /// Request 0 and every read under writes re-plan and re-index.
    fn is_cold(&self, r: usize) -> bool {
        r == 0 || self.w.write_mix
    }

    /// In-memory writes through the engine, one row per batch as `W INSERT`
    /// sends them.
    fn apply(&mut self, relation: &str, ops: &[WriteOp]) {
        for op in ops {
            let row_op = row_op(op);
            let engine = self.engine;
            let (applied, ns) = self.tracer.span("engine.apply_batch", |_| {
                engine.apply_batch(relation, [row_op])
            });
            self.tally.check(applied.is_ok_and(|o| o.affected() == 1));
            self.series.push("apply_batch", ns);
        }
    }

    /// What the session does with one request line: parse it, prepare the
    /// statement, render the body (into a sink).
    fn pipeline(&mut self, r: usize) -> Result<(), String> {
        let (steady, cold) = (r > 0, self.is_cold(r));
        let (w, engine, text) = (self.w, self.engine, self.text.as_str());
        let (opts, exec_opts, series) = (&self.opts, &self.exec_opts, &mut *self.series);
        self.tracer.next_request();
        let (done, _) = self.tracer.span("request", |t| {
            let (parsed, ns) = t.span("server.parse_request", |_| parse_request(w.request));
            parsed?;
            if steady {
                series.push("parse_request", ns);
            }
            let (stmt, ns) = t.span("engine.prepare", |_| engine.prepare(text));
            let stmt = stmt.map_err(|e| err("prepare", e))?;
            series.push(
                if stmt.cache_hit() {
                    "prepare_hit"
                } else {
                    "prepare_cold"
                },
                ns,
            );
            if cold {
                // Binds the statement: the re-index happens here, not below.
                let (first, _) = t.span("engine.execute_first", |_| stmt.execute(exec_opts));
                first.map_err(|e| err("execute", e))?;
            }
            let (body, ns) = t.span("render.write_body", |_| {
                write_body(&mut io::sink(), &stmt, opts)
            });
            body.map_err(|e| err("write_body", e))?;
            if steady {
                series.push("write_body", ns);
            }
            Ok::<_, String>(())
        });
        done
    }

    /// The same request taken apart: `execute` alone, then the Algorithm-2
    /// driver — logged, plain and timed — and the storage-only replay. Returns
    /// the timed run and the statement's row count.
    fn decompose(&mut self, r: usize) -> Result<(Run, usize), String> {
        let (steady, cold) = (r > 0, self.is_cold(r));
        let stmt = self
            .engine
            .prepare(&self.text)
            .map_err(|e| err("prepare", e))?;
        let exec_opts = &self.exec_opts;
        let (result, execute_ns) = self
            .tracer
            .span("engine.execute", |_| stmt.execute(exec_opts));
        let result = result.map_err(|e| err("execute", e))?;
        if cold {
            let db = self.engine.db();
            let query = parse_query(&self.text, &db)
                .map_err(|e| err("parse_query", e))?
                .query;
            let (driver, ns) = self
                .tracer
                .span("core.reindex", |_| Driver::bind(&db, &query));
            if driver.is_reindexed() && (steady || !self.w.write_mix) {
                self.series.push("reindex", ns);
            }
            self.bound = Some((db, query, driver));
        }
        let (db, query, driver) = self.bound.as_ref().expect("request 0 is cold");
        let limit = self.opts.limit;
        let mut log = Vec::new();
        driver.run(db, query, limit, Mode::Logged(&mut log));
        // Untimed, the loop is what `execute` runs: the difference between
        // the two is what the engine adds around it (decode, allocation).
        let plain = driver.run(db, query, limit, Mode::Plain);
        let (run, _) = self.tracer.span("core.driver", |t| {
            let run = driver.run(db, query, limit, Mode::Timed);
            t.aggregate("cds.get_probe_point", run.get_ns, run.get_calls);
            t.aggregate("core.explore", run.explore_ns, run.cds.probe_points);
            t.aggregate("cds.insert_constraint", run.insert_ns, run.insert_calls);
            t.aggregate("core.sort", run.sort_ns, 1);
            run
        });
        let (find_gap_ns, _) = self
            .tracer
            .span("storage.find_gap", |_| driver.replay(db, query, &log));
        let stats = result.stats.clone().unwrap_or_default();
        if !self
            .tally
            .check(same_rows(&result, &run) && same_counters(&stats, &run))
        {
            return Err(format!(
                "the Algorithm-2 driver diverged from PreparedStatement::execute on request {r}: \
                 {} vs {} rows, find_gap {} vs {}, probe points {} vs {}, constraints {} vs {}",
                run.rows.len(),
                result.rows.len(),
                run.stats.find_gap_calls,
                stats.find_gap_calls,
                run.cds.probe_points,
                stats.probe_points,
                run.cds.constraints_inserted,
                stats.constraints_inserted
            ));
        }
        if steady {
            for (name, ns) in [
                ("execute", execute_ns),
                ("plain", plain.loop_ns + plain.sort_ns),
                ("timed", run.loop_ns + run.sort_ns),
                ("loop", run.loop_ns),
                ("get", run.get_ns),
                ("explore", run.explore_ns),
                ("insert", run.insert_ns),
                ("sort", run.sort_ns),
                ("find_gap", find_gap_ns),
            ] {
                self.series.push(name, ns);
            }
        }
        Ok((run, result.rows.len()))
    }
}

pub fn run(w: &Workload, cfg: &Config) -> Result<Outcome, String> {
    let name = format!("{}-trace", w.name);
    with_scratch_dir(
        cfg,
        &name,
        |o: &Outcome| o.failed > 0,
        |dir| {
            // On a thread of its own, as the server runs a session: the main
            // thread's allocator arena trims and re-faults its heap between
            // requests, which the session threads' arenas do not.
            std::thread::scope(|s| s.spawn(|| run_in(w, cfg, dir)).join().expect("traced pass"))
        },
    )
}

fn run_in(w: &Workload, cfg: &Config, dir: &Path) -> Result<Outcome, String> {
    let (dep, inputs) = Deployment::create(w, cfg, dir)?;
    let Inputs {
        edges,
        edge_set,
        pair_edges,
        write_rel,
        mut model,
        mut write_rng,
    } = inputs;
    let mut pass = Pass {
        tracer: Tracer::new(),
        series: Series::default(),
        sheet: BTreeMap::new(),
        tally: Tally::default(),
    };
    let write_edges = model.edges();
    let interleaved = if w.write_mix {
        w.traced_requests * WRITES_PER_READ
    } else {
        0
    };
    let ops = model.schedule(&mut write_rng, interleaved + PACED_WRITES);

    // text + storage: load the generated TSVs into a fresh engine.
    let graph_text = tsv_of(&edges);
    let mut engine = Engine::new();
    for name in w.relations {
        let (loaded, ns) = pass
            .tracer
            .span("text.load_tsv", |_| engine.load_tsv(name, &graph_text));
        loaded.map_err(|e| err("load_tsv", e))?;
        pass.series.push("load_tsv", ns);
    }
    if let Some((name, _)) = w.sample {
        engine
            .load_tsv(name, &tsv_of(&pair_edges))
            .map_err(|e| err("load sample", e))?;
    }
    if !w.write_mix {
        engine
            .load_tsv(write_rel, &tsv_of(&write_edges))
            .map_err(|e| err("load scratch", e))?;
    }
    let tuples: Vec<Tuple> = edges.iter().copied().map(tuple_of).collect();
    for _ in 0..HEAVY_REPS {
        let input = tuples.clone();
        let (built, ns) = pass.tracer.span("storage.build", |_| {
            TrieRelation::from_tuples("B", 2, input)
        });
        built.map_err(|e| err("from_tuples", e))?;
        pass.series.push("build", ns);
    }
    let initial_db: Database = (*engine.db()).clone();

    // The request loops. First the pipeline a served request runs through —
    // alone, as the server runs it — then the decomposition of the same
    // requests. Under writes every read sees new data, so there the two
    // alternate.
    let (text, opts) = query_of(w, w.request)?;
    let mut cx = Requests {
        w,
        engine: &engine,
        exec_opts: opts.clone().with_stats(),
        text,
        opts,
        tracer: &mut pass.tracer,
        series: &mut pass.series,
        tally: &mut pass.tally,
        bound: None,
    };
    let mut last = None;
    for r in 0..=w.traced_requests {
        if w.write_mix && r > 0 {
            cx.apply(
                write_rel,
                &ops[(r - 1) * WRITES_PER_READ..r * WRITES_PER_READ],
            );
        }
        cx.pipeline(r)?;
        if w.write_mix || r == 0 {
            last = Some(cx.decompose(r)?);
        }
    }
    if !w.write_mix {
        for r in 1..=w.traced_requests {
            last = Some(cx.decompose(r)?);
        }
        // Their writes: the paced schedule, in-memory.
        cx.apply(write_rel, &ops);
    }
    let opts = cx.opts;
    let text = cx.text;
    let (last_run, rows) = last.expect("at least request 0 ran");

    // text, core, baselines: repeated calls on the final snapshot.
    let db = engine.db();
    let query = parse_query(&text, &db)
        .map_err(|e| err("parse_query", e))?
        .query;
    for _ in 0..MICRO_REPS {
        let (ast, ns) = pass
            .tracer
            .span("text.parse_query", |_| parse_query_ast(&text));
        ast.map_err(|e| err("parse_query_ast", e))?;
        pass.series.push("parse_query", ns);
        let (planned, ns) = pass.tracer.span("core.plan", |_| plan(&db, &query));
        planned.map_err(|e| err("plan", e))?;
        pass.series.push("plan", ns);
    }
    let stmt = engine.prepare(&text).map_err(|e| err("prepare", e))?;
    for threads in [0, 2] {
        let opts = opts.clone().with_threads(threads);
        for _ in 0..HEAVY_REPS {
            let (out, ns) = pass
                .tracer
                .span("core.execute_threads", |_| stmt.execute(&opts));
            pass.tally.check(out.is_ok_and(|o| o.rows.len() == rows));
            pass.series
                .push(if threads == 0 { "serial" } else { "sharded" }, ns);
        }
    }
    let (pair_text, _) = query_of(w, w.lftj_request)?;
    let pair_query = parse_query(&pair_text, &db)
        .map_err(|e| err("parse_query", e))?
        .query;
    // The written relation's final state is the engine's own; elsewhere the
    // harness's join over the generated edges says how many rows to expect.
    let pair_rows = if w.write_mix {
        rows
    } else {
        model::join_rows(w.shape, &pair_edges).len()
    };
    let lftj = lookup("leapfrog").ok_or("no leapfrog in the registry")?;
    for _ in 0..10 {
        let (out, ns) = pass
            .tracer
            .span("baselines.lftj", |_| lftj.run(&db, &pair_query));
        let out = out.map_err(|e| err("leapfrog", e))?;
        pass.tally.check(out.tuples.len() == pair_rows);
        pass.series.push("lftj", ns);
    }

    let writes = Writes {
        relation: write_rel,
        loaded: &write_edges,
        ops: &ops,
    };
    storage_micro(w, &initial_db, &writes, cfg.seed, &mut pass)?;
    durability_micro(dir, &writes, &mut pass)?;
    served(&dep, &edges, &edge_set, &writes, &mut pass)?;

    // The sheet: every per-layer metric by name.
    let (ns_ms, ns_us) = (1e-6, 1e-3);
    let per = |total: f64, calls: u64| total / calls.max(1) as f64;
    let outputs = last_run.rows.len() as u64;
    let cold_prepare = if pass.series.get("prepare_cold").is_empty() {
        "prepare_hit"
    } else {
        "prepare_cold"
    };
    let m = |name: &str| pass.series.median(name);
    // Self times, as differences of independently measured medians.
    let write_body_self = (m("write_body") - m("execute")).max(0.0);
    let exec_overhead = (m("execute") - m("plain")).max(0.0);
    let loop_other = (m("explore") - m("find_gap")).max(0.0);
    pass.sheet.extend([
        ("server.parse_request_us", m("parse_request") * ns_us),
        ("render.write_body_self_ms", write_body_self * ns_ms),
        ("render.ns_per_row", per(write_body_self, rows as u64)),
        ("text.parse_query_us", m("parse_query") * ns_us),
        ("text.load_tsv_ms", m("load_tsv") * ns_ms),
        ("engine.prepare_cold_ms", m(cold_prepare) * ns_ms),
        ("engine.prepare_hit_us", m("prepare_hit") * ns_us),
        ("engine.exec_overhead_ms", exec_overhead * ns_ms),
        ("engine.apply_batch_us", m("apply_batch") * ns_us),
        ("core.plan_us", m("plan") * ns_us),
        ("core.reindex_ms", m("reindex") * ns_ms),
        ("core.probe_loop_ms", m("loop") * ns_ms),
        ("core.loop_other_ms", loop_other * ns_ms),
        ("core.sort_ms", m("sort") * ns_ms),
        ("core.shard_speedup_t2", m("serial") / m("sharded")),
        (
            "core.probes_per_output",
            per(last_run.cds.probe_points as f64, outputs),
        ),
        (
            "core.findgap_per_output",
            per(last_run.stats.find_gap_calls as f64, outputs),
        ),
        ("cds.get_probe_point_ms", m("get") * ns_ms),
        (
            "cds.get_probe_point_ns_per_call",
            per(m("get"), last_run.get_calls),
        ),
        ("cds.insert_constraint_ms", m("insert") * ns_ms),
        (
            "cds.insert_ns_per_call",
            per(m("insert"), last_run.insert_calls),
        ),
        ("cds.next_calls", last_run.cds.next_calls as f64),
        ("cds.backtracks", last_run.cds.backtracks as f64),
        (
            "cds.next_per_findgap",
            per(
                last_run.cds.next_calls as f64,
                last_run.stats.find_gap_calls,
            ),
        ),
        ("cds.nodes", last_run.cds_nodes as f64),
        ("storage.find_gap_ms", m("find_gap") * ns_ms),
        (
            "storage.find_gap_ns_per_call",
            per(m("find_gap"), last_run.stats.find_gap_calls),
        ),
        (
            "storage.find_gap_calls",
            last_run.stats.find_gap_calls as f64,
        ),
        ("storage.build_ms", m("build") * ns_ms),
        ("baselines.lftj_ms", m("lftj") * ns_ms),
        ("trace.overhead_ratio", m("timed") / m("execute")),
    ]);

    // The ledger: one steady-state served request, by independently
    // measured self time. What the sum leaves of the served latency is the
    // socket path nothing in-process sees (writes, flushes, the client's
    // reads).
    let served_ms = pass.sheet["server.served_1c_ms"];
    let prepare = if w.write_mix {
        cold_prepare
    } else {
        "prepare_hit"
    };
    let mut ledger: Vec<(&str, f64)> = vec![
        (
            "server.wire (ping_rtt)",
            pass.sheet["server.ping_rtt_us"] * 1e-3,
        ),
        ("server.parse_request", m("parse_request") * ns_ms),
        ("engine.prepare", m(prepare) * ns_ms),
        (
            "core.reindex",
            if w.write_mix {
                m("reindex") * ns_ms
            } else {
                0.0
            },
        ),
        ("render.write_body_self", write_body_self * ns_ms),
        ("engine.exec_overhead", exec_overhead * ns_ms),
        ("cds.get_probe_point", m("get") * ns_ms),
        ("cds.insert_constraint", m("insert") * ns_ms),
        ("storage.find_gap", m("find_gap") * ns_ms),
        ("core.loop_other", loop_other * ns_ms),
        ("core.sort", m("sort") * ns_ms),
    ];
    let attributed: f64 = ledger.iter().map(|(_, v)| v).sum();
    pass.sheet.insert(
        "trace.unattributed_ratio",
        (served_ms - attributed) / served_ms,
    );
    ledger.sort_by(|a, b| b.1.total_cmp(&a.1));
    eprintln!(
        "# {}: ledger of one served request ({served_ms:.4} ms on one connection):",
        w.name
    );
    for (layer, self_ms) in &ledger {
        eprintln!(
            "#   {layer:<26} {self_ms:>10.4} ms {:>6.1}%",
            100.0 * self_ms / served_ms
        );
    }
    eprintln!(
        "#   {:<26} {:>10.4} ms {:>6.1}%",
        "(unattributed: socket)",
        served_ms - attributed,
        100.0 * (served_ms - attributed) / served_ms
    );

    let trace_path = cfg.out.join(format!("trace_{}.json", w.name));
    fs::write(&trace_path, pass.tracer.to_json()).map_err(|e| err("write trace", e))?;
    let own: Vec<String> = self_time_by_name(pass.tracer.spans())
        .iter()
        .take(6)
        .map(|(name, ns)| format!("{name} {:.1} ms", *ns as f64 * 1e-6))
        .collect();
    eprintln!(
        "# {}: {} spans in {}; largest total self times: {}",
        w.name,
        pass.tracer.spans().len(),
        trace_path.display(),
        own.join(", ")
    );

    let values = PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            pass.sheet
                .get(name)
                .map(|&v| report::Value::new(name, v, Vec::new()))
                .ok_or(format!("{name} not measured"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Outcome {
        attempted: pass.tally.attempted,
        failed: pass.tally.failed,
        values,
    })
}

/// storage: `FindGap` through a `MergeView` and through both leaf
/// representations, raw `Database::apply`, and compaction.
fn storage_micro(
    w: &Workload,
    initial: &Database,
    writes: &Writes,
    seed: u64,
    pass: &mut Pass,
) -> Result<(), String> {
    let Pass {
        tracer,
        series,
        sheet,
        ..
    } = pass;
    let (write_rel, ops) = (writes.relation, writes.ops);
    // The relation the request pair joins (the sample where the workload has
    // one: a `MergeView` probe walks its node's whole run) under a 10 % delta
    // (5 % tombstones, 5 % inserts), probed at both levels for a stride
    // sample of its tuples.
    let merged = w.sample.map_or(w.relations[0], |(name, _)| name);
    let base = initial.relation(initial.id_of(merged).map_err(|e| err("id_of", e))?);
    let all = base.to_tuples();
    let mut rng = Rng::new(seed ^ 0xde17a);
    let del: Vec<Tuple> = all.iter().step_by(20).cloned().collect();
    let ins: Vec<Tuple> = (0..del.len())
        .map(|_| {
            vec![
                rng.below(w.nodes() as u64) as i64,
                rng.below(w.nodes() as u64) as i64,
            ]
        })
        .filter(|t| !base.contains(t))
        .collect();
    let ins = TrieRelation::from_tuples("ins", 2, ins).map_err(|e| err("delta", e))?;
    let del = TrieRelation::from_tuples("del", 2, del).map_err(|e| err("delta", e))?;
    let view = MergeView::new(base, &ins, &del);
    let mut stats = ExecStats::new();
    let stride = all.len().div_ceil(MERGE_SWEEP / 2).max(1);
    let ((), ns) = tracer.span("storage.merge_find_gap", |_| {
        let root = view.root();
        for t in all.iter().step_by(stride) {
            std::hint::black_box(view.find_gap(&root, t[0], &mut stats));
            if let Some(child) = view.child_by_value(&root, t[0], &mut stats) {
                std::hint::black_box(view.find_gap(&child, t[1], &mut stats));
            }
        }
    });
    sheet.insert(
        "storage.merge_find_gap_ns_per_call",
        ns as f64 / stats.find_gap_calls.max(1) as f64,
    );
    sheet.insert("storage.delta_probes", stats.delta_probes as f64);
    sheet.insert("storage.merge_steps", stats.merge_steps as f64);

    // A fixed relation of dense runs (64 runs, half of 4 096 values each),
    // swept forward through a GapCursor under both leaf policies.
    let mut rng = Rng::new(0xd3e5e);
    let dense: Vec<Tuple> = (0..64i64)
        .flat_map(|a| (0..4096i64).map(move |b| vec![a, b]))
        .filter(|_| rng.below(2) == 0)
        .collect();
    let sorted = Arc::new(TrieRelation::from_tuples("D", 2, dense).map_err(|e| err("dense", e))?);
    let hybrid = BitLeafRelation::build(sorted.clone(), LeafPolicy::Dense)
        .ok_or("the dense-run relation selected no dense leaves")?;
    fn sweep<S: TrieStorage>(rel: &S) -> f64 {
        let mut cursor = GapCursor::new(2);
        let mut stats = ExecStats::new();
        let start = Instant::now();
        for coord in 1..=rel.child_count(rel.root()) {
            let node = rel.child(rel.root(), coord);
            for a in (0..4096).step_by(3) {
                std::hint::black_box(cursor.find_gap(rel, node, a, &mut stats));
            }
        }
        start.elapsed().as_nanos() as f64 / stats.find_gap_calls as f64
    }
    let (per_call, _) = tracer.span("storage.dense_find_gap", |_| sweep(&hybrid));
    sheet.insert("storage.dense_find_gap_ns_per_call", per_call);
    let (per_call, _) = tracer.span("storage.sorted_find_gap", |_| sweep(&*sorted));
    sheet.insert("storage.sorted_find_gap_ns_per_call", per_call);

    // Raw writes and compaction, from the relation as loaded.
    let mut db = initial.clone();
    let id = db.id_of(write_rel).map_err(|e| err("id_of", e))?;
    // Compacting where the engine's threshold would: a quarter of the base.
    for chunk in ops.chunks(base_len_of(&db, id) / 4) {
        for op in chunk {
            let t = tuple_of(op.edge);
            let write = if op.insert {
                StorageWrite::Insert(t)
            } else {
                StorageWrite::Delete(t)
            };
            let (applied, ns) = tracer.span("storage.apply", |_| db.apply(id, &[write]));
            applied.map_err(|e| err("apply", e))?;
            series.push("storage_apply", ns);
        }
        let (_, ns) = tracer.span("storage.compact", |_| db.compact(id));
        series.push("compact", ns);
    }
    sheet.insert(
        "storage.apply_us_per_op",
        series.median("storage_apply") * 1e-3,
    );
    sheet.insert("storage.compact_ms", series.median("compact") * 1e-6);
    Ok(())
}

fn base_len_of(db: &Database, id: minesweeper_join::storage::RelId) -> usize {
    db.versioned(id).base_len().max(4)
}

/// durability: the raw store (log, checkpoint, reopen) and the engine's
/// durable write path, under the workload's flush policy.
fn durability_micro(dir: &Path, writes: &Writes, pass: &mut Pass) -> Result<(), String> {
    let Pass {
        tracer,
        series,
        sheet,
        tally,
    } = pass;
    let (write_rel, write_edges, ops) = (writes.relation, writes.loaded, writes.ops);
    let options = DurabilityOptions {
        fsync: FsyncPolicy::EveryN(FSYNC_EVERY),
        checkpoint_every: CHECKPOINT_EVERY,
        ..DurabilityOptions::default()
    };
    let dur = |e: minesweeper_join::durability::DurabilityError| err("durability", e);

    let raw = dir.join("store");
    let Opened::Fresh(mut store) = DurableStore::open(&raw, options).map_err(dur)? else {
        return Err("a new data directory did not open fresh".to_string());
    };
    let dump = RelationDump {
        name: write_rel.to_string(),
        types: vec!["int".to_string(); 2],
        version: 0,
        rows: write_edges.iter().copied().map(cells_of).collect(),
    };
    for _ in 0..HEAVY_REPS {
        let (done, ns) = tracer.span("durability.checkpoint", |_| {
            let (position, next_lsn) = store.sync_position()?;
            store.commit_checkpoint(position, next_lsn, std::slice::from_ref(&dump))
        });
        done.map_err(dur)?;
        series.push("checkpoint", ns);
    }
    let mut user_bytes = 0;
    for (i, op) in ops.iter().enumerate() {
        let cells = cells_of(op.edge);
        let record = WalRecord::Batch(Batch {
            relation: write_rel.to_string(),
            version_before: i as u64,
            ops: vec![if op.insert {
                CellOp::Insert(cells)
            } else {
                CellOp::Delete(cells)
            }],
        });
        let (logged, ns) = tracer.span("durability.log", |_| store.log(&record));
        logged.map_err(dur)?;
        series.push("log", ns);
        user_bytes += op.line(write_rel).len() + 1;
    }
    let wal_bytes = store.counters().wal_bytes;
    drop(store);
    for _ in 0..HEAVY_REPS {
        let (opened, ns) = tracer.span("durability.replay", |_| DurableStore::open(&raw, options));
        let Opened::Recovered(_, recovery) = opened.map_err(dur)? else {
            return Err("the logged directory did not recover".to_string());
        };
        tally.check(recovery.tail.len() == ops.len());
        series.push("replay", ns);
    }

    // The engine's durable write path: log-before-apply plus the periodic
    // checkpoint riding on the write that makes it due, as `W INSERT` does.
    let engine_dir = dir.join("engine");
    let (mut engine, boot) =
        Engine::open_durable(&engine_dir, options).map_err(|e| err("open_durable", e))?;
    if !matches!(boot, DurableBoot::Fresh) {
        return Err("a new engine directory did not open fresh".to_string());
    }
    engine
        .load_tsv(write_rel, &tsv_of(write_edges))
        .map_err(|e| err("load", e))?;
    engine.checkpoint().map_err(|e| err("boot checkpoint", e))?;
    for op in ops {
        let row_op = row_op(op);
        let (applied, ns) = tracer.span("engine.apply_batch_durable", |_| {
            let outcome = engine.apply_batch(write_rel, [row_op])?;
            engine.maybe_checkpoint()?;
            Ok::<_, minesweeper_join::engine::EngineError>(outcome)
        });
        tally.check(applied.is_ok_and(|o| o.affected() == 1));
        series.push("apply_batch_durable", ns);
    }
    let checkpoints = engine.durability_stats().map_or(0, |c| c.checkpoints);
    drop(engine); // no drain: the next open replays the tail, as after kill -9
    let (_, boot) = Engine::open_durable(&engine_dir, options).map_err(|e| err("recover", e))?;
    let DurableBoot::Recovered(report) = boot else {
        return Err("the engine directory did not recover".to_string());
    };
    sheet.extend([
        (
            "engine.apply_batch_durable_us",
            series.median("apply_batch_durable") * 1e-3,
        ),
        ("durability.log_us_per_record", series.median("log") * 1e-3),
        (
            "durability.checkpoint_ms",
            series.median("checkpoint") * 1e-6,
        ),
        ("durability.replay_ms", series.median("replay") * 1e-6),
        (
            "durability.wal_bytes_per_user_byte",
            wal_bytes as f64 / user_bytes as f64,
        ),
        ("durability.checkpoints", checkpoints as f64),
        (
            "durability.replayed_records",
            report.replayed_records as f64,
        ),
    ]);
    Ok(())
}

/// One named counter of a `STATS` body.
fn stat(body: &[u8], name: &str) -> f64 {
    String::from_utf8_lossy(body)
        .lines()
        .find_map(|l| {
            l.strip_prefix('|')?
                .strip_prefix(name)?
                .strip_prefix(' ')?
                .parse()
                .ok()
        })
        .unwrap_or(f64::NAN)
}

/// server: one connection to a real `msj serve` — round trips, the same
/// requests as the in-process loop, and the paced writer.
fn served(
    dep: &Deployment,
    edges: &[Edge],
    edge_set: &HashSet<Edge>,
    writes: &Writes,
    pass: &mut Pass,
) -> Result<(), String> {
    let Pass {
        series,
        sheet,
        tally,
        ..
    } = pass;
    let (w, write_rel, write_edges, ops) = (dep.w, writes.relation, writes.loaded, writes.ops);
    let server = dep.spawn("trace")?;
    let mut conn = dep.connect(&server, tally)?;
    let request =
        |conn: &mut Conn, line: &str, keep| conn.request(line, keep).map_err(|e| err(line, e));
    for _ in 0..PINGS {
        let (sent, reply) = request(&mut conn, "PING", false)?;
        tally.check(reply.status == Ok(0));
        series.push("ping", (reply.done - sent).as_nanos() as u64);
    }
    // A freshly booted server answers its first requests slower than its
    // steady state; the in-process loop is warm by now, so warm this one too.
    let warm_until = Instant::now() + SERVED_WARM;
    while !w.write_mix && Instant::now() < warm_until {
        request(&mut conn, w.request, false)?;
    }
    let (_, before) = request(&mut conn, "STATS", true)?;
    let mut shadow = Model::new(write_edges, w.nodes());
    let mut pinned: Option<Expected> = None;
    let mut body_bytes = 0;
    for r in 0..=w.traced_requests {
        if w.write_mix && r > 0 {
            for op in &ops[(r - 1) * WRITES_PER_READ..r * WRITES_PER_READ] {
                let (_, reply) = request(&mut conn, &op.line(write_rel), false)?;
                tally.check(reply.status == Ok(1));
                shadow.apply(op);
            }
        }
        let (sent, reply) = request(&mut conn, w.request, w.limit.is_some())?;
        let ok = match (w.limit, pinned) {
            (Some(k), None) => {
                pinned = Some(Expected {
                    rows: reply.data_lines,
                    hash: reply.hash,
                });
                let body = reply.body.as_deref().unwrap_or_default();
                reply.status == Ok(k) && model::is_valid_two_hop_page(body, w.header, k, edge_set)
            }
            (Some(_), Some(page)) => page.matches(&reply),
            (None, _) if w.write_mix => {
                model::expected(w.shape, w.header, &shadow.edges()).matches(&reply)
            }
            (None, _) => model::expected(w.shape, w.header, edges).matches(&reply),
        };
        tally.check(ok);
        if r > 0 {
            series.push("served", (reply.done - sent).as_nanos() as u64);
            series.push("transfer", (reply.done - reply.first_row).as_nanos() as u64);
            body_bytes = reply.body_bytes;
        }
    }
    let (_, after) = request(&mut conn, "STATS", true)?;
    let delta = |name: &str| {
        let (b, a) = (before.body.as_deref(), after.body.as_deref());
        stat(a.unwrap_or_default(), name) - stat(b.unwrap_or_default(), name)
    };
    let start = Instant::now();
    let paced = &ops[ops.len() - PACED_WRITES..];
    let (samples, paced_tally) = write_loop(&mut conn, paced, write_rel, start, start);
    tally.absorb(&paced_tally);
    let mut late: Vec<f64> = samples.iter().map(|s| s.first_ms).collect();
    stats::sort(&mut late);
    sheet.extend([
        ("server.ping_rtt_us", series.median("ping") * 1e-3),
        ("server.served_1c_ms", series.median("served") * 1e-6),
        ("server.body_transfer_ms", series.median("transfer") * 1e-6),
        (
            "server.flushes_per_req",
            delta("flushes") / (w.traced_requests + 1) as f64,
        ),
        ("server.body_bytes_per_req", body_bytes as f64),
        ("server.admission_waited", delta("waited")),
        (
            "loadgen.late_p95_ms",
            if late.is_empty() {
                f64::NAN
            } else {
                percentile(&late, 0.95)
            },
        ),
    ]);
    drop(conn);
    server.kill();
    Ok(())
}
