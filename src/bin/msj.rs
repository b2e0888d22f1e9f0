//! `msj` — run a join from the command line, serve joins over TCP, or
//! talk to a running server.
//!
//! ```text
//! msj --rel R=edges.tsv --rel S=edges.tsv 'R(x, y), S(y, z)' \
//!     [--algo NAME] [--explain] [--explain-json] [--stats] [--limit K] \
//!     [--threads N] [--data-dir DIR]
//! msj serve  --rel NAME=FILE ... [--addr 127.0.0.1:PORT] [--budget N] \
//!     [--default-timeout MS] [--flush-rows N] [--flush-bytes N] \
//!     [--data-dir DIR] [--fsync always|never|every=N] \
//!     [--checkpoint-every N] [--no-auto-compact]
//! msj client --addr 127.0.0.1:PORT
//! ```
//!
//! Relations are whitespace-separated tuple files (see
//! `minesweeper_join::text`); columns may hold integers or strings —
//! string columns are dictionary-encoded by the engine and decoded on
//! output. The query lists atoms with named attributes whose
//! first-appearance order is the GAO; arguments may also be literals
//! (`Cities(c, "north-america")`, `R(x, 7)`) that constrain a position to
//! a constant. The planner picks a nested elimination order when the
//! query is β-acyclic and falls back to a minimum-elimination-width order
//! otherwise.
//!
//! Everything runs through the `Engine` front door: the query is
//! prepared once (plan + any GAO re-indexing, cached by query shape) and
//! each evaluator dispatches through the same `PreparedStatement` path.
//!
//! * `--explain` prints the plan (GAO, probe mode, width, runtime bound,
//!   cache status) without executing; `--explain-json` prints the same
//!   structured `ExplainPlan` as JSON.
//! * `--algo NAME` dispatches through the algorithm registry
//!   (`minesweeper`, `minesweeper-par`, `yannakakis`, `leapfrog`,
//!   `generic`, `hash`, `sort-merge`, `nested-loop`, `naive`); every
//!   algorithm prints the same sorted output.
//! * `--limit K` with the default Minesweeper engine is pushed into the
//!   streaming executor: the probe loop stops after `K` certified tuples
//!   instead of materializing the whole result.
//! * `--threads N` (or `--algo minesweeper-par`) runs the sharded
//!   parallel engine — equi-depth shard tasks claimed in ascending order,
//!   their outputs concatenated in spec order, byte-identical to
//!   the serial engine (`--limit` streams included, cancelling remaining
//!   shard work early). `--stats` adds the per-shard breakdown.
//!
//! **`msj serve`** loads the same `--rel` relations once, then serves
//! the line protocol documented in `docs/SERVICE.md` on `--addr`
//! (default `127.0.0.1:0`; the chosen address is printed as the first
//! stdout line, `listening on HOST:PORT`). Each request line carries
//! per-request options (`Q algo=… threads=… limit=… timeout=… explain …`),
//! hot shapes can be `PREPARE`d once and `EXEC`d by name, all
//! connections share one engine (and so one plan/re-index cache), and a
//! global `--budget` of pool workers (default: the CPU count) bounds
//! concurrent execution. `--default-timeout MS` arms a server-wide
//! deadline for requests that do not carry their own `timeout=`;
//! `--flush-rows` / `--flush-bytes` tune the response batching
//! watermarks. **`msj client`** sends each stdin line as a
//! request and prints response bodies to stdout — byte-identical to
//! what the one-shot CLI prints for the same query and options.
//!
//! **`--data-dir DIR`** makes the engine durable (see
//! `docs/DURABILITY.md`): a first boot loads the `--rel` relations,
//! writes the boot checkpoint, and logs every committed write batch to a
//! write-ahead log before applying it; a later boot recovers — newest
//! valid checkpoint, then WAL-tail replay, tolerating a torn final line
//! — and ignores `--rel` (the directory is the source of truth).
//! `--fsync` picks the log's sync policy (default `always`),
//! `--checkpoint-every N` checkpoints every `N` logged records
//! (`W CHECKPOINT` forces one any time), and `--no-auto-compact` turns
//! off threshold-triggered compaction after writes. `msj serve` drains
//! on SIGTERM/SIGINT: it stops accepting, lets in-flight sessions
//! finish, writes a final checkpoint, and exits 0.
//!
//! Exit codes: `0` success, `2` usage, `3` the query was rejected
//! (parse/plan/type/unknown-algorithm — before any tuple work), `1`
//! execution or I/O failure.

use std::process::ExitCode;

use std::fmt::Display;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;

use minesweeper_join::baselines::{algorithm_names, lookup};
use minesweeper_join::durability::{DurabilityOptions, FsyncPolicy};
use minesweeper_join::engine::{
    DispatchKind, DurableBoot, Engine, EngineError, ExecOptions, PreparedStatement,
};
use minesweeper_join::render;
use minesweeper_join::server::protocol::set_exec_option;
use minesweeper_join::server::{self, Client, Reply, Server};
use minesweeper_join::storage::ExecStats;

/// Exit code for queries the engine rejected before doing tuple work.
const EXIT_REJECTED: u8 = 3;

fn usage() -> ExitCode {
    eprintln!(
        "usage: msj --rel NAME=FILE [--rel NAME=FILE ...] 'QUERY' \
         [--algo NAME] [--explain] [--explain-json] [--stats] [--limit K] [--threads N] \
         [--data-dir DIR]\n\
         \x20      msj serve --rel NAME=FILE [...] [--addr HOST:PORT] [--budget N]\n\
         \x20                [--default-timeout MS] [--flush-rows N] [--flush-bytes N]\n\
         \x20                [--data-dir DIR] [--fsync always|never|every=N]\n\
         \x20                [--checkpoint-every N] [--no-auto-compact]\n\
         \x20      msj client --addr HOST:PORT  (requests on stdin; see docs/SERVICE.md)\n\
         example: msj --rel R=edges.tsv --rel S=edges.tsv 'R(x,y), S(y,z)' --stats\n\
         algorithms: {}",
        algorithm_names().join(", ")
    );
    ExitCode::from(2)
}

/// Reports an engine error and maps it onto the exit-code policy:
/// rejected queries (nothing executed) exit 3, execution failures 1.
fn engine_failure(e: &EngineError) -> ExitCode {
    eprintln!("{e}");
    if e.is_query_rejection() {
        ExitCode::from(EXIT_REJECTED)
    } else {
        ExitCode::FAILURE
    }
}

/// An execution or I/O failure (exit 1), reported as `context: error`.
fn failure(context: impl Display, e: impl Display) -> ExitCode {
    eprintln!("{context}: {e}");
    ExitCode::FAILURE
}

fn print_stats(stats: &ExecStats) {
    eprintln!("# outputs: {}", stats.outputs);
    eprintln!(
        "# findgap calls (certificate proxy): {}",
        stats.find_gap_calls
    );
    eprintln!("# probe points: {}", stats.probe_points);
    eprintln!("# constraints inserted: {}", stats.constraints_inserted);
    eprintln!("# backtracks: {}", stats.backtracks);
    eprintln!("# comparisons: {}", stats.comparisons);
    eprintln!("# intermediate tuples: {}", stats.intermediate_tuples);
}

fn print_gao_line(stmt: &PreparedStatement) {
    let gao = stmt.plan().gao();
    eprintln!(
        "# gao order: {:?} (mode {:?}, width {})",
        gao.order, gao.mode, gao.width
    );
}

/// The per-shard breakdown of a parallel run: one line per shard task
/// with its output-space slice and counters, flagged when the task was
/// cancelled before completing.
fn print_shard_lines(threads: usize, shards: &[minesweeper_join::core::ShardStats]) {
    eprintln!(
        "# parallel: {} worker(s), {} shard task(s)",
        threads,
        shards.len()
    );
    for (i, s) in shards.iter().enumerate() {
        eprintln!(
            "#   shard {i} {}: outputs={} findgap={} probes={}{}",
            s.spec,
            s.stats.outputs,
            s.stats.find_gap_calls,
            s.stats.probe_points,
            if s.completed {
                ""
            } else {
                " (cancelled/capped)"
            },
        );
    }
}

/// Loads `--rel NAME=FILE` pairs into an engine (fresh or just-opened
/// durable — the same loader either way).
fn load_relations_into(engine: &mut Engine, rels: &[(String, String)]) -> Result<(), ExitCode> {
    for (name, path) in rels {
        let text = std::fs::read_to_string(path)
            .map_err(|e| failure(format_args!("cannot read {path}"), e))?;
        engine.load_tsv(name, &text).map_err(|e| failure(path, e))?;
    }
    Ok(())
}

/// Writes a checkpoint (nothing on an in-memory engine) and reports it
/// on stderr under `headline`.
fn checkpoint(
    engine: &Engine,
    headline: impl Display,
    failed: impl Display,
) -> Result<(), ExitCode> {
    if let Some(report) = engine.checkpoint().map_err(|e| failure(failed, e))? {
        eprintln!(
            "# {headline} {} ({} relation(s), {} row(s))",
            report.id, report.relations, report.rows
        );
    }
    Ok(())
}

/// Opens (or recovers) a durable engine over `--data-dir`. A fresh
/// directory loads the `--rel` relations and writes the boot checkpoint;
/// a recovered one ignores `--rel` with a warning and reports what
/// recovery did on stderr.
fn open_data_dir(
    dir: &str,
    options: DurabilityOptions,
    rels: &[(String, String)],
) -> Result<Engine, ExitCode> {
    let (mut engine, boot) = Engine::open_durable(Path::new(dir), options)
        .map_err(|e| failure(format_args!("cannot open data directory {dir}"), e))?;
    match boot {
        DurableBoot::Fresh => {
            load_relations_into(&mut engine, rels)?;
            checkpoint(
                &engine,
                format_args!("msj: initialized {dir}: checkpoint"),
                format_args!("cannot write the boot checkpoint in {dir}"),
            )?;
        }
        DurableBoot::Recovered(report) => {
            for warning in &report.warnings {
                eprintln!("# msj: recovery warning: {warning}");
            }
            eprintln!(
                "# msj: recovered {dir}: checkpoint {} + {} replayed wal record(s), \
                 {} relation(s)",
                report.checkpoint_id, report.replayed_records, report.relations
            );
            if !rels.is_empty() {
                eprintln!(
                    "# msj: note: {} --rel argument(s) ignored — {dir} already holds the data",
                    rels.len()
                );
            }
        }
    }
    Ok(engine)
}

/// A usage error that names the offending flag instead of printing the
/// whole usage text.
fn bad_flag(message: impl Display) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(2)
}

/// A cursor over the command line. Flag values come out through `?`: a
/// missing or unparsable value is the usage error (exit 2), so each flag
/// is one `match` arm.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<&'a str, ExitCode> {
        self.next().ok_or_else(usage)
    }

    /// The current flag's value, parsed.
    fn parsed<T: std::str::FromStr>(&mut self) -> Result<T, ExitCode> {
        self.value()?.parse().map_err(|_| usage())
    }

    /// The current flag's value as a count above zero; anything else is
    /// reported as `flag expects a positive <what> count`.
    fn positive(&mut self, flag: &str, what: &str) -> Result<usize, ExitCode> {
        let n = self.next().and_then(|v| v.parse().ok());
        n.filter(|&n| n > 0)
            .ok_or_else(|| bad_flag(format_args!("{flag} expects a positive {what} count")))
    }
}

/// Where the data comes from — the `--rel` / `--data-dir` flags the
/// one-shot and serve modes share.
#[derive(Default)]
struct Source {
    rels: Vec<(String, String)>,
    data_dir: Option<String>,
}

impl Source {
    /// Consumes `flag` if it is one of the source flags.
    fn take(&mut self, flag: &str, flags: &mut Flags) -> Result<bool, ExitCode> {
        match flag {
            "--rel" => {
                let spec = flags.value()?;
                let (name, path) = spec.split_once('=').ok_or_else(|| {
                    bad_flag(format_args!("--rel expects NAME=FILE, got {spec:?}"))
                })?;
                self.rels.push((name.to_string(), path.to_string()));
            }
            "--data-dir" => self.data_dir = Some(flags.value()?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Loads the engine: durable over `--data-dir` when given, otherwise
    /// the `--rel` files into a fresh in-memory one.
    fn open(&self, durability: DurabilityOptions) -> Result<Engine, ExitCode> {
        match &self.data_dir {
            Some(dir) => open_data_dir(dir, durability, &self.rels),
            None if self.rels.is_empty() => Err(usage()),
            None => {
                let mut engine = Engine::new();
                load_relations_into(&mut engine, &self.rels)?;
                Ok(engine)
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("serve") => serve_main(Flags(args[1..].iter())),
        Some("client") => client_main(Flags(args[1..].iter())),
        _ => query_main(Flags(args.iter())),
    };
    run.unwrap_or_else(|code| code)
}

// ---------------------------------------------------------------- serve

fn serve_main(mut flags: Flags) -> Result<ExitCode, ExitCode> {
    let mut source = Source::default();
    let mut addr = "127.0.0.1:0";
    let mut options = server::ServerOptions::default();
    let mut durability = DurabilityOptions::default();
    let mut durability_flags = false;
    let mut auto_compact = true;
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => addr = flags.value()?,
            "--budget" => options.budget = flags.parsed()?,
            "--default-timeout" => {
                options.default_timeout = Some(std::time::Duration::from_millis(flags.parsed()?));
            }
            "--flush-rows" => options.flush_rows = flags.positive(flag, "line")?,
            "--flush-bytes" => options.flush_bytes = flags.positive(flag, "byte")?,
            "--fsync" => {
                let policy = flags.next().and_then(FsyncPolicy::parse);
                durability.fsync =
                    policy.ok_or_else(|| bad_flag("--fsync expects always, never, or every=N"))?;
                durability_flags = true;
            }
            "--checkpoint-every" => {
                durability.checkpoint_every = flags.parsed()?;
                durability_flags = true;
            }
            "--no-auto-compact" => auto_compact = false,
            "--help" | "-h" => return Err(usage()),
            other if source.take(other, &mut flags)? => {}
            other => return Err(bad_flag(format_args!("unexpected argument {other:?}"))),
        }
    }
    if durability_flags && source.data_dir.is_none() {
        return Err(bad_flag("--fsync / --checkpoint-every require --data-dir"));
    }
    let engine = source.open(durability)?;
    engine.set_auto_compact(auto_compact);
    let engine = Arc::new(engine);
    let server = Server::start_with(Arc::clone(&engine), addr, options)
        .map_err(|e| failure(format_args!("cannot serve on {addr}"), e))?;
    // The first stdout line is machine-readable so scripts (and the CI
    // smoke job) can discover an OS-assigned port.
    println!("listening on {}", server.addr());
    let _ = std::io::stdout().flush();
    eprintln!(
        "# msj serve: {} relation(s), worker budget {}{}; protocol in docs/SERVICE.md",
        engine.db().len(),
        server.stats().budget,
        match &source.data_dir {
            Some(dir) => format!(", durable in {dir}"),
            None => String::new(),
        }
    );
    // Serve until SIGTERM/SIGINT, then drain: stop accepting, let
    // in-flight sessions finish (they poll the shutdown flag between
    // reads, bounded by the 50ms read-poll), write a final checkpoint,
    // and exit 0. Sessions and the accept loop run on their own threads;
    // the main thread only watches the drain flag.
    sig::install();
    while !sig::draining() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("# msj serve: signal received, draining");
    server
        .shutdown()
        .map_err(|e| failure("msj serve: shutdown", e))?;
    checkpoint(
        &engine,
        "msj serve: final checkpoint",
        "msj serve: final checkpoint failed",
    )?;
    Ok(ExitCode::SUCCESS)
}

/// Minimal signal handling without a libc crate: `std` already links
/// libc, so declaring `signal(2)` directly is enough to flip an atomic
/// from the handler (store-to-atomic is async-signal-safe).
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static DRAIN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        DRAIN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        let handler: extern "C" fn(i32) = on_signal;
        unsafe {
            signal(SIGINT, handler as usize);
            signal(SIGTERM, handler as usize);
        }
    }

    pub fn draining() -> bool {
        DRAIN.load(Ordering::SeqCst)
    }
}

/// Non-unix fallback: no drain signal; the process serves until killed.
#[cfg(not(unix))]
mod sig {
    pub fn install() {}

    pub fn draining() -> bool {
        false
    }
}

// --------------------------------------------------------------- client

/// `ERR` codes that mean the request was rejected before execution —
/// they map onto exit 3 like the one-shot CLI's rejections.
fn code_is_rejection(code: &str) -> bool {
    matches!(code, "PROTO" | "PARSE" | "PLAN" | "TYPE" | "ALGO")
}

fn client_main(mut flags: Flags) -> Result<ExitCode, ExitCode> {
    let mut addr = None;
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => addr = Some(flags.value()?),
            "--help" | "-h" => return Err(usage()),
            other => return Err(bad_flag(format_args!("unexpected argument {other:?}"))),
        }
    }
    let addr = addr.ok_or_else(usage)?;
    let mut client =
        Client::connect(addr).map_err(|e| failure(format_args!("cannot connect to {addr}"), e))?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut rejected = false;
    let mut failed = false;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| failure("stdin", e))?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = client.request(&line).map_err(|e| failure(addr, e))?;
        match reply {
            Reply::Ok { body, .. } => {
                if out
                    .write_all(body.as_bytes())
                    .and_then(|()| out.flush())
                    .is_err()
                {
                    // stdout consumer gone (e.g. `… | head`): stop quietly.
                    return Ok(ExitCode::SUCCESS);
                }
            }
            Reply::Err { code, message } => {
                eprintln!("ERR {code} {message}");
                if code_is_rejection(&code) {
                    rejected = true;
                } else {
                    failed = true;
                }
            }
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else if rejected {
        ExitCode::from(EXIT_REJECTED)
    } else {
        ExitCode::SUCCESS
    })
}

// -------------------------------------------------------------- one-shot

fn query_main(mut flags: Flags) -> Result<ExitCode, ExitCode> {
    let mut source = Source::default();
    let mut query_text = None;
    let mut show_stats = false;
    let mut explain = false;
    let mut explain_json = false;
    // `--algo`, `--threads` and `--limit` are the service's `algo=`,
    // `threads=` and `limit=` options: one grammar, one setter.
    let mut opts = ExecOptions::default();
    while let Some(flag) = flags.next() {
        match flag {
            "--stats" => show_stats = true,
            "--explain" => explain = true,
            "--explain-json" => explain_json = true,
            "--algo" | "--threads" | "--limit" => {
                set_exec_option(&flag[2..], flags.value()?, &mut opts, &mut None)
                    .map_err(|_| usage())?;
            }
            "--help" | "-h" => return Err(usage()),
            other if source.take(other, &mut flags)? => {}
            other if query_text.is_some() => {
                return Err(bad_flag(format_args!("unexpected argument {other:?}")));
            }
            other => query_text = Some(other),
        }
    }
    let query_text = query_text.ok_or_else(usage)?;
    let engine = source.open(DurabilityOptions::default())?;
    // Resolve `--algo` up front so typos fail before any planning work —
    // a rejection (exit 3), like every other pre-execution refusal.
    let canonical_algo = match &opts.algo {
        None => None,
        Some(name) => match lookup(name) {
            Some(a) => Some(a.name()),
            None => {
                eprintln!(
                    "unknown algorithm {name:?}; available: {}",
                    algorithm_names().join(", ")
                );
                return Err(ExitCode::from(EXIT_REJECTED));
            }
        },
    };

    // The Minesweeper plan (GAO search, re-index mapping, cache) drives
    // `--explain` and both Minesweeper engines; registry baselines only
    // use it as the dispatch host.
    let uses_planner =
        canonical_algo.is_none_or(|a| matches!(a, "minesweeper" | "minesweeper-par"));
    if !uses_planner && opts.threads > 0 {
        eprintln!("note: --threads only applies to the minesweeper engines; ignored");
        opts.threads = 0;
    }
    opts.collect_stats = true;

    // The one options struct every path below dispatches with; the
    // engine resolves thread defaults (e.g. minesweeper-par's
    // hardware-sized worker count) inside `dispatch_kind`.
    let stmt = engine.prepare(query_text).map_err(|e| engine_failure(&e))?;
    let kind = stmt.dispatch_kind(&opts).map_err(|e| engine_failure(&e))?;

    // Buffered, checked stdout: a consumer closing the pipe (`msj … |
    // head`) stops a streaming run quietly instead of panicking. The
    // body bytes come from the shared renderer — the same one `msj
    // serve` streams to sockets, which is what makes the service's
    // byte-identity contract hold by construction.
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());

    if explain || explain_json {
        return match render::write_explain(&mut out, &stmt, &opts, explain_json) {
            Ok(_connected) => Ok(ExitCode::SUCCESS),
            Err(e) => Err(engine_failure(&e)),
        };
    }

    if let (DispatchKind::Parallel(_), Some(k)) = (&kind, opts.limit) {
        eprintln!(
            "note: --limit {k} with --threads streams the first {k} tuples in \
             global order (identical to the serial --limit stream) and cancels \
             the remaining shard work early"
        );
    }

    let outcome = render::write_body(&mut out, &stmt, &opts).map_err(|e| engine_failure(&e))?;
    drop(out);
    if show_stats {
        match &kind {
            DispatchKind::Baseline(name) => {
                eprintln!("# algorithm: {name}");
            }
            DispatchKind::Parallel(t) => {
                print_gao_line(&stmt);
                print_shard_lines(*t, outcome.shards.as_deref().unwrap_or(&[]));
            }
            DispatchKind::Serial => print_gao_line(&stmt),
        }
        print_stats(&outcome.stats);
    }
    Ok(ExitCode::SUCCESS)
}
