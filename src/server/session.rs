//! One connection's request/response loop.
//!
//! A session owns its [`TcpStream`] and runs on a dedicated thread: read
//! one request line, act on it, write one framed response, repeat until
//! `QUIT`, EOF, a protocol violation, or server shutdown. Four
//! properties do the heavy lifting:
//!
//! * **Shared hot state** — queries go through the one
//!   [`crate::engine::Engine`] behind the server, so concurrent clients
//!   hit the same plan/re-index cache and concurrent *different* shapes
//!   warm it for each other. On top of that, `PREPARE` pins a planned
//!   [`PreparedStatement`] on the connection so `EXEC` skips request
//!   parsing and planning entirely (a write that bumps a relation
//!   version re-plans transparently from the stored text).
//! * **Admission before execution** — the request's declared worker cost
//!   (see [`crate::engine::DispatchKind::worker_cost`]) is acquired from
//!   the global [`super::WorkerBudget`] *before* the probe loop starts,
//!   so a flood queues instead of oversubscribing the machine.
//! * **Disconnect ⇒ cancellation** — the response body streams through a
//!   coalescing writer; a client that goes away turns a later write or
//!   flush into an error, [`crate::render::write_body`] stops and drops
//!   the tuple stream, and the drop cancels queued and in-flight shard
//!   work. The suffix of the output the client will never read is never
//!   computed.
//! * **Deadline ⇒ cancellation** — a `timeout=` option (or the server's
//!   `--default-timeout`) arms [`crate::engine::ExecOptions::deadline`]
//!   when execution starts; an expired stream stops yielding
//!   *server-side*, the partial body already flushed stays valid, and
//!   the response terminates with `ERR DEADLINE <elapsed>` instead of
//!   `OK` — no disconnect required.
//!
//! Response batching: body lines are flushed on watermarks (every
//! [`super::ServerOptions::flush_rows`] complete lines or
//! [`super::ServerOptions::flush_bytes`] bytes, whichever trips first)
//! instead of per line, so a large body amortizes syscalls. The first
//! completed line always flushes immediately, keeping `limit=k`
//! first-row latency at one flush; the residual tail rides the control
//! line's flush.

use std::collections::HashMap;
use std::io::{self, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::render::{write_body, write_explain, BodyOutcome};

use super::protocol::{
    err_line, ok_line, parse_request, ExplainFormat, Request, WriteAction, BODY_PREFIX, CODE_PROTO,
};
use super::{Metrics, Shared};
use crate::engine::{DispatchKind, EngineError, ExecOptions, PreparedStatement};

/// How often a blocked read wakes up to poll the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// Prepared statements one connection may hold at a time; a `PREPARE`
/// of a new name beyond it is a protocol error (re-preparing an existing
/// name is always allowed). Bounds what a client can pin in memory.
const MAX_PREPARED: usize = 1024;

/// Request lines longer than this are a protocol violation (the engine's
/// query grammar never needs more; this bounds a hostile client's
/// memory use).
const MAX_LINE: usize = 1 << 20;

/// One `PREPARE`d statement pinned on a connection: the planned
/// statement plus everything needed to re-plan it when a write makes it
/// stale and to seed each `EXEC` with its declared defaults.
struct PreparedEntry {
    /// The original query text (re-prepared from verbatim on staleness).
    text: String,
    /// Default execution options from the `PREPARE` line.
    opts: ExecOptions,
    /// Default `timeout=` budget from the `PREPARE` line.
    timeout: Option<Duration>,
    /// The planned statement, bound to a database snapshot.
    stmt: PreparedStatement,
}

/// Runs one connection to completion. IO errors end the session quietly
/// (the peer is gone; there is nobody left to report them to).
pub(super) fn run(stream: TcpStream, shared: &Shared) {
    shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
    shared.metrics.active.fetch_add(1, Ordering::Relaxed);
    let _ = serve(stream, shared);
    shared.metrics.active.fetch_sub(1, Ordering::Relaxed);
}

fn serve(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    // Watermark flushing only helps if the OS sends the batch promptly:
    // without NODELAY a small response sits in the Nagle buffer and a
    // disconnect is discovered a round-trip late.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    let mut reader = LineReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // Prepared statements are per-connection: no cross-client name
    // clashes, and dropping the connection drops the map.
    let mut prepared: HashMap<String, PreparedEntry> = HashMap::new();

    loop {
        let line = match reader.next_line(shared) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()), // EOF or shutdown
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized request: report and hang up — the rest of
                // the line would have to be skipped blind.
                return reply_err(&mut writer, shared, CODE_PROTO, &e.to_string());
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue; // blank lines keep the connection usable interactively
        }
        let request = match parse_request(&line) {
            Ok(r) => r,
            Err(msg) => {
                reply_err(&mut writer, shared, CODE_PROTO, &msg)?;
                continue;
            }
        };
        match request {
            Request::Ping => control(&mut writer, &ok_line(0))?,
            Request::Quit => {
                control(&mut writer, &ok_line(0))?;
                return Ok(());
            }
            Request::Stats => {
                let snapshot = shared.stats();
                let mut body = PrefixWriter::new(&mut writer);
                for (name, value) in snapshot.fields() {
                    writeln!(body, "{name} {value}")?;
                }
                control(&mut writer, &ok_line(0))?;
            }
            Request::Write {
                action,
                relation,
                cells,
            } => {
                let changed = run_write(shared, action, &relation, cells);
                reply(&mut writer, shared, changed)?;
            }
            Request::Compact { relation } => {
                // Explicit compactions go through the logged path, so a
                // recovered engine repeats them (threshold-triggered ones
                // are content-neutral and re-trigger on their own).
                let folded = shared.engine.compact_logged(relation.as_deref());
                if let Ok(n) = folded {
                    let compactions = &shared.metrics.compactions;
                    compactions.fetch_add(n as u64, Ordering::Relaxed);
                }
                reply(&mut writer, shared, folded)?;
            }
            Request::Checkpoint => {
                let dumped = shared.engine.checkpoint().and_then(|report| {
                    let in_memory = "this server has no data directory (start with --data-dir)";
                    let report = report.ok_or_else(|| EngineError::Storage(in_memory.into()))?;
                    Ok(report.relations)
                });
                reply(&mut writer, shared, dumped)?;
            }
            Request::Query {
                opts,
                timeout,
                explain,
                text,
            } => {
                shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                if !run_query(&mut writer, shared, &opts, timeout, explain, &text)? {
                    // The client disconnected mid-body; the stream drop
                    // already cancelled its remaining work.
                    shared.metrics.disconnects.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
            }
            Request::Prepare {
                name,
                opts,
                timeout,
                text,
            } => {
                if prepared.len() >= MAX_PREPARED && !prepared.contains_key(&name) {
                    let msg = format!(
                        "this connection already holds {MAX_PREPARED} prepared statements \
                         (UNPREPARE one first)"
                    );
                    reply_err(&mut writer, shared, CODE_PROTO, &msg)?;
                    continue;
                }
                // Resolve the options now: a statement every `EXEC` would
                // reject (`algo=nope`) is refused here and never stored.
                let planned = shared.engine.prepare(&text).and_then(|stmt| {
                    stmt.dispatch_kind(&opts)?;
                    Ok(stmt)
                });
                let stored = planned.map(|stmt| {
                    shared.metrics.prepared.fetch_add(1, Ordering::Relaxed);
                    let entry = PreparedEntry {
                        text,
                        opts,
                        timeout,
                        stmt,
                    };
                    prepared.insert(name, entry);
                    0
                });
                reply(&mut writer, shared, stored)?;
            }
            Request::Exec { name, overrides } => {
                shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                let Some(entry) = prepared.get_mut(&name) else {
                    let msg = format!(
                        "no prepared statement {name:?} on this connection (PREPARE it first)"
                    );
                    reply_err(&mut writer, shared, CODE_PROTO, &msg)?;
                    continue;
                };
                // A write since PREPARE bumped some base relation's
                // version; re-plan from the stored text so EXEC never
                // serves a stale snapshot. The re-prepare counts as a
                // parse (it is one) — steady-state EXECs on a read-only
                // workload keep `query_parses` flat.
                if !entry.stmt.is_current(&shared.engine.db()) {
                    match shared.engine.prepare(&entry.text) {
                        Ok(stmt) => entry.stmt = stmt,
                        Err(e) => {
                            reply(&mut writer, shared, Err(e))?;
                            continue;
                        }
                    }
                }
                shared.metrics.exec_hits.fetch_add(1, Ordering::Relaxed);
                let mut opts = entry.opts.clone();
                if let Some(limit) = overrides.limit {
                    opts.limit = Some(limit);
                }
                if let Some(threads) = overrides.threads {
                    opts.threads = threads;
                }
                let timeout = overrides.timeout.or(entry.timeout);
                if !execute_statement(&mut writer, shared, &entry.stmt, &opts, timeout)? {
                    shared.metrics.disconnects.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
            }
            Request::Unprepare { name } => {
                let removed = usize::from(prepared.remove(&name).is_some());
                control(&mut writer, &ok_line(removed))?;
            }
        }
    }
}

/// Executes one `Q` request and writes its framed response. Returns
/// `false` when the client disconnected mid-body (session over), `true`
/// otherwise — engine errors become `ERR` lines, not session failures.
fn run_query(
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
    opts: &ExecOptions,
    timeout: Option<Duration>,
    explain: Option<ExplainFormat>,
    text: &str,
) -> io::Result<bool> {
    let stmt = match shared.engine.prepare(text) {
        Ok(stmt) => stmt,
        Err(e) => return reply(writer, shared, Err(e)).map(|()| true),
    };

    if let Some(format) = explain {
        // Explain the run this server would execute, budget clamp included.
        let result = budgeted(shared, &stmt, opts).and_then(|(opts, _)| {
            let mut body = PrefixWriter::new(writer);
            write_explain(&mut body, &stmt, &opts, format == ExplainFormat::Json)
        });
        return match result {
            Ok(false) => Ok(false),
            result => reply(writer, shared, result.map(|_| 0)).map(|()| true),
        };
    }

    execute_statement(writer, shared, &stmt, opts, timeout)
}

/// The options `stmt` runs with on this server under `opts`, and what the
/// run costs in pool workers. A request may name any worker count, but it
/// runs with — and is charged for — at most the whole budget, so the
/// permits debited are the workers spawned. The one place the clamp is
/// made: both execution and `explain` go through it.
fn budgeted(
    shared: &Shared,
    stmt: &PreparedStatement,
    opts: &ExecOptions,
) -> Result<(ExecOptions, DispatchKind), EngineError> {
    let mut opts = opts.clone();
    let mut kind = stmt.dispatch_kind(&opts)?;
    if let DispatchKind::Parallel(threads) = &mut kind {
        *threads = (*threads).min(shared.budget.budget());
        opts.threads = *threads;
    }
    Ok((opts, kind))
}

/// Runs one planned statement — the shared tail of `Q` and `EXEC`: arm
/// the deadline, pass admission control, stream the body through the
/// coalescing writer, terminate with `OK`, `ERR DEADLINE`, or a plain
/// `ERR`. Returns `false` when the client disconnected mid-body.
fn execute_statement(
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
    stmt: &PreparedStatement,
    opts: &ExecOptions,
    timeout: Option<Duration>,
) -> io::Result<bool> {
    // The clock arms when execution starts, not at parse or queue time;
    // the per-request budget falls back to the server-wide default.
    let started = Instant::now();
    let timeout = timeout.or(shared.options.default_timeout);

    // Admission control: figure out what the request will cost in pool
    // workers and block until the global budget can cover it. Planning
    // is deliberately *not* gated — it is cheap, cached, and needed to
    // know the cost in the first place.
    let (mut opts, kind) = match budgeted(shared, stmt, opts) {
        Ok(resolved) => resolved,
        Err(e) => return reply(writer, shared, Err(e)).map(|()| true),
    };
    opts.deadline = timeout.map(|budget| started + budget);
    let permit = shared.budget.acquire(kind.worker_cost());

    let outcome = {
        let mut body = PrefixWriter::coalescing(
            writer,
            shared.options.flush_rows,
            shared.options.flush_bytes,
            &shared.metrics.flushes,
        );
        write_body(&mut body, stmt, &opts)
    };
    drop(permit); // the response is produced; free the workers before flushing OK
    let rows = match outcome.inspect(|o| absorb(&shared.metrics, o)) {
        Ok(o) if o.disconnected => return Ok(false),
        Ok(o) if o.deadline_exceeded => Err(EngineError::DeadlineExceeded),
        Ok(o) => Ok(o.rows),
        Err(e) => Err(e),
    };
    match rows {
        // The deadline passed — mid-stream, or on a materializing path
        // before any body byte: same terminator, same counter.
        Err(EngineError::DeadlineExceeded) => deadline_err(writer, shared, started)?,
        rows => reply(writer, shared, rows)?,
    }
    Ok(true)
}

/// Folds one completed (or cancelled) response body into the tallies.
fn absorb(metrics: &Metrics, outcome: &BodyOutcome) {
    let add = |tally: &AtomicU64, n: u64| tally.fetch_add(n, Ordering::Relaxed);
    add(&metrics.rows, outcome.rows as u64);
    add(&metrics.outputs, outcome.stats.outputs);
    add(&metrics.find_gap_calls, outcome.stats.find_gap_calls);
    add(&metrics.probe_points, outcome.stats.probe_points);
}

/// Terminates an expired response: bumps `deadlines` (deliberately not
/// `errors` — a deadline is a caller-requested cancellation, not a
/// fault) and writes the stable `ERR DEADLINE <elapsed>` control line.
fn deadline_err(
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
    started: Instant,
) -> io::Result<()> {
    shared.metrics.deadlines.fetch_add(1, Ordering::Relaxed);
    control(
        writer,
        &err_line(
            EngineError::DeadlineExceeded.code(),
            &format!(
                "deadline exceeded after {}ms",
                started.elapsed().as_millis()
            ),
        ),
    )
}

/// Executes one `W INSERT` / `W DELETE`: types the text cells against
/// the relation's declared schema (same rules as the TSV loader —
/// integer columns parse, string columns take the token verbatim), then
/// applies the row through the engine's write path. Returns how many
/// rows actually changed membership (0 or 1 — set semantics).
fn run_write(
    shared: &Shared,
    action: WriteAction,
    relation: &str,
    cells: Vec<String>,
) -> Result<usize, EngineError> {
    let engine = &shared.engine;
    let row = engine.type_cells(relation, cells)?;
    let outcome = match action {
        WriteAction::Insert => engine.insert(relation, [row])?,
        WriteAction::Delete => engine.delete(relation, [row])?,
    };
    let m = &shared.metrics;
    m.writes.fetch_add(1, Ordering::Relaxed);
    m.rows_inserted
        .fetch_add(outcome.inserted as u64, Ordering::Relaxed);
    m.rows_deleted
        .fetch_add(outcome.deleted as u64, Ordering::Relaxed);
    // Periodic checkpoint policy: a due checkpoint rides on the write
    // that made it due. A checkpoint failure is logged, not returned —
    // the write itself committed (and is in the WAL).
    if let Err(e) = engine.maybe_checkpoint() {
        eprintln!("msj serve: periodic checkpoint failed: {e}");
    }
    Ok(outcome.affected())
}

/// Writes one control line (`OK …` / `ERR …`) and flushes it out — along
/// with any body tail the coalescing writer left below its watermarks.
fn control(writer: &mut BufWriter<TcpStream>, line: &str) -> io::Result<()> {
    writeln!(writer, "{line}")?;
    writer.flush()
}

/// The one `ERR` reply path: counts the error, writes the control line.
fn reply_err(
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
    code: &str,
    message: &str,
) -> io::Result<()> {
    shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
    control(writer, &err_line(code, message))
}

/// Terminates a response: `OK <n>`, or the engine error under its stable
/// code (see [`EngineError::code`]).
fn reply(
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
    result: Result<usize, EngineError>,
) -> io::Result<()> {
    match result {
        Ok(n) => control(writer, &ok_line(n)),
        Err(e) => reply_err(writer, shared, e.code(), &e.to_string()),
    }
}

/// A newline reader over a non-blocking-ish socket: read timeouts are
/// polling opportunities for the shutdown flag, so idle connections
/// cannot hold up server shutdown.
struct LineReader {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl LineReader {
    fn new(stream: TcpStream) -> Self {
        LineReader {
            stream,
            pending: Vec::new(),
        }
    }

    /// The next request line (without its newline), `None` on EOF or
    /// server shutdown, `InvalidData` when a line exceeds [`MAX_LINE`].
    fn next_line(&mut self, shared: &Shared) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.pending.drain(..=pos).collect();
                line.pop();
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            if self.pending.len() > MAX_LINE {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("request line exceeds {MAX_LINE} bytes"),
                ));
            }
            if shared.shutting_down() {
                return Ok(None);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Frames a response body — [`BODY_PREFIX`] at the start of every line —
/// and coalesces flushes behind watermarks so large bodies amortize
/// syscalls instead of paying one `write`+flush per tuple.
///
/// Flush policy: the **first** completed line always flushes (first-row
/// latency under `limit=k` stays one flush, and a gone peer is noticed
/// at the head of the stream); after that, a flush fires whenever
/// `flush_rows` complete lines or `flush_bytes` bytes have accumulated
/// since the previous one. The residual below the watermarks is *not*
/// flushed here — it rides the control line's flush in [`control`],
/// which is also why the deterministic per-body flush count is
/// `1 + ⌊(lines−1)/flush_rows⌋` when the byte watermark never trips.
/// Each watermark flush is counted into the server's `flushes` metric.
struct PrefixWriter<'w, W: Write> {
    inner: &'w mut W,
    at_line_start: bool,
    /// Complete lines accumulated since the last flush.
    pending_lines: usize,
    /// Bytes (prefixes included) accumulated since the last flush.
    pending_bytes: usize,
    /// Complete lines over the writer's whole life (first-line flush).
    total_lines: usize,
    /// Line-count watermark (≥ 1).
    flush_rows: usize,
    /// Byte-count watermark.
    flush_bytes: usize,
    /// Server-wide flush counter, when this body's flushes are metered.
    flushes: Option<&'w AtomicU64>,
}

impl<'w, W: Write> PrefixWriter<'w, W> {
    /// A per-line-flushing writer for small fixed bodies (`STATS`,
    /// `explain`) where coalescing buys nothing.
    fn new(inner: &'w mut W) -> Self {
        Self::with(inner, 1, usize::MAX, None)
    }

    /// A watermark-flushing writer for query bodies; every flush it
    /// performs is counted into `flushes`.
    fn coalescing(
        inner: &'w mut W,
        flush_rows: usize,
        flush_bytes: usize,
        flushes: &'w AtomicU64,
    ) -> Self {
        Self::with(inner, flush_rows, flush_bytes, Some(flushes))
    }

    fn with(
        inner: &'w mut W,
        flush_rows: usize,
        flush_bytes: usize,
        flushes: Option<&'w AtomicU64>,
    ) -> Self {
        PrefixWriter {
            inner,
            at_line_start: true,
            pending_lines: 0,
            pending_bytes: 0,
            total_lines: 0,
            flush_rows: flush_rows.max(1),
            flush_bytes,
            flushes,
        }
    }

    fn flush_pending(&mut self) -> io::Result<()> {
        self.inner.flush()?;
        if let Some(counter) = self.flushes {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        self.pending_lines = 0;
        self.pending_bytes = 0;
        Ok(())
    }
}

impl<W: Write> Write for PrefixWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut rest = buf;
        while !rest.is_empty() {
            if self.at_line_start {
                let mut prefix = [0u8; 4];
                let encoded = BODY_PREFIX.encode_utf8(&mut prefix).as_bytes();
                self.inner.write_all(encoded)?;
                self.pending_bytes += encoded.len();
                self.at_line_start = false;
            }
            match rest.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    self.inner.write_all(&rest[..=pos])?;
                    self.pending_bytes += pos + 1;
                    self.pending_lines += 1;
                    self.total_lines += 1;
                    self.at_line_start = true;
                    if self.total_lines == 1
                        || self.pending_lines >= self.flush_rows
                        || self.pending_bytes >= self.flush_bytes
                    {
                        self.flush_pending()?;
                    }
                    rest = &rest[pos + 1..];
                }
                None => {
                    self.inner.write_all(rest)?;
                    self.pending_bytes += rest.len();
                    rest = &[];
                }
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_writer_frames_each_line_once() {
        let mut out = Vec::new();
        {
            let mut w = PrefixWriter::new(&mut out);
            // Multiple write calls per line, multiple lines per call —
            // exactly one prefix per physical line either way.
            write!(w, "# a").unwrap();
            writeln!(w, "\tb").unwrap();
            write!(w, "1\t2\nthree").unwrap();
            writeln!(w, "\tfour").unwrap();
        }
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "|# a\tb\n|1\t2\n|three\tfour\n"
        );
    }

    #[test]
    fn prefix_writer_leaves_empty_lines_framed() {
        let mut out = Vec::new();
        {
            let mut w = PrefixWriter::new(&mut out);
            writeln!(w).unwrap();
            writeln!(w, "x").unwrap();
        }
        assert_eq!(String::from_utf8(out).unwrap(), "|\n|x\n");
    }

    #[test]
    fn coalescing_writer_flushes_on_the_row_watermark() {
        let flushes = AtomicU64::new(0);
        let mut out = Vec::new();
        {
            let mut w = PrefixWriter::coalescing(&mut out, 4, usize::MAX, &flushes);
            for i in 0..10 {
                writeln!(w, "row {i}").unwrap();
            }
        }
        // Line 1 flushes immediately; lines 2–5 and 6–9 each fill the
        // 4-line watermark; line 10 stays pending for the control line:
        // 1 + ⌊(10−1)/4⌋ = 3.
        assert_eq!(flushes.load(Ordering::Relaxed), 3);
        // Framing is unchanged by coalescing.
        assert!(String::from_utf8(out)
            .unwrap()
            .starts_with("|row 0\n|row 1\n"));
    }

    #[test]
    fn coalescing_writer_flushes_on_the_byte_watermark() {
        let flushes = AtomicU64::new(0);
        let mut out = Vec::new();
        {
            // 16-byte watermark: "|xxxxxxxx\n" is 10 bytes, so every
            // second line trips it (first line flushes unconditionally).
            let mut w = PrefixWriter::coalescing(&mut out, usize::MAX, 16, &flushes);
            for _ in 0..6 {
                writeln!(w, "xxxxxxxx").unwrap();
            }
        }
        // Flush after line 1 (first line), then after lines 3 and 5
        // (two pending lines = 20 bytes ≥ 16); line 6 stays pending.
        assert_eq!(flushes.load(Ordering::Relaxed), 3);
    }
}
