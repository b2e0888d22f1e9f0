//! The one place query results become bytes.
//!
//! Both front doors — the `msj` CLI printing to stdout and the `msj
//! serve` TCP service streaming to a socket (see [`crate::server`]) —
//! emit the *same* textual result shape: a `# col…` header line,
//! tab-separated data rows, and a truncation marker when a `limit` cut
//! the result. The service's acceptance contract is that its response
//! body is **byte-identical** to the CLI's stdout for the same query and
//! options; rather than asserting that equivalence across two
//! implementations, this module is the single implementation both call.
//!
//! [`write_body`] is one loop over the statement's stream — header, rows,
//! marker, final accounting — whatever evaluator and worker count the
//! options select:
//!
//! * **no limit** — the stream is materialized first, so rows go out
//!   sorted in the query's attribute order (identical bytes for every
//!   evaluator and thread count) and an expired deadline is an error
//!   before the first byte;
//! * **`limit k`** — the live stream's first `k` rows in global attribute
//!   order (the parallel engine's merge yields the same prefix and then
//!   **cancels** the remaining shard work), the suffix's probe work never
//!   paid.
//!
//! The one evaluator-dependent thing is the wording of the truncation
//! marker: `# … output truncated at k` from the Minesweeper engines, which
//! stop at the limit and know only that more existed, and `# … N more`
//! from a registry baseline, which ran to completion and knows the exact
//! remainder.
//!
//! Writes are checked: the first failed write stops the body, the open
//! stream is dropped — which *cancels* queued and in-flight shard work —
//! and the outcome carries the error in [`BodyOutcome::write_error`]
//! instead of returning it. The caller decides what it means:
//! [`is_disconnect`] tells a consumer that went away (a closed pipe, a
//! disconnected client: stop quietly) from a real failure (a full disk
//! behind stdout: report it).

use std::io::{self, Write};

use minesweeper_baselines::lookup;
use minesweeper_core::{json_string, ShardStats};
use minesweeper_storage::ExecStats;

use crate::engine::catalog::cell_texts;
use crate::engine::{DispatchKind, EngineError, ExecOptions, PreparedStatement, Remainder};

/// What [`write_body`] did: how many data rows went out, whether a write
/// failed mid-stream (the body is then a prefix), and the execution
/// counters for the work actually performed.
#[derive(Debug)]
pub struct BodyOutcome {
    /// Data rows written (header and marker lines not counted).
    pub rows: usize,
    /// The first failed write, after which nothing more was written and
    /// any remaining stream work was cancelled. [`is_disconnect`] says
    /// whether it means "the consumer is gone".
    pub write_error: Option<io::Error>,
    /// Counters for the work performed (the shown prefix under a limit).
    pub stats: ExecStats,
    /// Per-shard counters, when the parallel engine ran.
    pub shards: Option<Vec<ShardStats>>,
    /// True when the request's deadline ([`ExecOptions::deadline`])
    /// passed mid-stream: the body is a prefix, the remaining work was
    /// cancelled server-side, and the caller owes the consumer an
    /// `ERR DEADLINE` terminator instead of `OK`. Unlimited requests
    /// never set this — they surface expiry as
    /// [`EngineError::DeadlineExceeded`] before any byte is written.
    pub deadline_exceeded: bool,
}

/// Writes the full result body for `stmt` under `opts` (see the module
/// docs). Execution errors are returned; write errors are reported in
/// the outcome.
pub fn write_body(
    out: &mut impl Write,
    stmt: &PreparedStatement,
    opts: &ExecOptions,
) -> Result<BodyOutcome, EngineError> {
    let mut stream = stmt.open(opts, opts.limit.is_none())?;
    let mut w = CheckedWriter::new(out);
    w.line(format_args!("# {}", stmt.columns().join("\t")));
    while w.error.is_none() {
        let Some(row) = stream.next() else { break };
        w.data_line(format_args!("{}", cell_texts(&row).join("\t")));
    }
    // A deadline that passed mid-stream ends the body here: no truncation
    // marker (the body is not a truthful `limit` cut), just a prefix the
    // session terminates with `ERR DEADLINE`.
    let deadline_exceeded = stream.deadline_expired();
    if w.error.is_none() && !deadline_exceeded {
        let shown = w.rows;
        match stream.remainder() {
            Remainder::None => {}
            Remainder::Exactly(n) => w.line(format_args!("# … {n} more")),
            Remainder::AtLeastOne => w.line(format_args!("# … output truncated at {shown}")),
        }
    }
    // Ends the run (cancelling and joining any shard workers still
    // outstanding — the write-error and deadline paths), so the counters
    // are final: the work actually performed, the truncation probe
    // excluded.
    let (stats, shards) = stream.finish();
    Ok(BodyOutcome {
        rows: w.rows,
        write_error: w.error,
        stats,
        shards,
        deadline_exceeded,
    })
}

/// Writes the explain output for `stmt` under `opts` — the `--explain`
/// / `--explain-json` stdout shape, shared by the CLI and the service's
/// `explain` request option. Returns the first failed write, if any (see
/// [`BodyOutcome::write_error`]).
pub fn write_explain(
    out: &mut impl Write,
    stmt: &PreparedStatement,
    opts: &ExecOptions,
    json: bool,
) -> Result<Option<io::Error>, EngineError> {
    let mut w = CheckedWriter::new(out);
    if let DispatchKind::Baseline(name) = stmt.dispatch_kind(opts)? {
        // Baselines have no Minesweeper plan: say so rather than
        // mislabelling the planner's GAO/bound as the baseline's.
        let a = lookup(&name).expect("canonical baseline name resolves");
        if json {
            w.line(format_args!(
                "{{\"algorithm\":{},\"description\":{},\"plan\":null}}",
                json_string(a.name()),
                json_string(a.description())
            ));
        } else {
            w.line(format_args!(
                "algorithm: {} — {}",
                a.name(),
                a.description()
            ));
            w.line(format_args!(
                "(no Minesweeper plan applies; GAO/probe-mode planning is \
                 specific to the default engine)"
            ));
        }
        return Ok(w.error);
    }
    let ep = stmt.explain(opts)?;
    if json {
        w.line(format_args!("{}", ep.to_json()));
    } else {
        w.line(format_args!("{}", ep.render()));
    }
    Ok(w.error)
}

/// A line writer that records the first failed write instead of
/// propagating it: after it every further write is skipped, and the
/// caller reads `error` to stop.
struct CheckedWriter<'w, W: Write> {
    out: &'w mut W,
    rows: usize,
    error: Option<io::Error>,
}

impl<'w, W: Write> CheckedWriter<'w, W> {
    fn new(out: &'w mut W) -> Self {
        CheckedWriter {
            out,
            rows: 0,
            error: None,
        }
    }

    /// Writes one non-data line (header, marker).
    fn line(&mut self, line: std::fmt::Arguments<'_>) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
    }

    /// Writes one data row, counting it when it went out.
    fn data_line(&mut self, line: std::fmt::Arguments<'_>) {
        self.line(line);
        self.rows += usize::from(self.error.is_none());
    }
}

/// Convenience used by tests and the load generator: the body bytes for
/// `stmt` under `opts`, exactly as the CLI would print them.
pub fn body_string(stmt: &PreparedStatement, opts: &ExecOptions) -> Result<String, EngineError> {
    let mut buf = Vec::new();
    let outcome = write_body(&mut buf, stmt, opts)?;
    debug_assert!(outcome.write_error.is_none(), "Vec writes cannot fail");
    Ok(String::from_utf8(buf).expect("result bodies are UTF-8"))
}

/// The io-error kinds that mean "the consumer went away" on a socket or
/// pipe: the CLI stops quietly on these and reports any other write
/// error. (The server ends the session on every socket error.)
pub fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use minesweeper_storage::{ColumnType, Value};

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.add_relation(
            "F",
            &[ColumnType::Str, ColumnType::Str],
            [
                vec![Value::from("jfk"), Value::from("lhr")],
                vec![Value::from("lhr"), Value::from("nrt")],
                vec![Value::from("sfo"), Value::from("jfk")],
            ],
        )
        .unwrap();
        e
    }

    #[test]
    fn serial_and_parallel_bodies_are_identical() {
        let e = engine();
        let stmt = e.prepare("F(a, b), F(b, c)").unwrap();
        let serial = body_string(&stmt, &ExecOptions::default()).unwrap();
        let par = body_string(&stmt, &ExecOptions::default().with_threads(3)).unwrap();
        assert_eq!(serial, par);
        assert!(serial.starts_with("# a\tb\tc\n"), "{serial}");
    }

    #[test]
    fn limit_bodies_match_and_mark_truncation() {
        let e = engine();
        let stmt = e.prepare("F(a, b)").unwrap();
        let serial = body_string(&stmt, &ExecOptions::default().with_limit(2)).unwrap();
        let par =
            body_string(&stmt, &ExecOptions::default().with_limit(2).with_threads(2)).unwrap();
        assert_eq!(serial, par);
        assert!(serial.contains("# … output truncated at 2"), "{serial}");
    }

    #[test]
    fn baseline_body_marks_remainder() {
        let e = engine();
        let stmt = e.prepare("F(a, b)").unwrap();
        let opts = ExecOptions::default().with_algo("naive").with_limit(1);
        let body = body_string(&stmt, &opts).unwrap();
        assert!(body.contains("# … 2 more"), "{body}");
    }

    #[test]
    fn disconnect_is_reported_not_fatal() {
        /// A writer that fails with `kind` after `n` successful writes.
        struct Flaky(usize, io::ErrorKind);
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::new(self.1, "gone"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let e = engine();
        let stmt = e.prepare("F(a, b)").unwrap();
        // A closed pipe and a full disk both stop the body; only the
        // first is a disconnect.
        for (kind, disconnect) in [
            (io::ErrorKind::BrokenPipe, true),
            (io::ErrorKind::StorageFull, false),
        ] {
            let mut out = Flaky(2, kind);
            let outcome = write_body(&mut out, &stmt, &ExecOptions::default()).unwrap();
            let err = outcome.write_error.expect("the failed write is reported");
            assert_eq!(err.kind(), kind);
            assert_eq!(is_disconnect(&err), disconnect, "{kind:?}");
            assert!(outcome.rows < 3, "a prefix at most: {}", outcome.rows);
        }
    }
}
