//! The `msj serve` line protocol: requests, framing, error codes.
//!
//! Everything is newline-delimited UTF-8 over TCP — std-only, trivially
//! scriptable (`nc` works), and friendly to the streaming contract: one
//! request line in, a framed response out, repeat on the same
//! connection. The full grammar lives in `docs/SERVICE.md`; in short:
//!
//! ```text
//! request  := "Q" { SP option } [ SP "--" ] SP query-text
//!           | "PREPARE" SP name { SP option } [ SP "--" ] SP query-text
//!           | "EXEC" SP name { SP override }
//!           | "UNPREPARE" SP name
//!           | "W" SP ("INSERT" | "DELETE") SP relation { SP cell }
//!           | "W" SP "COMPACT" [ SP relation ]
//!           | "W" SP "CHECKPOINT"
//!           | "PING" | "STATS" | "QUIT"
//! option   := "algo=" NAME | "threads=" N | "limit=" K
//!           | "timeout=" MS | "explain" | "explain=json"
//! override := "limit=" K | "timeout=" MS | "threads=" N
//! ```
//!
//! `PREPARE` parses and plans a query once and stores it under `name`
//! on this connection; `EXEC name` runs it — skipping request parsing,
//! query parsing, and plan lookup — with optional per-execution
//! overrides; `UNPREPARE` drops it. `timeout=MS` arms a per-request
//! deadline: when it passes mid-stream the server cancels the remaining
//! work and terminates the response with `ERR DEADLINE` (partial body
//! lines may precede it — the one `ERR` that can follow body lines).
//!
//! A `W INSERT` / `W DELETE` carries one row of whitespace-separated
//! cells, typed by the relation's declared schema exactly like the TSV
//! loader (integer columns parse, string columns take the token
//! verbatim); the `OK <n>` terminator reports how many rows actually
//! changed membership (set semantics — 0 for a duplicate insert or a
//! missing delete). `W COMPACT` folds pending write deltas into fresh
//! immutable bases and reports how many relations were folded.
//! `W CHECKPOINT` forces a durability checkpoint (`OK <relations>`) on a
//! server running with `--data-dir`; without one it is a `STORAGE`
//! error — see `docs/DURABILITY.md`.
//!
//! A query response is the CLI's stdout **body** (see
//! [`crate::render`]), each line prefixed with `|`, terminated by one
//! `OK <rows>` control line; failures are a single `ERR <code>
//! <message>` line whose code comes from
//! [`crate::engine::EngineError::code`] (plus [`CODE_PROTO`] for
//! request-level violations). The prefix makes the framing
//! self-describing — a client strips one leading `|` per body line and
//! recovers the CLI's bytes exactly, and no tuple content can ever be
//! mistaken for a control line.

use std::time::Duration;

use crate::engine::ExecOptions;

/// Error code for malformed request lines (the engine never sees them).
pub const CODE_PROTO: &str = "PROTO";

/// The one-character prefix every response body line carries.
pub const BODY_PREFIX: char = '|';

/// How an `explain` option wants the plan rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainFormat {
    /// The human-readable multi-line rendering (`--explain`).
    Human,
    /// The structured single-line JSON form (`--explain-json`).
    Json,
}

/// Which membership change a `W` request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteAction {
    /// Add the row (no-op if already present).
    Insert,
    /// Remove the row (no-op if absent).
    Delete,
}

/// Per-execution overrides an `EXEC` line may carry on top of the
/// options its statement was `PREPARE`d with. `None` everywhere means
/// "run exactly as prepared".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOverrides {
    /// Overriding `limit=` row cap.
    pub limit: Option<usize>,
    /// Overriding `timeout=` deadline.
    pub timeout: Option<Duration>,
    /// Overriding `threads=` worker count.
    pub threads: Option<usize>,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute (or explain) a query with per-request options.
    Query {
        /// Engine options the option tokens mapped onto.
        opts: ExecOptions,
        /// Per-request deadline budget from `timeout=` (the session arms
        /// the clock when execution starts, not at parse time).
        timeout: Option<Duration>,
        /// `Some` when the request asks for the plan instead of rows.
        explain: Option<ExplainFormat>,
        /// The query text (everything after the options).
        text: String,
    },
    /// Parse and plan a query once, storing it on this connection under
    /// a name for later `EXEC`s; response `OK 0`.
    Prepare {
        /// The statement's name on this connection.
        name: String,
        /// Default engine options executions start from.
        opts: ExecOptions,
        /// Default `timeout=` budget for executions.
        timeout: Option<Duration>,
        /// The query text (kept so a stale statement can re-prepare).
        text: String,
    },
    /// Execute a statement this connection `PREPARE`d, with optional
    /// per-execution overrides; response is a normal query response.
    Exec {
        /// The statement to run.
        name: String,
        /// Per-execution option overrides.
        overrides: ExecOverrides,
    },
    /// Drop a prepared statement; response `OK 1` (dropped) or `OK 0`
    /// (no such name).
    Unprepare {
        /// The statement to drop.
        name: String,
    },
    /// Insert or delete one row of a stored relation; response
    /// `OK <changed>`.
    Write {
        /// Insert or delete.
        action: WriteAction,
        /// The target relation's name.
        relation: String,
        /// The row's cells, still text — the session types them against
        /// the relation's declared schema.
        cells: Vec<String>,
    },
    /// Fold pending write deltas into fresh bases (one relation, or all
    /// of them); response `OK <folded>`.
    Compact {
        /// `None` compacts every relation with pending writes.
        relation: Option<String>,
    },
    /// Force a durability checkpoint; response `OK <relations dumped>`
    /// (requires a `--data-dir` server).
    Checkpoint,
    /// Liveness probe; response `OK 0`.
    Ping,
    /// Server counters as a body of `name value` lines.
    Stats,
    /// Close the connection (after an `OK 0` acknowledgement).
    Quit,
}

/// Parses one request line (already stripped of its newline). Errors are
/// the human message for an `ERR PROTO` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim_end_matches('\r');
    let trimmed = line.trim_start();
    let (verb, rest) = match trimmed.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r),
        None => (trimmed, ""),
    };
    match verb {
        "PING" => expect_no_operand("PING", rest).map(|()| Request::Ping),
        "STATS" => expect_no_operand("STATS", rest).map(|()| Request::Stats),
        "QUIT" => expect_no_operand("QUIT", rest).map(|()| Request::Quit),
        "Q" => parse_query_request(rest),
        "PREPARE" => parse_prepare_request(rest),
        "EXEC" => parse_exec_request(rest),
        "UNPREPARE" => {
            let name = rest.trim();
            if name.is_empty() || name.split_whitespace().nth(1).is_some() {
                return Err("UNPREPARE takes exactly one statement name".to_string());
            }
            check_statement_name(name)?;
            Ok(Request::Unprepare {
                name: name.to_string(),
            })
        }
        "W" => parse_write_request(rest),
        "" => Err("empty request".to_string()),
        other => Err(format!(
            "unknown verb {other:?} (expected Q, PREPARE, EXEC, UNPREPARE, W, PING, STATS, or \
             QUIT)"
        )),
    }
}

fn expect_no_operand(verb: &str, rest: &str) -> Result<(), String> {
    if rest.trim().is_empty() {
        Ok(())
    } else {
        Err(format!("{verb} takes no operand"))
    }
}

/// Everything the shared option-token scanner extracts from a `Q` or
/// `PREPARE` operand.
struct QuerySpec {
    opts: ExecOptions,
    timeout: Option<Duration>,
    explain: Option<ExplainFormat>,
    text: String,
}

/// Parses the operand of a `Q` line: leading `key=value` / `explain`
/// option tokens, an optional `--` separator, then the query text
/// verbatim. The first token that is not a recognized option starts the
/// query, so relation names never collide with option syntax unless
/// they *are* option syntax — in which case `--` disambiguates.
fn parse_query_request(rest: &str) -> Result<Request, String> {
    let spec = parse_query_spec("Q", rest)?;
    Ok(Request::Query {
        opts: spec.opts,
        timeout: spec.timeout,
        explain: spec.explain,
        text: spec.text,
    })
}

/// Parses the operand of a `PREPARE` line: a statement name, then the
/// same option/query grammar as `Q` (minus `explain` — a prepared
/// statement is for executing).
fn parse_prepare_request(rest: &str) -> Result<Request, String> {
    let rest = rest.trim_start();
    let Some((name, spec_rest)) = rest.split_once(char::is_whitespace) else {
        return Err("PREPARE needs a name and a query, e.g. PREPARE hot -- R(a,b)".to_string());
    };
    check_statement_name(name)?;
    let spec = parse_query_spec("PREPARE", spec_rest)?;
    if spec.explain.is_some() {
        return Err("PREPARE does not take explain (EXEC runs the statement)".to_string());
    }
    Ok(Request::Prepare {
        name: name.to_string(),
        opts: spec.opts,
        timeout: spec.timeout,
        text: spec.text,
    })
}

/// Parses the operand of an `EXEC` line: a statement name, then
/// `key=value` override tokens only — there is no query text, which is
/// the point.
fn parse_exec_request(rest: &str) -> Result<Request, String> {
    let mut tokens = rest.split_whitespace();
    let Some(name) = tokens.next() else {
        return Err("EXEC needs a statement name".to_string());
    };
    check_statement_name(name)?;
    // Overrides are ordinary execution options applied to a blank slate;
    // what was set is what overrides.
    let mut opts = ExecOptions::default();
    let mut timeout = None;
    for token in tokens {
        let set = match token.split_once('=') {
            Some((key @ ("limit" | "timeout" | "threads"), v)) => {
                set_exec_option(key, v, &mut opts, &mut timeout)?
            }
            _ => false,
        };
        if !set {
            return Err(format!(
                "EXEC takes only limit=/timeout=/threads= overrides, got {token:?}"
            ));
        }
    }
    let overrides = ExecOverrides {
        limit: opts.limit,
        timeout,
        threads: (opts.threads > 0).then_some(opts.threads),
    };
    Ok(Request::Exec {
        name: name.to_string(),
        overrides,
    })
}

/// Statement names keep to identifier-ish characters so request lines
/// stay unambiguous to eyeball and to parse.
fn check_statement_name(name: &str) -> Result<(), String> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.');
    if ok {
        Ok(())
    } else {
        Err(format!(
            "statement name {name:?} must be [A-Za-z0-9_.-]+ (and non-empty)"
        ))
    }
}

/// Sets one execution option from its text value — the one owner of
/// the `algo` / `threads` / `limit` / `timeout` grammar, shared by the
/// `Q`, `PREPARE` and `EXEC` option tokens and the CLI's `--algo`,
/// `--threads`, `--limit` flags. `Ok(false)` when `key` names no
/// execution option; `Err` is the message for a malformed value.
///
/// * `threads=N` — any explicit thread request, `0` included, selects
///   the parallel engine with at least one worker;
/// * `timeout=MS` — whole milliseconds; `0` is legal and means "already
///   expired", useful for deterministic cancellation tests.
pub fn set_exec_option(
    key: &str,
    value: &str,
    opts: &mut ExecOptions,
    timeout: &mut Option<Duration>,
) -> Result<bool, String> {
    let count = || {
        let n = value.parse::<usize>();
        n.map_err(|_| format!("{key}= expects a count, got {value:?}"))
    };
    match key {
        "algo" => opts.algo = Some(value.to_string()),
        "threads" => opts.threads = count()?.max(1),
        "limit" => opts.limit = Some(count()?),
        "timeout" => {
            let ms = value
                .parse()
                .map_err(|_| format!("timeout= expects whole milliseconds, got {value:?}"))?;
            *timeout = Some(Duration::from_millis(ms));
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_query_spec(verb: &str, mut rest: &str) -> Result<QuerySpec, String> {
    let mut opts = ExecOptions::default();
    let mut timeout = None;
    let mut explain = None;
    loop {
        rest = rest.trim_start();
        let token = rest.split_whitespace().next().unwrap_or("");
        let consumed = match token {
            "--" => {
                rest = &rest[token.len()..];
                break;
            }
            "explain" => {
                explain = Some(ExplainFormat::Human);
                true
            }
            "explain=json" => {
                explain = Some(ExplainFormat::Json);
                true
            }
            _ => match token.split_once('=') {
                Some(("explain", v)) => {
                    return Err(format!("explain takes no value except json, got {v:?}"))
                }
                // `algo=` with no name is not an option: it starts the query.
                Some(("algo", "")) | None => false,
                Some((key, v)) => set_exec_option(key, v, &mut opts, &mut timeout)?,
            },
        };
        if !consumed {
            break;
        }
        rest = &rest[token.len()..];
    }
    let text = rest.trim();
    if text.is_empty() {
        return Err(format!(
            "{verb} needs a query, e.g. {verb}{} limit=10 R(a,b), S(b,c)",
            if verb == "PREPARE" { " hot" } else { "" }
        ));
    }
    Ok(QuerySpec {
        opts,
        timeout,
        explain,
        text: text.to_string(),
    })
}

/// Parses the operand of a `W` line: an action keyword, then the target
/// relation, then (for row writes) the row's cells as bare tokens. Cell
/// *typing* is the session's job — the protocol layer has no schema.
fn parse_write_request(rest: &str) -> Result<Request, String> {
    let mut tokens = rest.split_whitespace();
    let action = tokens.next().unwrap_or("");
    match action {
        "INSERT" | "DELETE" => {
            let Some(relation) = tokens.next() else {
                return Err(format!("W {action} needs a relation name"));
            };
            let cells: Vec<String> = tokens.map(str::to_string).collect();
            if cells.is_empty() {
                return Err(format!(
                    "W {action} {relation} needs a row, e.g. W {action} {relation} 1 2"
                ));
            }
            Ok(Request::Write {
                action: if action == "INSERT" {
                    WriteAction::Insert
                } else {
                    WriteAction::Delete
                },
                relation: relation.to_string(),
                cells,
            })
        }
        "COMPACT" => {
            let relation = tokens.next().map(str::to_string);
            if tokens.next().is_some() {
                return Err("W COMPACT takes at most one relation".to_string());
            }
            Ok(Request::Compact { relation })
        }
        "CHECKPOINT" => {
            if tokens.next().is_some() {
                return Err("W CHECKPOINT takes no operand".to_string());
            }
            Ok(Request::Checkpoint)
        }
        "" => Err("W needs an action (INSERT, DELETE, COMPACT, or CHECKPOINT)".to_string()),
        other => Err(format!(
            "unknown write action {other:?} (expected INSERT, DELETE, COMPACT, or CHECKPOINT)"
        )),
    }
}

/// Renders the `OK` terminator for a body of `rows` data rows.
pub fn ok_line(rows: usize) -> String {
    format!("OK {rows}")
}

/// Renders an `ERR` line; the message is flattened to one line.
pub fn err_line(code: &str, message: &str) -> String {
    format!("ERR {code} {}", message.replace('\n', "; "))
}

/// Classifies one raw response line (the client side of the framing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseLine {
    /// A body line, already stripped of its [`BODY_PREFIX`].
    Body(String),
    /// The success terminator with its data-row count.
    Ok(u64),
    /// A failure terminator: `(code, message)`.
    Err(String, String),
}

/// Parses one response line. `None` for lines that violate the framing
/// (a server this client should stop trusting).
pub fn parse_response_line(line: &str) -> Option<ResponseLine> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    if let Some(body) = line.strip_prefix(BODY_PREFIX) {
        return Some(ResponseLine::Body(body.to_string()));
    }
    if let Some(rest) = line.strip_prefix("OK ") {
        return rest.trim().parse().ok().map(ResponseLine::Ok);
    }
    if let Some(rest) = line.strip_prefix("ERR ") {
        let (code, msg) = rest.split_once(' ').unwrap_or((rest, ""));
        return Some(ResponseLine::Err(code.to_string(), msg.to_string()));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse() {
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
        assert_eq!(parse_request("STATS\r"), Ok(Request::Stats));
        assert_eq!(parse_request("QUIT"), Ok(Request::Quit));
        assert!(parse_request("PING now").is_err());
        assert!(parse_request("").is_err());
        assert!(parse_request("HELLO").unwrap_err().contains("unknown verb"));
    }

    #[test]
    fn query_options_map_onto_exec_options() {
        let Request::Query {
            opts,
            timeout,
            explain,
            text,
        } = parse_request("Q algo=leapfrog threads=3 limit=7 timeout=250 R(a,b), S(b,c)").unwrap()
        else {
            panic!("expected a query");
        };
        assert_eq!(opts.algo.as_deref(), Some("leapfrog"));
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.limit, Some(7));
        assert_eq!(timeout, Some(Duration::from_millis(250)));
        assert_eq!(explain, None);
        assert_eq!(text, "R(a,b), S(b,c)");
        // Without timeout= there is no deadline budget at all.
        let Request::Query { timeout, .. } = parse_request("Q R(a,b)").unwrap() else {
            panic!()
        };
        assert_eq!(timeout, None);
    }

    #[test]
    fn prepare_exec_unprepare_parse() {
        let Request::Prepare {
            name,
            opts,
            timeout,
            text,
        } = parse_request("PREPARE hot algo=leapfrog timeout=50 -- R(a,b), S(b,c)").unwrap()
        else {
            panic!("expected PREPARE");
        };
        assert_eq!(name, "hot");
        assert_eq!(opts.algo.as_deref(), Some("leapfrog"));
        assert_eq!(timeout, Some(Duration::from_millis(50)));
        assert_eq!(text, "R(a,b), S(b,c)");

        let Request::Exec { name, overrides } =
            parse_request("EXEC hot limit=5 timeout=100 threads=2").unwrap()
        else {
            panic!("expected EXEC");
        };
        assert_eq!(name, "hot");
        assert_eq!(overrides.limit, Some(5));
        assert_eq!(overrides.timeout, Some(Duration::from_millis(100)));
        assert_eq!(overrides.threads, Some(2));

        assert_eq!(
            parse_request("EXEC hot"),
            Ok(Request::Exec {
                name: "hot".to_string(),
                overrides: ExecOverrides::default(),
            })
        );
        assert_eq!(
            parse_request("UNPREPARE hot"),
            Ok(Request::Unprepare {
                name: "hot".to_string()
            })
        );
    }

    #[test]
    fn malformed_prepared_statement_requests_are_proto_errors() {
        assert!(parse_request("PREPARE").is_err(), "name + query required");
        assert!(parse_request("PREPARE hot").is_err(), "query required");
        assert!(parse_request("PREPARE h@t -- R(x)").is_err(), "bad name");
        assert!(
            parse_request("PREPARE hot explain R(x)").is_err(),
            "explain is for Q"
        );
        assert!(parse_request("EXEC").is_err(), "name required");
        assert!(parse_request("EXEC hot R(x)").is_err(), "no query text");
        assert!(
            parse_request("EXEC hot algo=naive").is_err(),
            "no algo override"
        );
        assert!(parse_request("UNPREPARE").is_err(), "name required");
        assert!(parse_request("UNPREPARE a b").is_err(), "one name only");
        assert!(parse_request("Q timeout=soon R(x)").is_err(), "ms required");
    }

    #[test]
    fn explain_and_separator() {
        let Request::Query { explain, text, .. } =
            parse_request("Q explain=json -- R(x, y)").unwrap()
        else {
            panic!("expected a query");
        };
        assert_eq!(explain, Some(ExplainFormat::Json));
        assert_eq!(text, "R(x, y)");
        let Request::Query { text, .. } = parse_request("Q explain R(x)").unwrap() else {
            panic!()
        };
        assert_eq!(text, "R(x)");
    }

    #[test]
    fn threads_zero_selects_one_worker_like_the_cli() {
        let Request::Query { opts, .. } = parse_request("Q threads=0 R(x)").unwrap() else {
            panic!()
        };
        assert_eq!(opts.threads, 1);
    }

    #[test]
    fn malformed_options_are_proto_errors() {
        assert!(parse_request("Q threads=lots R(x)").is_err());
        assert!(parse_request("Q limit=-3 R(x)").is_err());
        assert!(parse_request("Q explain=yaml R(x)").is_err());
        assert!(parse_request("Q").is_err(), "query text required");
        assert!(parse_request("Q limit=3").is_err(), "options alone too");
    }

    #[test]
    fn unrecognized_token_starts_the_query() {
        let Request::Query { opts, text, .. } = parse_request("Q weird=thing R(x)").unwrap() else {
            panic!()
        };
        assert!(opts.algo.is_none());
        assert_eq!(text, "weird=thing R(x)", "not an option, so query text");
    }

    #[test]
    fn write_requests_parse() {
        assert_eq!(
            parse_request("W INSERT F jfk sfo"),
            Ok(Request::Write {
                action: WriteAction::Insert,
                relation: "F".to_string(),
                cells: vec!["jfk".to_string(), "sfo".to_string()],
            })
        );
        assert_eq!(
            parse_request("W DELETE R 1 2\r"),
            Ok(Request::Write {
                action: WriteAction::Delete,
                relation: "R".to_string(),
                cells: vec!["1".to_string(), "2".to_string()],
            })
        );
        assert_eq!(
            parse_request("W COMPACT"),
            Ok(Request::Compact { relation: None })
        );
        assert_eq!(
            parse_request("W COMPACT R"),
            Ok(Request::Compact {
                relation: Some("R".to_string())
            })
        );
        assert_eq!(parse_request("W CHECKPOINT"), Ok(Request::Checkpoint));
    }

    #[test]
    fn malformed_writes_are_proto_errors() {
        assert!(parse_request("W").is_err(), "action required");
        assert!(parse_request("W UPSERT R 1").is_err(), "unknown action");
        assert!(parse_request("W INSERT").is_err(), "relation required");
        assert!(parse_request("W INSERT R").is_err(), "row required");
        assert!(parse_request("W COMPACT R S").is_err(), "one relation max");
        assert!(parse_request("W CHECKPOINT now").is_err(), "no operand");
    }

    #[test]
    fn response_lines_round_trip() {
        assert_eq!(
            parse_response_line(&ok_line(42)),
            Some(ResponseLine::Ok(42))
        );
        assert_eq!(
            parse_response_line(&err_line("PARSE", "bad\nquery")),
            Some(ResponseLine::Err(
                "PARSE".to_string(),
                "bad; query".to_string()
            ))
        );
        assert_eq!(
            parse_response_line("|1\t2\t3"),
            Some(ResponseLine::Body("1\t2\t3".to_string()))
        );
        assert_eq!(parse_response_line("gibberish"), None);
    }
}
