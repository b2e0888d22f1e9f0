//! `msj serve` — the concurrent query service front door.
//!
//! A std-only TCP line-protocol server over the engine: one process owns
//! one [`Engine`] (database + plan/re-index caches) behind an [`Arc`],
//! and any number of concurrent client connections execute queries
//! against it. The subsystem splits into:
//!
//! * [`protocol`] — the request grammar and response framing (and the
//!   client-side classifier for it);
//! * `session` (private) — the per-connection loop: parse, admit,
//!   execute, stream, and the disconnect-triggers-cancellation path;
//! * [`admission`] — the global [`WorkerBudget`] semaphore bounding the
//!   total pool workers in flight across all connections;
//! * [`client`] — a small blocking client used by `msj client` and the
//!   integration tests.
//!
//! The service's contract, tested end to end in `tests/server.rs`:
//!
//! 1. **Byte identity** — a response body, `|` prefixes stripped, is
//!    byte-identical to the `msj` CLI's stdout for the same query and
//!    options (both call [`crate::render`]).
//! 2. **Admission** — with budget `B`, the peak sum of declared worker
//!    costs in flight never exceeds `B`; excess requests queue and all
//!    eventually complete.
//! 3. **Cancellation** — a client that disconnects mid-stream stops its
//!    query: the tuple stream is dropped, shard workers are cancelled,
//!    and the work counters stop advancing.

pub mod admission;
pub mod client;
pub mod protocol;
mod session;

pub use admission::{Permit, WorkerBudget};
pub use client::{Client, Reply};
pub use protocol::{ExplainFormat, Request, ResponseLine, WriteAction};

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::engine::Engine;

/// The default worker budget when `--budget` is not given: one worker
/// per logical CPU, the same capacity one all-cores parallel query uses.
pub fn default_budget() -> usize {
    thread::available_parallelism().map_or(4, |n| n.get())
}

/// Default body-flush watermark in buffered lines (`--flush-rows`).
pub const DEFAULT_FLUSH_ROWS: usize = 128;

/// Default body-flush watermark in buffered bytes (`--flush-bytes`).
pub const DEFAULT_FLUSH_BYTES: usize = 32 * 1024;

/// Service configuration beyond the bind address (the `serve` flags;
/// see `docs/OPERATIONS.md` for the operator view of each knob).
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Global admission budget in pool workers (`--budget`).
    pub budget: usize,
    /// Deadline budget applied to every query request that does not
    /// carry its own `timeout=` (`--default-timeout`); `None` leaves
    /// such requests untimed.
    pub default_timeout: Option<Duration>,
    /// Coalescing writer watermark: flush the response body once this
    /// many lines are buffered (`--flush-rows`). The first body line of
    /// a response always flushes immediately, whatever the watermarks
    /// say, so `limit=k` first-row latency stays one flush.
    pub flush_rows: usize,
    /// Coalescing writer watermark: flush once this many bytes are
    /// buffered (`--flush-bytes`), whichever watermark trips first.
    pub flush_bytes: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            budget: default_budget(),
            default_timeout: None,
            flush_rows: DEFAULT_FLUSH_ROWS,
            flush_bytes: DEFAULT_FLUSH_BYTES,
        }
    }
}

/// State shared by the accept loop and every session thread.
pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) budget: WorkerBudget,
    pub(crate) metrics: Metrics,
    pub(crate) options: ServerOptions,
    shutdown: AtomicBool,
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// The one table of service counters. Each entry is a field of
/// [`ServerStats`] and — in this order — a `name value` line of the
/// `STATS` body: `name;` is a tally (a relaxed `AtomicU64` in [`Metrics`]
/// that sessions bump), `name = expr;` a gauge read from its source of
/// truth when [`Shared::stats`] takes a snapshot. Adding a counter is
/// adding one entry here (and its row in `docs/SERVICE.md`, which
/// `ci/check_docs.sh` diffs against this table).
macro_rules! counters {
    (|$shared:ident| { $($prelude:tt)* }
     $( $(#[$doc:meta])* $name:ident $(= $gauge:expr)?; )*) => {
        /// A public snapshot of the server's counters — what `STATS` reports and
        /// what the tests assert against.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServerStats {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl ServerStats {
            /// The counters as `(name, value)` pairs — the `STATS` body, one
            /// `name value` line each, in this order.
            pub fn fields(&self) -> [(&'static str, u64); [$(stringify!($name)),*].len()] {
                [$( (stringify!($name), self.$name), )*]
            }

            /// Parses a `STATS` response body (the inverse of [`fields`]).
            ///
            /// [`fields`]: ServerStats::fields
            pub fn parse_body(body: &str) -> Option<ServerStats> {
                let mut stats = ServerStats::default();
                for line in body.lines() {
                    let (name, value) = line.split_once(' ')?;
                    let value: u64 = value.parse().ok()?;
                    match name {
                        $( stringify!($name) => stats.$name = value, )*
                        _ => return None,
                    }
                }
                Some(stats)
            }
        }

        impl Shared {
            /// A coherent-enough snapshot of the service counters (each counter
            /// is individually consistent; the set is not a transaction).
            pub(crate) fn stats(&self) -> ServerStats {
                let $shared = self;
                $($prelude)*
                ServerStats {
                    $( $name: counters!(@read $shared $name $(= $gauge)?), )*
                }
            }
        }

        counters!(@tallies [] $( $name $(= $gauge)?; )*);
    };
    (@read $shared:ident $name:ident) => {
        $shared.metrics.$name.load(Ordering::Relaxed)
    };
    (@read $shared:ident $name:ident = $gauge:expr) => {
        $gauge
    };
    (@tallies [$($tally:ident)*]) => {
        /// Whole-process service tallies. Relaxed atomics: these are
        /// monotonic counts, not synchronization.
        #[derive(Default)]
        pub(crate) struct Metrics {
            $( pub(crate) $tally: AtomicU64, )*
        }
    };
    (@tallies [$($tally:ident)*] $name:ident; $($rest:tt)*) => {
        counters!(@tallies [$($tally)* $name] $($rest)*);
    };
    (@tallies [$($tally:ident)*] $name:ident = $gauge:expr; $($rest:tt)*) => {
        counters!(@tallies [$($tally)*] $($rest)*);
    };
}

counters! {
    |s| {
        let (in_flight, peak) = s.budget.in_flight_and_peak();
        // Durability numbers come from the engine's store: the
        // WAL/checkpoint machinery is the source of truth and also counts
        // recovery-time work no session ever saw.
        let wal = s.engine.durability_stats().unwrap_or_default();
    }
    /// Connections accepted since start.
    connections;
    /// Connections currently open.
    active;
    /// Query requests received (well-formed `Q` lines).
    requests;
    /// Requests answered with an `ERR` line (protocol or engine).
    errors;
    /// Data rows streamed to clients.
    rows;
    /// Bodies cut short by a client disconnect (work was cancelled).
    disconnects;
    /// Engine output tuples produced across all requests.
    outputs;
    /// Engine `FindGap` calls across all requests (≈ certificate work).
    find_gap_calls;
    /// Engine probe points across all requests.
    probe_points;
    /// Write requests executed (`W INSERT` / `W DELETE` that reached the
    /// engine, whether or not they changed anything).
    writes;
    /// Rows that actually joined a relation (set semantics — duplicate
    /// inserts don't count).
    rows_inserted;
    /// Rows that actually left a relation (missing deletes don't count).
    rows_deleted;
    /// Write deltas folded into fresh bases by `W COMPACT`.
    compactions;
    /// Sum of every relation's version counter — a monotone data-version
    /// clock (equal clocks ⇒ identical logical data).
    data_version = s.engine.db().versions().iter().map(|&(_, v)| v).sum();
    /// The configured admission budget.
    budget = s.budget.budget() as u64;
    /// Worker permits currently held.
    in_flight = in_flight as u64;
    /// High-water mark of held permits (never exceeds `budget`).
    peak_in_flight = peak as u64;
    /// Requests admitted through the budget.
    admitted = s.budget.admitted();
    /// Requests that queued before admission.
    waited = s.budget.waited();
    /// WAL records appended since open (0 without `--data-dir`).
    wal_records = wal.wal_records;
    /// WAL bytes appended since open.
    wal_bytes = wal.wal_bytes;
    /// Durability checkpoints committed since open.
    checkpoints = wal.checkpoints;
    /// 1 when this process recovered its data directory on boot.
    recoveries = wal.recoveries;
    /// WAL tail records replayed during that recovery.
    replayed_records = wal.replayed_records;
    /// `PREPARE` requests that stored a statement.
    prepared;
    /// `EXEC` requests served from a connection's prepared-statement map
    /// (whether or not a staleness re-prepare was needed first).
    exec_hits;
    /// Query responses terminated by `ERR DEADLINE` — work the server
    /// cancelled itself when a request's deadline passed. Deliberately
    /// *not* counted in `errors`: like a disconnect, a deadline is a
    /// caller-requested cancellation, not a failed request.
    deadlines;
    /// Coalesced response-body flushes (socket pushes) across all
    /// sessions. With per-line flushing this would equal body lines;
    /// the gap between the two is the batching win.
    flushes;
    /// Query texts parsed by the engine since start (`Q` and `PREPARE`
    /// parse; `EXEC` does not — flat `query_parses` across `EXEC`s is
    /// the prepared-statement fast path working). Counted inside
    /// `Engine::prepare`, so it includes embedded use.
    query_parses = s.engine.query_parses();
}

/// A running query service: a bound listener, its accept thread, and the
/// session threads it spawned. Dropping the handle shuts the service
/// down (idempotently; [`Server::shutdown`] does it with error
/// reporting).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 to let the OS pick — the effective
    /// address is [`Server::addr`]) and starts accepting connections
    /// against `engine`, with a global admission budget of `budget`
    /// workers and every other knob at its default.
    pub fn start(engine: Arc<Engine>, addr: &str, budget: usize) -> io::Result<Server> {
        Self::start_with(
            engine,
            addr,
            ServerOptions {
                budget,
                ..ServerOptions::default()
            },
        )
    }

    /// [`Server::start`] with the full configuration surface: admission
    /// budget, server-wide default timeout, and body-flush watermarks.
    pub fn start_with(
        engine: Arc<Engine>,
        addr: &str,
        options: ServerOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            budget: WorkerBudget::new(options.budget),
            metrics: Metrics::default(),
            options,
            shutdown: AtomicBool::new(false),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("msj-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The address the service is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the service counters (the same numbers `STATS`
    /// reports over the wire).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Stops accepting, wakes every session (they poll the shutdown flag
    /// between reads), and joins all service threads.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> io::Result<()> {
        let Some(accept) = self.accept.take() else {
            return Ok(());
        };
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // The accept loop blocks in `accept(2)`; a throwaway self-connect
        // wakes it so it can observe the flag.
        drop(TcpStream::connect(self.addr));
        accept
            .join()
            .map_err(|_| io::Error::other("accept thread panicked"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// Accepts connections until shutdown, then joins every session thread
/// (sessions notice the flag within one read-poll interval).
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let handle = thread::Builder::new()
            .name("msj-session".to_string())
            .spawn(move || session::run(stream, &shared));
        match handle {
            Ok(h) => sessions.push(h),
            Err(_) => continue, // spawn failure: drop the connection
        }
    }
    for h in sessions {
        let _ = h.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_body_round_trips() {
        let stats = ServerStats {
            connections: 3,
            active: 1,
            requests: 17,
            errors: 2,
            rows: 420,
            disconnects: 1,
            outputs: 999,
            find_gap_calls: 1234,
            probe_points: 777,
            writes: 21,
            rows_inserted: 13,
            rows_deleted: 6,
            compactions: 2,
            data_version: 19,
            budget: 8,
            in_flight: 2,
            peak_in_flight: 8,
            admitted: 16,
            waited: 5,
            wal_records: 40,
            wal_bytes: 2048,
            checkpoints: 3,
            recoveries: 1,
            replayed_records: 7,
            prepared: 4,
            exec_hits: 29,
            deadlines: 3,
            flushes: 55,
            query_parses: 11,
        };
        let body: String = stats
            .fields()
            .iter()
            .map(|(n, v)| format!("{n} {v}\n"))
            .collect();
        assert_eq!(ServerStats::parse_body(&body), Some(stats));
        assert_eq!(ServerStats::parse_body("nonsense line"), None);
    }

    /// The `STATS` body is a wire contract: names, order and count are
    /// pinned here, so a counter is added on purpose (and documented in
    /// `docs/SERVICE.md` — `ci/check_docs.sh` diffs the two lists).
    #[test]
    fn stats_names_and_order_are_pinned() {
        let names: Vec<&str> = ServerStats::default()
            .fields()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(
            names.join(" "),
            "connections active requests errors rows disconnects outputs find_gap_calls \
             probe_points writes rows_inserted rows_deleted compactions data_version budget \
             in_flight peak_in_flight admitted waited wal_records wal_bytes checkpoints \
             recoveries replayed_records prepared exec_hits deadlines flushes query_parses"
        );
    }

    #[test]
    fn server_starts_and_shuts_down_cleanly() {
        let server = Server::start(Arc::new(Engine::new()), "127.0.0.1:0", 2).unwrap();
        let addr = server.addr();
        assert_ne!(addr.port(), 0, "OS assigned a real port");
        assert_eq!(server.stats().budget, 2);
        server.shutdown().unwrap();
    }
}
