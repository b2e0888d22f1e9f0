//! End-to-end tests for the `msj serve` query service: the byte-identity
//! contract (a response body equals the CLI's stdout for the same query
//! and options), admission control under saturation, and
//! disconnect-triggered cancellation. See `docs/SERVICE.md` for the
//! contracts these pin down.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use minesweeper_join::engine::{Engine, ExecOptions};
use minesweeper_join::render;
use minesweeper_join::server::{Client, Reply, ResponseLine, Server, ServerStats};

/// A small two-relation engine with string keys, enough rows for limits
/// and truncation markers to engage.
fn small_engine() -> Engine {
    let mut e = Engine::new();
    e.load_tsv(
        "R",
        "ams 1\nbcn 2\ncdg 3\ndub 4\newr 5\nfra 6\ngva 7\nhel 8\n",
    )
    .unwrap();
    e.load_tsv("S", "1 lis\n2 mad\n3 nce\n4 osl\n5 prg\n6 rix\n")
        .unwrap();
    e
}

/// The serve-side acceptance contract: N concurrent clients over one
/// shared engine each receive bodies byte-identical to the serial CLI's
/// stdout — including `limit k` prefixes under `threads > 1`, where the
/// global-order merge must reproduce the serial stream's exact prefix.
#[test]
fn concurrent_clients_get_serial_cli_bytes() {
    let engine = Arc::new(small_engine());

    // Request lines paired with the *serial* options whose CLI stdout
    // they must reproduce (the renderer is what the CLI prints through).
    let shapes: Vec<(String, ExecOptions)> = vec![
        ("Q R(x, y), S(y, z)".into(), ExecOptions::default()),
        (
            "Q threads=3 R(x, y), S(y, z)".into(),
            ExecOptions::default(),
        ),
        (
            "Q threads=2 limit=2 R(x, y), S(y, z)".into(),
            ExecOptions::default().with_limit(2),
        ),
        (
            "Q limit=3 R(a, b)".into(),
            ExecOptions::default().with_limit(3),
        ),
        (
            "Q algo=leapfrog limit=4 R(x, y), S(y, z)".into(),
            ExecOptions::default().with_algo("leapfrog").with_limit(4),
        ),
    ];
    let expected: Vec<(String, String, u64)> = shapes
        .iter()
        .map(|(req, serial_opts)| {
            let text = req
                .trim_start_matches('Q')
                .trim_start()
                .split(' ')
                .skip_while(|t| t.contains('='))
                .collect::<Vec<_>>()
                .join(" ");
            let stmt = engine.prepare(&text).unwrap();
            let body = render::body_string(&stmt, serial_opts).unwrap();
            let rows = body.lines().filter(|l| !l.starts_with('#')).count() as u64;
            (req.clone(), body, rows)
        })
        .collect();

    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", 4).unwrap();
    let addr = server.addr();

    let clients = 8;
    let rounds = 4;
    let barrier = Arc::new(Barrier::new(clients));
    let expected = Arc::new(expected);
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                for round in 0..rounds {
                    // Stagger shape order per client so different plans
                    // hit the shared cache concurrently.
                    for k in 0..expected.len() {
                        let (req, body, rows) = &expected[(c + round + k) % expected.len()];
                        match client.request(req).unwrap() {
                            Reply::Ok {
                                body: got,
                                rows: got_rows,
                            } => {
                                assert_eq!(&got, body, "body mismatch for {req}");
                                assert_eq!(got_rows, *rows, "row count for {req}");
                            }
                            Reply::Err { code, message } => {
                                panic!("unexpected error for {req}: {code} {message}")
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = server.stats();
    assert_eq!(stats.connections, clients as u64);
    assert_eq!(stats.requests, (clients * rounds * expected.len()) as u64);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.disconnects, 0);
    server.shutdown().unwrap();
}

/// Admission saturation: with a worker budget of 2, eight concurrent
/// cost-2 (`threads=2`) requests all complete, but never overlap — the
/// peak sum of in-flight worker permits respects the budget.
#[test]
fn admission_bounds_peak_in_flight_under_saturation() {
    let mut engine = Engine::new();
    // Enough rows that concurrent requests genuinely overlap in time.
    let tsv: String = (0..20_000).map(|i| format!("{} {}\n", i, i + 1)).collect();
    engine.load_tsv("E", &tsv).unwrap();
    let engine = Arc::new(engine);

    let budget = 2;
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", budget).unwrap();
    let addr = server.addr();

    let clients = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                match client.request("Q threads=2 E(x, y), E(y, z)").unwrap() {
                    Reply::Ok { rows, .. } => rows,
                    Reply::Err { code, message } => panic!("ERR {code} {message}"),
                }
            })
        })
        .collect();
    let rows: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        rows.iter().all(|&r| r == rows[0] && r > 0),
        "all saturated requests complete with the full result: {rows:?}"
    );

    let stats = server.stats();
    assert_eq!(stats.admitted, clients as u64, "everyone got through");
    assert!(
        stats.peak_in_flight <= budget as u64,
        "peak {} exceeded budget {budget}",
        stats.peak_in_flight
    );
    assert!(
        stats.waited >= 1,
        "8 synchronized cost-2 requests on budget 2 must queue"
    );
    server.shutdown().unwrap();
}

/// `threads=N` is clamped to the admission budget: however many workers a
/// request names, it runs the split — and so exactly the work counters —
/// of `threads=<budget>`, the cost admission charged it for. (Unclamped,
/// `threads=usize::MAX` overflowed the task-count arithmetic and
/// `threads=1000000` spawned one OS thread per shard task.)
#[test]
fn oversized_thread_counts_run_as_the_budget() {
    use minesweeper_join::core::MAX_TASKS_PER_THREAD;

    let mut engine = Engine::new();
    let tsv: String = (0..600)
        .map(|i| format!("{} {}\n", i, (i * 7) % 600))
        .collect();
    engine.load_tsv("E", &tsv).unwrap();
    let engine = Arc::new(engine);
    let budget = 2;
    let query = "E(a, b), E(b, c)";

    // What `threads=<budget>` does, in process: its shard tasks respect
    // the bound, and a count left unclamped would not.
    let stmt = engine.prepare(query).unwrap();
    let clamped = stmt
        .execute(&ExecOptions::default().with_threads(budget).with_stats())
        .unwrap();
    let tasks = clamped.shards.as_ref().unwrap().len();
    assert!(
        tasks > 1 && tasks <= budget * MAX_TASKS_PER_THREAD,
        "{tasks}"
    );
    let unclamped = stmt
        .explain(&ExecOptions::default().with_threads(1_000_000))
        .unwrap();
    assert!(unclamped.shards.unwrap().tasks > budget * MAX_TASKS_PER_THREAD);
    let want = clamped.stats.unwrap();

    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", budget).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut bodies = Vec::new();
    let mut explained = Vec::new();
    for threads in [budget, 1_000_000, usize::MAX] {
        // `explain` describes the run the server will execute: the
        // budget-clamped one, not the worker count the request named.
        match client
            .request(&format!("Q explain threads={threads} {query}"))
            .unwrap()
        {
            Reply::Ok { body, .. } => explained.push(
                body.lines()
                    .find(|l| l.starts_with("parallel:"))
                    .unwrap_or_else(|| panic!("threads={threads}: no parallel line in {body}"))
                    .to_string(),
            ),
            Reply::Err { code, message } => panic!("threads={threads}: ERR {code} {message}"),
        }
        let before = server.stats();
        match client
            .request(&format!("Q threads={threads} {query}"))
            .unwrap()
        {
            Reply::Ok { body, .. } => bodies.push(body),
            Reply::Err { code, message } => panic!("threads={threads}: ERR {code} {message}"),
        }
        // Same shard split ⇒ same deterministic work, to the probe.
        let after = server.stats();
        assert_eq!(
            (
                after.probe_points - before.probe_points,
                after.find_gap_calls - before.find_gap_calls,
                after.outputs - before.outputs
            ),
            (want.probe_points, want.find_gap_calls, want.outputs),
            "threads={threads} must run threads={budget}'s shard tasks"
        );
    }
    assert!(bodies.iter().all(|b| b == &bodies[0] && !b.is_empty()));
    assert!(
        explained.iter().all(|l| l == &explained[0]),
        "{explained:#?}"
    );
    let stats = server.stats();
    assert_eq!(stats.errors, 0);
    assert!(stats.peak_in_flight <= budget as u64);
    server.shutdown().unwrap();
}

/// Disconnect-triggered cancellation: a client that vanishes mid-stream
/// stops its query. The response body is far larger than any socket
/// buffering, so the session is still producing when the client hangs
/// up; the server registers the disconnect, absorbs only the partial
/// work, and the counters stop advancing.
#[test]
fn disconnect_mid_stream_cancels_remaining_work() {
    let mut engine = Engine::new();
    // ~100-byte string keys × 100k rows ⇒ a ~10 MB body, well past what
    // kernel buffers can absorb on loopback.
    let tsv: String = (0..100_000).map(|i| format!("k{i:0>96} {i}\n")).collect();
    engine.load_tsv("B", &tsv).unwrap();
    let engine = Arc::new(engine);

    let full_rows = {
        let stmt = engine.prepare("B(k, v)").unwrap();
        stmt.execute(&ExecOptions::default().with_stats())
            .unwrap()
            .rows
            .len() as u64
    };
    assert_eq!(full_rows, 100_000);

    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", 4).unwrap();
    let addr = server.addr();

    {
        let mut client = Client::connect(addr).unwrap();
        // A limited request streams tuples as they are certified (the
        // cancellable path); the limit spans the whole result, so only
        // the disconnect can stop it early.
        client.send("Q threads=2 limit=100000 B(k, v)").unwrap();
        // Read a handful of body lines to prove the stream is live …
        for _ in 0..5 {
            client.read_line().unwrap();
        }
        // … then vanish: dropping the socket with megabytes unread makes
        // the server's next flush fail, which drops the tuple stream and
        // cancels its shard workers.
    }

    // The session notices on its next write; give it a bounded moment.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = server.stats();
        if stats.disconnects == 1 {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "server never registered the disconnect: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        stats.rows < full_rows,
        "only a prefix was streamed, got {} of {full_rows}",
        stats.rows
    );
    assert!(
        stats.outputs < full_rows / 2,
        "cancellation must stop well short of the {full_rows} outputs the \
         abandoned request would have produced, got {}",
        stats.outputs
    );

    // "Stops advancing": the counters are final once the disconnect is
    // registered — no background worker keeps producing.
    std::thread::sleep(Duration::from_millis(100));
    let later = server.stats();
    assert_eq!(later.outputs, stats.outputs);
    assert_eq!(later.find_gap_calls, stats.find_gap_calls);
    server.shutdown().unwrap();
}

/// Protocol-level behaviour over a live socket: PING/STATS/QUIT, stable
/// error codes, and blank-line tolerance.
#[test]
fn protocol_errors_and_stats_over_the_wire() {
    let server = Server::start(Arc::new(small_engine()), "127.0.0.1:0", 3).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    assert_eq!(
        client.request("PING").unwrap(),
        Reply::Ok {
            body: String::new(),
            rows: 0
        }
    );
    match client.request("Q R(x").unwrap() {
        Reply::Err { code, .. } => assert_eq!(code, "PARSE"),
        other => panic!("expected PARSE, got {other:?}"),
    }
    match client.request("Q algo=quantum R(x, y)").unwrap() {
        Reply::Err { code, .. } => assert_eq!(code, "ALGO"),
        other => panic!("expected ALGO, got {other:?}"),
    }
    match client.request("Q Nope(x, y)").unwrap() {
        Reply::Err { code, .. } => assert_eq!(code, "PARSE"),
        other => panic!("expected PARSE for unknown relation, got {other:?}"),
    }
    match client.request("HELLO").unwrap() {
        Reply::Err { code, .. } => assert_eq!(code, "PROTO"),
        other => panic!("expected PROTO, got {other:?}"),
    }
    match client.request("Q threads=many R(x, y)").unwrap() {
        Reply::Err { code, .. } => assert_eq!(code, "PROTO"),
        other => panic!("expected PROTO, got {other:?}"),
    }

    let reply = client.request("STATS").unwrap();
    let body = reply.body().expect("STATS succeeds");
    let stats = ServerStats::parse_body(body).expect("STATS body parses");
    assert_eq!(stats.budget, 3);
    assert_eq!(stats.errors, 5);
    assert_eq!(stats.active, 1);

    assert_eq!(
        client.request("QUIT").unwrap(),
        Reply::Ok {
            body: String::new(),
            rows: 0
        }
    );
    server.shutdown().unwrap();
}

/// The write verbs over a live socket: `W INSERT` / `W DELETE` change
/// what later prepares see (with set-semantics `OK` counts), `W
/// COMPACT` is observationally silent, error codes are stable, and
/// `STATS` tracks the write counters and the data-version clock.
#[test]
fn write_verbs_mutate_compact_and_count_over_the_wire() {
    let engine = Arc::new(small_engine());
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let join_rows = |client: &mut Client| match client.request("Q R(x, y), S(y, z)").unwrap() {
        Reply::Ok { rows, body } => (rows, body),
        other => panic!("query failed: {other:?}"),
    };
    let (rows_before, _) = join_rows(&mut client);

    // A new R row joining S's `9 zrh` partner row (inserted first).
    assert_eq!(
        client.request("W INSERT S 9 zrh").unwrap(),
        Reply::Ok {
            body: String::new(),
            rows: 1
        }
    );
    assert_eq!(
        client.request("W INSERT R ibz 9").unwrap(),
        Reply::Ok {
            body: String::new(),
            rows: 1
        }
    );
    // Duplicate insert: set semantics, nothing changes.
    assert_eq!(
        client.request("W INSERT R ibz 9").unwrap(),
        Reply::Ok {
            body: String::new(),
            rows: 0
        }
    );
    // Delete one pre-loaded row; deleting it again is a no-op.
    assert_eq!(
        client.request("W DELETE R ams 1").unwrap(),
        Reply::Ok {
            body: String::new(),
            rows: 1
        }
    );
    assert_eq!(
        client.request("W DELETE R ams 1").unwrap(),
        Reply::Ok {
            body: String::new(),
            rows: 0
        }
    );

    let (rows_after, body_after) = join_rows(&mut client);
    assert_eq!(rows_after, rows_before, "one row gained, one lost");
    assert!(body_after.contains("ibz"), "the insert is visible");
    assert!(!body_after.contains("ams"), "the delete is visible");

    // Stable error codes: unknown relation (STORAGE), bad arity and a
    // non-integer cell in an Int column (LOAD), malformed line (PROTO).
    for (req, want) in [
        ("W INSERT Nope 1 2", "STORAGE"),
        ("W INSERT R onlyone", "LOAD"),
        ("W INSERT S notanint x", "LOAD"),
        ("W UPSERT R 1 2", "PROTO"),
    ] {
        match client.request(req).unwrap() {
            Reply::Err { code, .. } => assert_eq!(code, want, "{req}"),
            other => panic!("expected {want} for {req}, got {other:?}"),
        }
    }

    // Compaction folds the pending deltas of R and S, changes nothing a
    // query can see, and a second compaction finds nothing to fold.
    assert_eq!(
        client.request("W COMPACT").unwrap(),
        Reply::Ok {
            body: String::new(),
            rows: 2
        }
    );
    assert_eq!(join_rows(&mut client).1, body_after);
    assert_eq!(
        client.request("W COMPACT R").unwrap(),
        Reply::Ok {
            body: String::new(),
            rows: 0
        }
    );

    let reply = client.request("STATS").unwrap();
    let stats = ServerStats::parse_body(reply.body().unwrap()).expect("STATS body parses");
    assert_eq!(stats.writes, 5, "5 row writes reached the engine");
    assert_eq!(stats.rows_inserted, 2);
    assert_eq!(stats.rows_deleted, 1);
    assert_eq!(stats.compactions, 2);
    // The data-version clock is the sum of per-relation version
    // counters: R moved twice (insert + delete; the no-op repeats and
    // the compaction don't count), S moved once.
    assert_eq!(
        stats.data_version,
        engine.relation_version("R").unwrap() + engine.relation_version("S").unwrap()
    );
    assert!(stats.data_version >= 3);
    assert_eq!(stats.errors, 4);

    server.shutdown().unwrap();
}

/// `W CHECKPOINT` over the wire: a stable `STORAGE` error on an
/// in-memory server, a published checkpoint (with the durability STATS
/// counters moving) on a durable one — and the directory recovers.
#[test]
fn checkpoint_verb_and_durability_stats_over_the_wire() {
    use minesweeper_join::durability::DurabilityOptions;
    use minesweeper_join::engine::DurableBoot;

    // In-memory: the verb parses but the engine has nowhere to write.
    let server = Server::start(Arc::new(small_engine()), "127.0.0.1:0", 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.request("W CHECKPOINT").unwrap() {
        Reply::Err { code, message } => {
            assert_eq!(code, "STORAGE");
            assert!(message.contains("data directory"), "{message}");
        }
        other => panic!("expected STORAGE, got {other:?}"),
    }
    match client.request("W CHECKPOINT now").unwrap() {
        Reply::Err { code, .. } => assert_eq!(code, "PROTO"),
        other => panic!("expected PROTO, got {other:?}"),
    }
    let stats = ServerStats::parse_body(client.request("STATS").unwrap().body().unwrap()).unwrap();
    assert_eq!(
        (stats.wal_records, stats.checkpoints, stats.recoveries),
        (0, 0, 0),
        "an in-memory server reports zero durability activity"
    );
    server.shutdown().unwrap();

    // Durable: boot a data directory, write over the wire, checkpoint.
    let dir = std::env::temp_dir().join(format!("msj-ckpt-verb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut e, boot) = Engine::open_durable(&dir, DurabilityOptions::default()).unwrap();
    assert!(matches!(boot, DurableBoot::Fresh));
    e.load_tsv("R", "ams 1\nbcn 2\n").unwrap();
    e.load_tsv("S", "1 lis\n2 mad\n").unwrap();
    e.checkpoint().unwrap().unwrap();
    let engine = Arc::new(e);
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for req in ["W INSERT S 9 zrh", "W INSERT R ibz 9"] {
        assert!(matches!(
            client.request(req).unwrap(),
            Reply::Ok { rows: 1, .. }
        ));
    }
    assert_eq!(
        client.request("W CHECKPOINT").unwrap(),
        Reply::Ok {
            body: String::new(),
            rows: 2
        },
        "OK counts the relations dumped"
    );
    let stats = ServerStats::parse_body(client.request("STATS").unwrap().body().unwrap()).unwrap();
    assert_eq!(stats.wal_records, 2, "one record per committed batch");
    assert!(stats.wal_bytes > 0);
    assert_eq!(stats.checkpoints, 2, "boot checkpoint + the verb");
    assert_eq!((stats.recoveries, stats.replayed_records), (0, 0));

    server.shutdown().unwrap();
    drop(client);
    drop(engine);

    // The directory reopens: the verb's checkpoint is current, so
    // nothing replays, and the wire writes are all present.
    let (e, boot) = Engine::open_durable(&dir, DurabilityOptions::default()).unwrap();
    match boot {
        DurableBoot::Recovered(report) => {
            assert_eq!(
                report.replayed_records, 0,
                "the checkpoint absorbed the log"
            );
        }
        DurableBoot::Fresh => panic!("the directory holds data"),
    }
    assert_eq!(e.durability_stats().unwrap().recoveries, 1);
    let body = render::body_string(
        &e.prepare("R(x, y), S(y, z)").unwrap(),
        &ExecOptions::default(),
    )
    .unwrap();
    assert!(body.contains("ibz") && body.contains("zrh"));
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deadline-triggered cancellation: a `timeout=`-expired streaming
/// request is cancelled *server-side* while the client keeps its
/// connection — partial rows stay flushed, the response terminates with
/// a stable `ERR DEADLINE`, the work counters freeze below one full
/// execution, and the session remains usable.
#[test]
fn deadline_mid_stream_cancels_server_side() {
    let mut engine = Engine::new();
    // Same ~10 MB body as the disconnect test: far past what kernel
    // buffers absorb, so TCP backpressure paces the server against the
    // deliberately slow reader below.
    let tsv: String = (0..100_000).map(|i| format!("k{i:0>96} {i}\n")).collect();
    engine.load_tsv("B", &tsv).unwrap();
    let engine = Arc::new(engine);
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", 4).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // The client reads, but slower than the server produces: when the
    // deadline hits, the stream is mid-body — only a server-side check
    // inside the streaming loop can stop it (the client never hangs up).
    client
        .send("Q threads=2 limit=100000 timeout=200 B(k, v)")
        .unwrap();
    let mut body_lines: u64 = 0;
    let (code, message) = loop {
        match client.read_line().unwrap() {
            ResponseLine::Body(_) => {
                body_lines += 1;
                if body_lines.is_multiple_of(64) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            ResponseLine::Err(code, message) => break (code, message),
            ResponseLine::Ok(rows) => {
                panic!("stream completed ({rows} rows) before the deadline")
            }
        }
    };
    assert_eq!(code, "DEADLINE");
    assert!(message.contains("deadline exceeded after"), "{message}");
    assert!(
        body_lines < 100_000,
        "only a prefix was flushed, got {body_lines} lines"
    );

    let stats = server.stats();
    assert_eq!(stats.deadlines, 1);
    assert_eq!(stats.disconnects, 0, "the client never hung up");
    assert_eq!(stats.errors, 0, "a deadline is not an error");
    assert!(stats.rows < 100_000);
    assert!(
        stats.outputs < 100_000,
        "cancellation stopped the probe loop at {} outputs",
        stats.outputs
    );

    // Frozen means frozen: no background worker keeps producing after
    // the ERR line is on the wire.
    std::thread::sleep(Duration::from_millis(100));
    let later = server.stats();
    assert_eq!(later.outputs, stats.outputs);
    assert_eq!(later.find_gap_calls, stats.find_gap_calls);

    // `timeout=0` expires before any work — the deterministic corner:
    // a materializing (unlimited serial) request answers ERR DEADLINE
    // with no body at all.
    match client.request("Q timeout=0 B(k, v)").unwrap() {
        Reply::Err { code, .. } => assert_eq!(code, "DEADLINE"),
        other => panic!("expected DEADLINE, got {other:?}"),
    }
    assert_eq!(server.stats().errors, 0, "nor is a timeout=0 expiry");

    // The connection survived both expiries.
    assert_eq!(
        client.request("PING").unwrap(),
        Reply::Ok {
            body: String::new(),
            rows: 0
        }
    );
    assert_eq!(server.stats().deadlines, 2);
    server.shutdown().unwrap();
}

/// The prepared-statement contract: `EXEC` output is byte-identical to
/// the equivalent one-shot `Q` while `query_parses` stays flat (the
/// deterministic evidence that EXEC skips parsing and planning); a
/// write re-plans transparently; `UNPREPARE` ends the name's life.
#[test]
fn prepare_exec_skips_parsing_and_matches_one_shot_bytes() {
    let engine = Arc::new(small_engine());
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let one_shot = match client.request("Q R(x, y), S(y, z)").unwrap() {
        Reply::Ok { body, rows } => (body, rows),
        other => panic!("one-shot failed: {other:?}"),
    };
    assert_eq!(
        client.request("PREPARE hot -- R(x, y), S(y, z)").unwrap(),
        Reply::Ok {
            body: String::new(),
            rows: 0
        }
    );

    // Parse count is flat across EXECs on a read-only connection.
    let parses_before = server.stats().query_parses;
    for _ in 0..3 {
        match client.request("EXEC hot").unwrap() {
            Reply::Ok { body, rows } => {
                assert_eq!(body, one_shot.0, "EXEC must reproduce the Q bytes");
                assert_eq!(rows, one_shot.1);
            }
            other => panic!("EXEC failed: {other:?}"),
        }
    }
    let stats = server.stats();
    assert_eq!(
        stats.query_parses, parses_before,
        "three EXECs parsed nothing"
    );
    assert_eq!(stats.exec_hits, 3);
    assert_eq!(stats.prepared, 1);

    // The same across connections: each further connection's PREPARE
    // parses once, and none of their interleaved EXECs parses at all.
    let mut others: Vec<Client> = (0..3)
        .map(|_| Client::connect(server.addr()).unwrap())
        .collect();
    for other in &mut others {
        assert!(matches!(
            other.request("PREPARE hot -- R(x, y), S(y, z)").unwrap(),
            Reply::Ok { rows: 0, .. }
        ));
    }
    for _ in 0..2 {
        for other in &mut others {
            match other.request("EXEC hot").unwrap() {
                Reply::Ok { body, .. } => assert_eq!(body, one_shot.0),
                other => panic!("EXEC failed: {other:?}"),
            }
        }
    }
    let across = server.stats();
    assert_eq!(across.prepared - stats.prepared, 3);
    assert_eq!(across.exec_hits - stats.exec_hits, 6);
    assert_eq!(
        across.query_parses - stats.query_parses,
        3,
        "one parse per PREPARE, zero per EXEC"
    );

    // A per-execution override mirrors the equivalent one-shot option.
    let limited = match client.request("Q limit=2 R(x, y), S(y, z)").unwrap() {
        Reply::Ok { body, .. } => body,
        other => panic!("limited Q failed: {other:?}"),
    };
    match client.request("EXEC hot limit=2").unwrap() {
        Reply::Ok { body, .. } => assert_eq!(body, limited),
        other => panic!("EXEC limit=2 failed: {other:?}"),
    }

    // A write bumps the data version: the next EXEC re-plans from the
    // stored text (exactly one parse), then goes flat again — and its
    // bytes keep matching a fresh one-shot Q.
    assert!(matches!(
        client.request("W INSERT S 1 zzz").unwrap(),
        Reply::Ok { rows: 1, .. }
    ));
    let parses_stale = server.stats().query_parses;
    let fresh = match client.request("EXEC hot").unwrap() {
        Reply::Ok { body, .. } => body,
        other => panic!("EXEC after write failed: {other:?}"),
    };
    assert!(fresh.contains("zzz"), "the write is visible to EXEC");
    assert_eq!(
        server.stats().query_parses,
        parses_stale + 1,
        "staleness costs exactly one re-parse"
    );
    match client.request("EXEC hot").unwrap() {
        Reply::Ok { body, .. } => assert_eq!(body, fresh),
        other => panic!("EXEC failed: {other:?}"),
    }
    assert_eq!(server.stats().query_parses, parses_stale + 1, "flat again");
    let q_fresh = match client.request("Q R(x, y), S(y, z)").unwrap() {
        Reply::Ok { body, .. } => body,
        other => panic!("fresh Q failed: {other:?}"),
    };
    assert_eq!(q_fresh, fresh, "EXEC and Q agree after the re-plan");

    // Lifecycle: UNPREPARE reports what it dropped; EXEC on a dropped
    // name is a protocol error.
    assert!(matches!(
        client.request("UNPREPARE hot").unwrap(),
        Reply::Ok { rows: 1, .. }
    ));
    match client.request("EXEC hot").unwrap() {
        Reply::Err { code, message } => {
            assert_eq!(code, "PROTO");
            assert!(message.contains("no prepared statement"), "{message}");
        }
        other => panic!("expected PROTO, got {other:?}"),
    }
    assert!(matches!(
        client.request("UNPREPARE hot").unwrap(),
        Reply::Ok { rows: 0, .. }
    ));
    server.shutdown().unwrap();
}

/// `PREPARE` resolves its options before storing anything: a statement
/// every `EXEC` would reject is refused up front with the same code the
/// equivalent `Q` gets, and leaves no name behind.
#[test]
fn prepare_rejects_an_unknown_algorithm_and_stores_nothing() {
    let server = Server::start(Arc::new(small_engine()), "127.0.0.1:0", 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.request("PREPARE bad algo=nope -- R(x, y)").unwrap() {
        Reply::Err { code, message } => {
            assert_eq!(code, "ALGO");
            assert!(message.contains("nope"), "{message}");
        }
        other => panic!("expected ERR ALGO at PREPARE time, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!((stats.prepared, stats.errors), (0, 1));
    // Nothing was stored under the name …
    match client.request("EXEC bad").unwrap() {
        Reply::Err { code, message } => {
            assert_eq!(code, "PROTO");
            assert!(message.contains("no prepared statement"), "{message}");
        }
        other => panic!("expected PROTO, got {other:?}"),
    }
    assert!(matches!(
        client.request("UNPREPARE bad").unwrap(),
        Reply::Ok { rows: 0, .. }
    ));
    // … and a valid algorithm under the same name still prepares and runs.
    assert!(matches!(
        client
            .request("PREPARE bad algo=leapfrog -- R(x, y)")
            .unwrap(),
        Reply::Ok { rows: 0, .. }
    ));
    assert!(matches!(
        client.request("EXEC bad").unwrap(),
        Reply::Ok { rows: 8, .. }
    ));
    server.shutdown().unwrap();
}

/// A connection's statement map is bounded: the 1 025th distinct name is
/// a protocol error, while re-preparing a held name and preparing after
/// an `UNPREPARE` both still work.
#[test]
fn prepared_statements_per_connection_are_bounded() {
    const BOUND: usize = 1024;
    let server = Server::start(Arc::new(small_engine()), "127.0.0.1:0", 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let ok = |reply: Reply| matches!(reply, Reply::Ok { rows: 0, .. });
    for i in 0..BOUND {
        let reply = client.request(&format!("PREPARE s{i} -- R(x, y)")).unwrap();
        assert!(ok(reply), "statement {i} fits");
    }
    match client.request("PREPARE one-too-many -- R(x, y)").unwrap() {
        Reply::Err { code, message } => {
            assert_eq!(code, "PROTO");
            assert!(message.contains("1024 prepared statements"), "{message}");
        }
        other => panic!("expected PROTO at the bound, got {other:?}"),
    }
    assert_eq!(server.stats().prepared, BOUND as u64);
    // Re-PREPARE of a held name replaces it in place.
    assert!(ok(client.request("PREPARE s7 limit=1 -- S(y, z)").unwrap()));
    assert!(matches!(
        client.request("EXEC s7").unwrap(),
        Reply::Ok { rows: 1, .. }
    ));
    // Dropping one makes room for a new name; another connection has its
    // own map.
    assert!(matches!(
        client.request("UNPREPARE s0").unwrap(),
        Reply::Ok { rows: 1, .. }
    ));
    assert!(ok(client.request("PREPARE fits-now -- R(x, y)").unwrap()));
    let mut other = Client::connect(server.addr()).unwrap();
    assert!(ok(other.request("PREPARE s1 -- R(x, y)").unwrap()));
    server.shutdown().unwrap();
}

/// The batching contract: a deliberately slow reader taking tiny paced
/// reads off the raw socket still reassembles the exact renderer bytes,
/// and the per-body flush count follows the documented watermark
/// arithmetic instead of one flush per line.
#[test]
fn slow_reader_receives_exact_bytes_under_batching() {
    let mut engine = Engine::new();
    let tsv: String = (0..2_000).map(|i| format!("{i} {}\n", i + 1)).collect();
    engine.load_tsv("E", &tsv).unwrap();
    let engine = Arc::new(engine);
    let expected =
        render::body_string(&engine.prepare("E(x, y)").unwrap(), &ExecOptions::default()).unwrap();

    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", 4).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"Q E(x, y)\n").unwrap();

    // Tiny odd-sized reads with pauses: chunk boundaries land anywhere
    // relative to lines and flush batches.
    let mut raw = Vec::new();
    let mut chunk = [0u8; 257];
    loop {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server hung up mid-response");
        raw.extend_from_slice(&chunk[..n]);
        if raw.ends_with(b"\n") {
            let last = raw[..raw.len() - 1].split(|&b| b == b'\n').next_back();
            if last.is_some_and(|l| l.starts_with(b"OK ") || l.starts_with(b"ERR ")) {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let text = String::from_utf8(raw).unwrap();
    let mut body = String::new();
    let mut terminator = String::new();
    for line in text.lines() {
        match line.strip_prefix('|') {
            Some(rest) => {
                body.push_str(rest);
                body.push('\n');
            }
            None => terminator = line.to_string(),
        }
    }
    assert_eq!(body, expected, "batched stream reassembles exactly");
    assert_eq!(terminator, "OK 2000");

    // Flush accounting (default watermarks, byte watermark never trips
    // on these short rows): first line, then every 128th.
    let lines = expected.lines().count() as u64;
    let serial_flushes = server.stats().flushes;
    assert_eq!(serial_flushes, 1 + (lines - 1) / 128);

    // The same arithmetic for a merged parallel prefix: `limit=k` under
    // `threads=4` streams the header, exactly k rows and the truncation
    // marker.
    let mut client = Client::connect(server.addr()).unwrap();
    let lines = match client
        .request("Q threads=4 limit=500 E(x, y), E(y, z)")
        .unwrap()
    {
        Reply::Ok { body, rows: 500 } => body.lines().count() as u64,
        other => panic!("expected exactly 500 rows, got {other:?}"),
    };
    assert_eq!(lines, 502);
    assert_eq!(
        server.stats().flushes - serial_flushes,
        1 + (lines - 1) / 128
    );
    server.shutdown().unwrap();
}

// ------------------------------------------------------------ processes

/// Drives the real binaries: `msj serve` + `msj client` against the
/// one-shot `msj` for the same queries must produce identical stdout,
/// and the process exit codes follow the documented policy (2 usage,
/// 3 rejected query, 1 execution failure).
#[test]
fn serve_and_client_binaries_match_one_shot_stdout() {
    let bin = env!("CARGO_BIN_EXE_msj");
    let dir = std::env::temp_dir().join(format!("msj-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let r = dir.join("R.tsv");
    let s = dir.join("S.tsv");
    std::fs::write(&r, "1 5\n2 7\n4 9\n").unwrap();
    std::fs::write(&s, "5 1\n7 2\n9 4\n").unwrap();
    let rel_r = format!("R={}", r.display());
    let rel_s = format!("S={}", s.display());

    // Kill-on-drop guard: without it, a panic between spawn and the
    // explicit kill below leaks a serve process past the test run.
    struct KillOnDrop(std::process::Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let mut serve = KillOnDrop(
        std::process::Command::new(bin)
            .args([
                "serve",
                "--rel",
                &rel_r,
                "--rel",
                &rel_s,
                "--addr",
                "127.0.0.1:0",
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap(),
    );
    let serve = &mut serve.0;
    let mut first_line = String::new();
    BufReader::new(serve.stdout.as_mut().unwrap())
        .read_line(&mut first_line)
        .unwrap();
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first_line:?}"))
        .to_string();

    // (request line, one-shot CLI flags) pairs that must print the same
    // bytes — the serve path through `msj client`, and directly.
    // The explain case goes first: its body includes cache provenance,
    // which matches the fresh one-shot process only while the server's
    // cache is also cold.
    let cases: &[(&str, &[&str])] = &[
        ("Q explain=json R(x, y), S(y, z)", &["--explain-json"]),
        ("Q R(x, y), S(y, z)", &[]),
        ("Q threads=2 R(x, y), S(y, z)", &["--threads", "2"]),
        (
            "Q threads=2 limit=2 R(x, y), S(y, z)",
            &["--threads", "2", "--limit", "2"],
        ),
        (
            "Q algo=naive limit=1 R(x, y), S(y, z)",
            &["--algo", "naive", "--limit", "1"],
        ),
    ];

    let mut requests = String::new();
    let mut one_shot = Vec::new();
    for (req, flags) in cases {
        requests.push_str(req);
        requests.push('\n');
        let out = std::process::Command::new(bin)
            .args(["--rel", &rel_r, "--rel", &rel_s, "R(x, y), S(y, z)"])
            .args(*flags)
            .output()
            .unwrap();
        assert!(out.status.success(), "one-shot failed for {flags:?}");
        one_shot.extend_from_slice(&out.stdout);
    }

    let mut client = std::process::Command::new(bin)
        .args(["client", "--addr", &addr])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    client
        .stdin
        .take()
        .unwrap()
        .write_all(requests.as_bytes())
        .unwrap();
    let mut client_out = Vec::new();
    client
        .stdout
        .take()
        .unwrap()
        .read_to_end(&mut client_out)
        .unwrap();
    assert!(client.wait().unwrap().success());
    assert_eq!(
        String::from_utf8_lossy(&client_out),
        String::from_utf8_lossy(&one_shot),
        "serve/client bytes must match the one-shot CLI"
    );

    // Exit-code policy, client side: a rejected query exits 3.
    let mut bad = std::process::Command::new(bin)
        .args(["client", "--addr", &addr])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    bad.stdin.take().unwrap().write_all(b"Q R(x\n").unwrap();
    assert_eq!(bad.wait().unwrap().code(), Some(3));

    serve.kill().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Exit-code policy, one-shot side: usage errors exit 2, rejected
/// queries 3, execution/I-O failures 1.
#[test]
fn one_shot_exit_codes_distinguish_rejection_from_failure() {
    let bin = env!("CARGO_BIN_EXE_msj");
    let dir = std::env::temp_dir().join(format!("msj-exit-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let r = dir.join("R.tsv");
    std::fs::write(&r, "1 2\n").unwrap();
    let rel = format!("R={}", r.display());

    let run = |args: &[&str]| {
        std::process::Command::new(bin)
            .args(args)
            .output()
            .unwrap()
            .status
            .code()
    };
    assert_eq!(run(&[]), Some(2), "usage");
    assert_eq!(run(&["--rel", &rel, "R(x"]), Some(3), "parse rejection");
    assert_eq!(
        run(&["--rel", &rel, "--algo", "quantum", "R(x, y)"]),
        Some(3),
        "unknown algorithm rejection"
    );
    assert_eq!(
        run(&["--rel", "R=/nonexistent/path.tsv", "R(x, y)"]),
        Some(1),
        "I/O failure"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The durability acceptance test at process level: `msj serve
/// --data-dir`, writes over the wire, `kill -9`, restart from the same
/// directory — the same query returns byte-identical output. Then a
/// SIGTERM drains gracefully (exit 0, final checkpoint) and a third
/// boot still agrees.
#[cfg(unix)]
#[test]
fn kill_dash_nine_then_restart_recovers_identical_answers() {
    let bin = env!("CARGO_BIN_EXE_msj");
    let dir = std::env::temp_dir().join(format!("msj-kill9-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let r = dir.join("R.tsv");
    let s = dir.join("S.tsv");
    std::fs::write(&r, "1 5\n2 7\n4 9\n").unwrap();
    std::fs::write(&s, "5 1\n7 2\n9 4\n").unwrap();
    let data = dir.join("data");
    let data_arg = data.display().to_string();
    let rel_r = format!("R={}", r.display());
    let rel_s = format!("S={}", s.display());

    struct KillOnDrop(std::process::Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let spawn_serve = |extra: &[&str]| -> (KillOnDrop, String) {
        let mut child = std::process::Command::new(bin)
            .args(["serve", "--data-dir", &data_arg, "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let mut first_line = String::new();
        BufReader::new(child.stdout.as_mut().unwrap())
            .read_line(&mut first_line)
            .unwrap();
        let addr = first_line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {first_line:?}"))
            .to_string();
        (KillOnDrop(child), addr)
    };

    let run_client = |addr: &str, requests: &str| -> Vec<u8> {
        let mut client = std::process::Command::new(bin)
            .args(["client", "--addr", addr])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap();
        client
            .stdin
            .take()
            .unwrap()
            .write_all(requests.as_bytes())
            .unwrap();
        let mut out = Vec::new();
        client.stdout.take().unwrap().read_to_end(&mut out).unwrap();
        assert!(
            client.wait().unwrap().success(),
            "client failed: {requests:?}"
        );
        out
    };
    const QUERY: &str = "Q R(x, y), S(y, z)\n";

    // Boot 1: fresh directory, load --rel files, take writes (the
    // default --fsync always makes every acked write kill -9 proof),
    // then die without any warning.
    let (mut serve1, addr1) = spawn_serve(&["--rel", &rel_r, "--rel", &rel_s]);
    run_client(
        &addr1,
        "W INSERT R 8 5\nW INSERT S 9 8\nW INSERT R 3 9\nW DELETE R 4 9\n",
    );
    let before = run_client(&addr1, QUERY);
    serve1.0.kill().unwrap(); // SIGKILL — no drain, no checkpoint
    serve1.0.wait().unwrap();

    // Boot 2: recovery replays the wire writes from the WAL tail.
    let (mut serve2, addr2) = spawn_serve(&[]);
    let after = run_client(&addr2, QUERY);
    assert_eq!(
        String::from_utf8_lossy(&after),
        String::from_utf8_lossy(&before),
        "kill -9 then restart must not change any answer"
    );

    // SIGTERM: the server drains, writes a final checkpoint, exits 0.
    run_client(&addr2, "W INSERT R 10 5\n");
    let expected_after_drain = run_client(&addr2, QUERY);
    let pid = serve2.0.id();
    let status = std::process::Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(10);
    let code = loop {
        if let Some(status) = serve2.0.try_wait().unwrap() {
            break status.code();
        }
        assert!(Instant::now() < deadline, "serve did not drain in 10s");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(code, Some(0), "a drained shutdown exits 0");

    // Boot 3: the drain checkpoint is current and the answers agree.
    let (_serve3, addr3) = spawn_serve(&[]);
    let third = run_client(&addr3, QUERY);
    assert_eq!(
        String::from_utf8_lossy(&third),
        String::from_utf8_lossy(&expected_after_drain)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
