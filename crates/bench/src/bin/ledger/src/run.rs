//! The untraced end-to-end run of one workload against a real `msj serve`
//! child: repeated set-up, the oracle cross-check, the windowed main run on
//! exactly two connections (a closed-loop reader beside a paced writer), the
//! LFTJ ratio phase, `kill -9` and repeated recovery. Every reply is
//! checked; every mismatch is a failure.

use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::deploy::{
    err, ms, offset, with_scratch_dir, write_loop, Config, Deployment, Sample, Tally, CONNECTIONS,
};
use crate::gen::Edge;
use crate::metrics::Better;
use crate::model::{self, Expected};
use crate::report::Value;
use crate::stats::{self, median, percentile, window_of};
use crate::wire::{Conn, Reply};
use crate::workload::{Workload, WRITE_RATE};
use std::collections::HashSet;

/// The main run is split into this many consecutive windows. Every timing
/// metric is computed per window and the second-best window is reported: on
/// a shared machine interference only ever adds time, so up to two slowed
/// windows are passed over, and so is one window flattered by where the
/// server's own periodic work (compaction, checkpoints) happened to fall.
pub const WINDOWS: usize = 4;
/// Set-ups and recoveries are repeated at least `MIN_BOOTS` times, then
/// until `BOOT_BUDGET` is spent or `MAX_BOOTS` is reached (light servers
/// boot in milliseconds and need the repetitions); medians are reported.
const MIN_BOOTS: usize = 3;
const MAX_BOOTS: usize = 9;
const BOOT_BUDGET: Duration = Duration::from_millis(2_500);
/// Shares of `--seconds` spent before and after the main run.
const WARM_SHARE: f64 = 0.1;
const RATIO_SHARE: f64 = 0.15;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Value>,
    /// Smallest per-window query sample count of the main run.
    pub min_window_samples: usize,
    /// p95 of how late the paced writer sent, in ms.
    pub late_p95_ms: f64,
}

/// How a measured reply is judged.
enum Check<'a> {
    /// Row count and body hash must equal the oracle's.
    Exact(Expected),
    /// A writer is running, so the snapshot is unknown: the row count must
    /// be consistent and the rows strictly ascending.
    Ascending,
    /// A `limit` page: structurally valid (the first time), then pinned.
    Page {
        header: &'a str,
        k: u64,
        edges: &'a HashSet<Edge>,
    },
}

impl Check<'_> {
    fn keeps_body(&self) -> bool {
        !matches!(self, Check::Exact(_))
    }

    fn accepts(&self, reply: &Reply) -> bool {
        let body = reply.body.as_deref().unwrap_or_default();
        match self {
            Check::Exact(expected) => expected.matches(reply),
            Check::Ascending => reply.is_consistent() && model::rows_ascend(body),
            Check::Page { header, k, edges } => {
                reply.status == Ok(*k) && model::is_valid_two_hop_page(body, header, *k, edges)
            }
        }
    }
}

/// Sends `request` closed-loop until `until`.
fn read_loop(
    conn: &mut Conn,
    request: &str,
    check: &Check,
    origin: Instant,
    until: Instant,
) -> (Vec<Sample>, Tally) {
    let (mut samples, mut tally) = (Vec::new(), Tally::default());
    while Instant::now() < until {
        match conn.request(request, check.keeps_body()) {
            Ok((sent, reply)) => {
                if tally.check(check.accepts(&reply)) {
                    samples.push(Sample {
                        at: offset(reply.done, origin),
                        first_ms: ms(reply.first_row - sent),
                        total_ms: ms(reply.done - sent),
                    });
                }
            }
            Err(_) => {
                tally.check(false);
                break; // the connection is gone; nothing more can be measured on it
            }
        }
    }
    (samples, tally)
}

/// Per-window values of `f` over the samples falling in each window.
fn per_window(samples: &[Sample], window_s: f64, f: impl Fn(&[&Sample]) -> f64) -> Vec<f64> {
    let mut windows: Vec<Vec<&Sample>> = (0..WINDOWS).map(|_| Vec::new()).collect();
    for s in samples {
        if let Some(w) = window_of(s.at, window_s, WINDOWS) {
            windows[w].push(s);
        }
    }
    windows.iter().map(|w| f(w)).collect()
}

fn pct(samples: &[&Sample], field: impl Fn(&Sample) -> f64, p: f64) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|s| field(s)).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    stats::sort(&mut v);
    percentile(&v, p)
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Boots servers with `boot` — each call gets the repetition's index and
/// returns what to keep plus the boot's duration in seconds — killing each
/// before the next. Returns the last one kept and every duration.
fn boot_repeatedly<T>(
    mut boot: impl FnMut(usize) -> Result<(T, f64), String>,
) -> Result<(T, Vec<f64>), String> {
    let begin = Instant::now();
    let mut durations = Vec::new();
    let mut kept = None;
    while durations.len() < MIN_BOOTS
        || (durations.len() < MAX_BOOTS && begin.elapsed() < BOOT_BUDGET)
    {
        drop(kept.take()); // kill the previous boot before timing the next
        let (value, seconds) = boot(durations.len())?;
        durations.push(seconds);
        kept = Some(value);
    }
    Ok((kept.expect("MIN_BOOTS > 0"), durations))
}

pub fn run(w: &Workload, cfg: &Config) -> Result<Outcome, String> {
    let nproc = cfg.nproc;
    eprintln!(
        "# {}: nproc {nproc}, {CONNECTIONS} connections (one closed-loop reader, one paced \
         writer), seed {}, {} s",
        w.name, cfg.seed, cfg.seconds
    );
    if CONNECTIONS > nproc {
        return Err(format!(
            "{CONNECTIONS} connections on {nproc} core(s): the load generator would compete \
             with the server for them"
        ));
    }
    with_scratch_dir(
        cfg,
        w.name,
        |o: &Outcome| o.failed > 0,
        |dir| run_in(w, cfg, dir),
    )
}

fn run_in(w: &Workload, cfg: &Config, dir: &Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (dep, inputs) = Deployment::create(w, cfg, dir)?;
    let crate::deploy::Inputs {
        edges,
        edge_set,
        pair_edges,
        write_rel,
        mut model,
        mut write_rng,
    } = inputs;

    // Set-up: spawn → first correct reply to the workload's own request.
    let first_check = match w.limit {
        None => Check::Exact(model::expected(w.shape, w.header, &edges)),
        Some(k) => Check::Page {
            header: w.header,
            k,
            edges: &edge_set,
        },
    };
    let ((server, mut reader, pinned), setups) = boot_repeatedly(|i| {
        let server = dep.spawn(&format!("setup-{i}"))?;
        let mut conn = dep.connect(&server, &mut tally)?;
        let (_, reply) = conn
            .request(w.request, true)
            .map_err(|e| err(w.request, e))?;
        if !tally.check(first_check.accepts(&reply)) {
            return Err(format!(
                "the first reply to {:?} is wrong ({:?}, {} rows)",
                w.request, reply.status, reply.data_lines
            ));
        }
        let seconds = (reply.done - server.spawned).as_secs_f64();
        // A verified page pins every later reply to the same bytes.
        let pinned = Expected {
            rows: reply.data_lines,
            hash: reply.hash,
        };
        Ok(((server, conn, pinned), seconds))
    })?;
    let crash_image = dep.data_dir(&format!("setup-{}", setups.len() - 1));
    let mut writer = dep.connect(&server, &mut tally)?;

    // Oracle: the default engine, LFTJ and the harness's own join must agree.
    let pair_expected = model::expected(w.shape, w.header, &pair_edges);
    for request in [w.default_request, w.lftj_request] {
        let (_, reply) = reader
            .request(request, false)
            .map_err(|e| err(request, e))?;
        if !tally.check(pair_expected.matches(&reply)) {
            return Err(format!(
                "oracle disagreement on {request:?}: got {:?} / {} rows / hash {:x}, the \
                 harness's join has {} rows / hash {:x}",
                reply.status, reply.data_lines, reply.hash, pair_expected.rows, pair_expected.hash
            ));
        }
    }

    // Warm-up, then the main run: one pass, samples before `origin` dropped.
    // The reader is closed-loop; the writer is paced from the first instant.
    let warm = Duration::from_secs_f64(cfg.seconds * WARM_SHARE);
    let window_s = cfg.seconds / WINDOWS as f64;
    let begin = Instant::now();
    let origin = begin + warm;
    let until = origin + Duration::from_secs_f64(cfg.seconds);
    let main_check = if w.write_mix {
        Check::Ascending
    } else {
        Check::Exact(pinned)
    };
    let ops = model.schedule(
        &mut write_rng,
        (cfg.seconds * (1.0 + WARM_SHARE) * WRITE_RATE as f64) as usize,
    );
    let ((writes, write_tally), (queries, read_tally)) = std::thread::scope(|scope| {
        let writing = scope.spawn(|| write_loop(&mut writer, &ops, write_rel, begin, origin));
        let reading = scope.spawn(|| read_loop(&mut reader, w.request, &main_check, origin, until));
        (
            writing.join().expect("writer thread"),
            reading.join().expect("reader thread"),
        )
    });
    tally.absorb(&write_tally);
    tally.absorb(&read_tally);

    // At rest again: the answers must be the oracle's for the written state.
    let (rest_check, pair_expected) = if w.write_mix {
        let expected = model::expected(w.shape, w.header, &model.edges());
        (Check::Exact(expected), expected)
    } else {
        (Check::Exact(pinned), pair_expected)
    };

    // LFTJ ratio: the reader alternates the default engine and LFTJ.
    let ratio_until = Instant::now() + Duration::from_secs_f64(cfg.seconds * RATIO_SHARE);
    let (mut default_ms, mut lftj_ms) = (Vec::new(), Vec::new());
    while Instant::now() < ratio_until {
        for (request, into) in [
            (w.default_request, &mut default_ms),
            (w.lftj_request, &mut lftj_ms),
        ] {
            let (sent, reply) = reader
                .request(request, false)
                .map_err(|e| err(request, e))?;
            if tally.check(pair_expected.matches(&reply)) {
                into.push(ms(reply.done - sent));
            }
        }
    }

    // The full written relation, before the crash.
    let scan = format!("Q {write_rel}(x,y)");
    let (_, reply) = writer.request(&scan, true).map_err(|e| err(&scan, e))?;
    tally.attempted += model.edges().len() as u64;
    tally.failed += model.diff(reply.body.as_deref().unwrap_or_default());
    let peak_rss_mb = server.peak_rss_mb().map_err(|e| err("read VmHWM", e))?;

    // kill -9, then recover: restart → first PING → OK. A durable server
    // recovers a copy of the same crash image every time.
    drop((reader, writer));
    server.kill();
    let (server, recoveries) = boot_repeatedly(|i| {
        let tag = format!("recovery-{i}");
        if w.write_mix {
            copy_dir(&crash_image, &dep.data_dir(&tag)).map_err(|e| err("copy crash image", e))?;
        }
        let server = dep.spawn(&tag)?;
        let mut conn = Conn::connect(&server.addr).map_err(|e| err("connect", e))?;
        let (_, reply) = conn.request("PING", false).map_err(|e| err("PING", e))?;
        tally.check(reply.status == Ok(0));
        let seconds = (reply.done - server.spawned).as_secs_f64();
        Ok((server, seconds))
    })?;
    let mut conn = dep.connect(&server, &mut tally)?;
    if w.write_mix {
        // Every acknowledged write must have survived.
        let (_, reply) = conn.request(&scan, true).map_err(|e| err(&scan, e))?;
        tally.attempted += model.edges().len() as u64;
        tally.failed += model.diff(reply.body.as_deref().unwrap_or_default());
    }
    let (_, reply) = conn
        .request(w.request, false)
        .map_err(|e| err(w.request, e))?;
    tally.check(rest_check.accepts(&reply));
    drop(conn);
    server.kill();

    // Metrics: per-window values, the second-best window reported.
    let windows = |samples: &[Sample], field: fn(&Sample) -> f64, p: f64| {
        per_window(samples, window_s, |w| pct(w, field, p))
    };
    let counts = per_window(&queries, window_s, |w| w.len() as f64);
    let second_best = |name, parts: Vec<f64>, better: Better| {
        let mut ranked = parts.clone();
        stats::sort(&mut ranked);
        if better == Better::Higher {
            ranked.reverse();
        }
        let value = ranked.get(1).or(ranked.first()).copied();
        Value::new(name, value.unwrap_or(f64::NAN), parts)
    };
    let middle = |name, parts: Vec<f64>| Value::new(name, median(&parts), parts);
    let ratio = median(&default_ms) / median(&lftj_ms);
    let metrics = vec![
        middle("setup_s", setups),
        second_best(
            "query_p50_ms",
            windows(&queries, |s| s.total_ms, 0.5),
            Better::Lower,
        ),
        second_best(
            "query_p95_ms",
            windows(&queries, |s| s.total_ms, 0.95),
            Better::Lower,
        ),
        second_best(
            "first_row_p50_ms",
            windows(&queries, |s| s.first_ms, 0.5),
            Better::Lower,
        ),
        second_best(
            "throughput_qps",
            counts.iter().map(|c| c / window_s).collect(),
            Better::Higher,
        ),
        second_best(
            "write_p50_ms",
            windows(&writes, |s| s.total_ms, 0.5),
            Better::Lower,
        ),
        second_best(
            "write_p95_ms",
            windows(&writes, |s| s.total_ms, 0.95),
            Better::Lower,
        ),
        middle("ms_over_lftj", vec![ratio]),
        middle("peak_rss_mb", vec![peak_rss_mb]),
        middle("recovery_s", recoveries),
    ];
    let late = pct(&writes.iter().collect::<Vec<_>>(), |s| s.first_ms, 0.95);
    eprintln!(
        "# {}: ratio phase {} + {} samples (default p50 {:.3} ms, lftj p50 {:.3} ms), {} writes, \
         writer late p95 {late:.3} ms",
        w.name,
        default_ms.len(),
        lftj_ms.len(),
        median(&default_ms),
        median(&lftj_ms),
        writes.len(),
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        min_window_samples: counts.iter().fold(f64::INFINITY, |m, &c| m.min(c)) as usize,
        late_p95_ms: late,
    })
}
