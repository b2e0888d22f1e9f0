//! What the untraced run and the traced pass share: a workload's generated
//! inputs on disk, the `msj serve` deployment over them, the pass/fail
//! tally, and the paced (open-loop) writer.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::gen::{uniform_graph, write_tsv, Edge, Rng};
use crate::model::{Model, WriteOp};
use crate::proc::Server;
use crate::wire::Conn;
use crate::workload::{Workload, SCRATCH, WRITE_RATE};

/// The load shape: exactly two connections against `--budget 2`.
pub const CONNECTIONS: usize = 2;
/// A write acknowledged later than this after its due instant has failed.
const WRITE_DEADLINE: Duration = Duration::from_secs(1);
/// `write_mix`'s flush policy — part of the workload definition. 800 records
/// are 4 s of paced writes: one checkpoint per window of the default run, at
/// the same offset in each.
pub const FSYNC_EVERY: u64 = 64;
pub const CHECKPOINT_EVERY: u64 = 800;
/// Size of the scratch relation read-only workloads direct writes at (the
/// size of `write_mix`'s own relation).
const SCRATCH_GRAPH: (u32, usize) = (400, 1_400);

pub struct Config {
    pub msj: PathBuf,
    /// Scratch root (`target/ledger`): inputs and data directories live in
    /// `<out>/<seed>/<workload>[-trace]/` and are removed on success;
    /// traces and result files written beside them are kept.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Logical CPUs, counted before the harness pinned itself to one.
    pub nproc: usize,
}

pub fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks made and checks failed; `failed ÷ attempted` is the error rate.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The seeded inputs of one workload.
pub struct Inputs {
    pub edges: Vec<Edge>,
    pub edge_set: HashSet<Edge>,
    /// The edges the default/LFTJ request pair joins: the sample's when the
    /// workload has one, else all.
    pub pair_edges: Vec<Edge>,
    /// The relation paced writes go to, and its set model.
    pub write_rel: &'static str,
    pub model: Model,
    /// Draws the write schedules.
    pub write_rng: Rng,
}

/// The files and flags of one workload's server.
pub struct Deployment<'a> {
    pub w: &'a Workload,
    msj: &'a Path,
    pub dir: PathBuf,
}

impl<'a> Deployment<'a> {
    /// Generates the workload's inputs from `cfg.seed` into `dir`.
    pub fn create(w: &'a Workload, cfg: &'a Config, dir: &Path) -> Result<(Self, Inputs), String> {
        let io_err = |e: std::io::Error| err("write inputs", e);
        let edges = w.edges(cfg.seed);
        write_tsv(&dir.join("graph.tsv"), &edges).map_err(io_err)?;
        let pair_edges: Vec<Edge> = match w.sample {
            Some((_, nodes)) => {
                let sample: Vec<Edge> = edges
                    .iter()
                    .copied()
                    .filter(|&(a, b)| a < nodes && b < nodes)
                    .collect();
                write_tsv(&dir.join("sample.tsv"), &sample).map_err(io_err)?;
                sample
            }
            None => edges.clone(),
        };
        let mut write_rng = Rng::new(cfg.seed ^ 0x5eed_0fd6);
        let (write_rel, model) = if w.write_mix {
            (w.relations[0], Model::new(&edges, w.nodes()))
        } else {
            let (nodes, count) = SCRATCH_GRAPH;
            let scratch = uniform_graph(&mut write_rng, nodes, count);
            write_tsv(&dir.join("scratch.tsv"), &scratch).map_err(io_err)?;
            (SCRATCH, Model::new(&scratch, nodes))
        };
        let deployment = Deployment {
            w,
            msj: &cfg.msj,
            dir: dir.to_path_buf(),
        };
        let inputs = Inputs {
            edge_set: edges.iter().copied().collect(),
            edges,
            pair_edges,
            write_rel,
            model,
            write_rng,
        };
        Ok((deployment, inputs))
    }

    pub fn data_dir(&self, tag: &str) -> PathBuf {
        self.dir.join(format!("data-{tag}"))
    }

    /// Spawns the server (a durable one over `data_dir(tag)`). The calling
    /// thread must outlive it: the child is set to die with the thread that
    /// spawned it.
    pub fn spawn(&self, tag: &str) -> Result<Server, String> {
        let mut args = Vec::new();
        let mut rel = |name: &str, file: &str| {
            args.push("--rel".to_string());
            args.push(format!("{name}={}", self.dir.join(file).display()));
        };
        for name in self.w.relations {
            rel(name, "graph.tsv");
        }
        if let Some((name, _)) = self.w.sample {
            rel(name, "sample.tsv");
        }
        if !self.w.write_mix {
            rel(SCRATCH, "scratch.tsv");
        }
        args.extend(["--budget".to_string(), CONNECTIONS.to_string()]);
        if self.w.write_mix {
            args.extend([
                "--data-dir".to_string(),
                self.data_dir(tag).display().to_string(),
                "--fsync".to_string(),
                format!("every={FSYNC_EVERY}"),
                "--checkpoint-every".to_string(),
                CHECKPOINT_EVERY.to_string(),
            ]);
        }
        Server::spawn(self.msj, &args, &self.dir.join("server.log")).map_err(|e| err("spawn", e))
    }

    /// A new connection with the workload's statements prepared.
    pub fn connect(&self, server: &Server, tally: &mut Tally) -> Result<Conn, String> {
        let mut conn = Conn::connect(&server.addr).map_err(|e| err("connect", e))?;
        for line in self.w.prepare {
            let (_, reply) = conn.request(line, false).map_err(|e| err(line, e))?;
            tally.check(reply.status == Ok(0));
        }
        Ok(conn)
    }
}

/// Runs `body` over a fresh `<out>/<seed>/<name>/` directory and removes it
/// afterwards unless the run errored or `failed(&result)` says a check did.
pub fn with_scratch_dir<T>(
    cfg: &Config,
    name: &str,
    failed: impl Fn(&T) -> bool,
    body: impl FnOnce(&Path) -> Result<T, String>,
) -> Result<T, String> {
    let seed_dir = cfg.out.join(cfg.seed.to_string());
    let dir = seed_dir.join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| err("create scratch directory", e))?;
    let result = body(&dir);
    match &result {
        Ok(value) if !failed(value) => {
            let _ = fs::remove_dir_all(&dir);
            let _ = fs::remove_dir(seed_dir); // succeeds once its last workload is gone
        }
        _ => eprintln!("# {name}: inputs and server log kept in {}", dir.display()),
    }
    result
}

/// One completed request: when it completed (seconds since the run's
/// origin; negative during warm-up) and its latencies.
pub struct Sample {
    pub at: f64,
    /// Send → first data row; for a paced write, how late it was sent.
    pub first_ms: f64,
    /// Send → control line; for a paced write, due instant → `OK`.
    pub total_ms: f64,
}

pub fn offset(t: Instant, origin: Instant) -> f64 {
    if t >= origin {
        (t - origin).as_secs_f64()
    } else {
        -(origin - t).as_secs_f64()
    }
}

/// When the `i`-th paced write is due.
pub fn due_instant(first_due: Instant, i: usize) -> Instant {
    first_due + Duration::from_secs_f64(i as f64 / WRITE_RATE as f64)
}

/// Sends `ops` open-loop at [`WRITE_RATE`], the first one due at
/// `first_due`. Latency runs from the due instant, not the send, so a stall
/// is charged to every write it delays.
pub fn write_loop(
    conn: &mut Conn,
    ops: &[WriteOp],
    relation: &str,
    first_due: Instant,
    origin: Instant,
) -> (Vec<Sample>, Tally) {
    let (mut samples, mut tally) = (Vec::with_capacity(ops.len()), Tally::default());
    for (i, op) in ops.iter().enumerate() {
        let due = due_instant(first_due, i);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        match conn.request(&op.line(relation), false) {
            Ok((sent, reply)) => {
                let latency = reply.done - due;
                if tally.check(reply.status == Ok(1) && latency <= WRITE_DEADLINE) {
                    samples.push(Sample {
                        at: offset(reply.done, origin),
                        first_ms: ms(sent - due),
                        total_ms: ms(latency),
                    });
                }
            }
            Err(_) => {
                tally.check(false);
                break; // the connection is gone
            }
        }
    }
    (samples, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// Against a peer that stalls once, the paced writer charges the stall
    /// to the writes queued behind it (latency from the due instant) and
    /// reports how late it sent them.
    #[test]
    fn open_loop_pacing_charges_a_stall_to_the_writes_behind_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
            let mut stream = stream;
            let mut seen = Vec::new();
            while let Some(Ok(line)) = lines.next() {
                if seen.is_empty() {
                    std::thread::sleep(Duration::from_millis(40)); // the stall
                }
                seen.push(line);
                stream.write_all(b"OK 1\n").unwrap();
            }
            seen
        });
        let ops: Vec<WriteOp> = (0..6)
            .map(|i| WriteOp {
                insert: i % 2 == 0,
                edge: (i, i + 1),
            })
            .collect();
        let mut conn = Conn::connect(&addr).unwrap();
        let start = Instant::now();
        let (samples, tally) = write_loop(&mut conn, &ops, "E", start, start);
        drop(conn);
        let seen = peer.join().unwrap();
        assert_eq!(seen[0], "W INSERT E 0 1");
        assert_eq!(seen[1], "W DELETE E 1 2");
        assert_eq!((tally.attempted, tally.failed, samples.len()), (6, 0, 6));
        // Write 0 waits out the stall; writes 1–5 were due at 5–25 ms, all
        // inside it, so they are sent late and their latency includes the wait.
        assert!(samples[0].total_ms >= 40.0 && samples[0].first_ms < 5.0);
        assert!(
            samples[1].first_ms >= 30.0,
            "sent {} ms late",
            samples[1].first_ms
        );
        assert!(samples[1].total_ms >= samples[1].first_ms);
        assert!(samples[5].total_ms >= 10.0, "still draining the backlog");
        assert!(samples.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn due_instants_follow_the_rate() {
        let t = Instant::now();
        assert_eq!(due_instant(t, 0), t);
        assert_eq!(
            due_instant(t, WRITE_RATE as usize),
            t + Duration::from_secs(1)
        );
    }
}
