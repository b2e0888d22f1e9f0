//! `ledger` — this repository's benchmark: drives a real `msj serve` child
//! over TCP for the end-to-end metrics, and (`--trace 1`) replays the same
//! inputs in-process with spans around each layer's public calls for the
//! per-layer metrics. README.md beside Cargo.toml is the manual.

mod deploy;
mod driver;
mod gen;
mod json;
mod layers;
mod metrics;
mod model;
mod proc;
mod report;
mod run;
mod stats;
mod trace;
mod wire;
mod workload;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use report::Record;

const USAGE: &str = "usage: ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
              [--json FILE] [--msj PATH] [--out DIR]
       ledger compare BASELINE.json CHANGE.json

Runs every workload (or the one named) against `msj serve` and prints each
metric by name with its unit; the last stdout line of each workload is one
JSON object {correct, attempted, failed, metrics}. --trace 1 runs the
per-layer traced pass instead of the end-to-end run. --json appends one
line per workload to FILE, the input of `ledger compare`.";

struct Args {
    workloads: Vec<&'static workload::Workload>,
    trace: bool,
    json: Option<String>,
    cfg: deploy::Config,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        trace: false,
        json: None,
        cfg: deploy::Config {
            msj: PathBuf::new(),
            out: PathBuf::from("target/ledger"),
            seed: 1,
            seconds: 16.0,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
    };
    let mut msj = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let known = workload::by_name(v).ok_or_else(|| {
                    let names: Vec<_> = workload::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload {v:?} (known: {})", names.join(", "))
                })?;
                parsed.workloads.push(known);
            }
            "--seed" => parsed.cfg.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                parsed.cfg.seconds = v.parse().ok().filter(|&s| s > 0.0).ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--json" => parsed.json = Some(value()?.clone()),
            "--msj" => msj = Some(value()?.clone()),
            "--out" => parsed.cfg.out = PathBuf::from(value()?),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = workload::ALL.iter().collect();
    }
    parsed.cfg.msj = proc::locate_msj(msj.as_deref())?;
    Ok(parsed)
}

fn run_one(w: &workload::Workload, args: &Args) -> Result<Record, String> {
    let (attempted, failed, values) = if args.trace {
        let o = layers::run(w, &args.cfg)?;
        (o.attempted, o.failed, o.values)
    } else {
        let o = run::run(w, &args.cfg)?;
        if o.late_p95_ms > 5.0 {
            eprintln!(
                "# {}: the paced writer ran {:.1} ms late at p95 — the generator, not the \
                 server, may be the bottleneck",
                w.name, o.late_p95_ms
            );
        }
        if !stats::supports(o.min_window_samples, 0.95) {
            eprintln!(
                "# {}: a window holds only {} query samples — fewer than {} lie beyond its p95",
                w.name,
                o.min_window_samples,
                stats::MIN_BEYOND
            );
        }
        (o.attempted, o.failed, o.metrics)
    };
    Ok(Record {
        workload: w.name.to_string(),
        seed: args.cfg.seed,
        trace: args.trace,
        attempted,
        failed,
        values,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match args.as_slice() {
            [_, a, b] => match report::compare(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("ledger compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread or server exists, so all of them inherit it.
    let nproc = args.cfg.nproc;
    if let Err(e) = proc::pin_to_last_cpu(nproc) {
        eprintln!(
            "ledger: cannot pin to CPU {}: {e} (continuing unpinned)",
            nproc - 1
        );
    }
    let mut all_correct = true;
    for w in &args.workloads {
        eprintln!("# {}: {}", w.name, w.why);
        let record = match run_one(w, &args) {
            Ok(record) => record,
            Err(e) => {
                // No result line: the run could not be measured at all.
                eprintln!("ledger: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "{} (seed {}, trace {}):",
            w.name,
            args.cfg.seed,
            u8::from(args.trace)
        );
        eprint!("{}", record.table());
        if let Some(path) = &args.json {
            let appended = std::fs::File::options()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{}", record.file_line()));
            if let Err(e) = appended {
                eprintln!("ledger: cannot append to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        all_correct &= record.correct();
        println!("{}", record.contract_line());
    }
    if !all_correct {
        eprintln!("ledger: some check failed — see `correct` and `failed` in the result lines");
    }
    // Exit 0 whenever every workload produced its result line: a failed
    // check is reported in the line, not by the exit code.
    ExitCode::SUCCESS
}
