//! The `msj serve` child process: spawn, discover the port, read its peak
//! memory, and `kill -9` it on every exit path.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Finds the `msj` binary: `--msj PATH` if given, else beside this
/// executable (one `CARGO_TARGET_DIR` holds both builds).
pub fn locate_msj(explicit: Option<&str>) -> Result<PathBuf, String> {
    let path = match explicit {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate this executable: {e}"))?
            .with_file_name("msj"),
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "msj binary not found at {} — build it with `cargo build --release --bin msj` into \
             the same target directory, or pass --msj PATH",
            path.display()
        ))
    }
}

/// A running `msj serve`. Dropping it kills the process and reaps it, so a
/// panic anywhere in the harness cannot leak a server.
pub struct Server {
    child: Child,
    /// Kept open: the server must never see its stdout close.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// The instant just before the process was spawned.
    pub spawned: Instant,
}

impl Server {
    /// Spawns `msj serve <args>` with stderr appended to `log`, and blocks
    /// until it announces `listening on HOST:PORT`.
    pub fn spawn(msj: &Path, args: &[String], log: &Path) -> io::Result<Server> {
        let stderr = File::options().create(true).append(true).open(log)?;
        let mut command = Command::new(msj);
        command
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        die_with_parent(&mut command);
        let spawned = Instant::now();
        let mut child = command.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "msj serve {} did not announce a port (said {line:?}); see {}",
                args.join(" "),
                log.display()
            )));
        };
        Ok(Server {
            child,
            addr: addr.to_string(),
            _stdout: stdout,
            spawned,
        })
    }

    /// The process's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc/<pid>/status"))
    }

    /// `kill -9`, then reap.
    pub fn kill(mut self) {
        self.kill_and_reap();
    }

    fn kill_and_reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}

/// Asks the kernel to SIGKILL the child when this process dies — the one
/// exit path `Drop` cannot cover (the harness itself being killed).
#[cfg(target_os = "linux")]
fn die_with_parent(command: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, arg2: usize, arg3: usize, arg4: usize, arg5: usize) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: usize = 9;
    // SAFETY: the closure runs in the forked child before exec and calls only
    // prctl(2), which is async-signal-safe and touches no memory.
    unsafe {
        command.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent(_command: &mut Command) {}

/// Pins this process — and, by inheritance, every thread and server it
/// spawns later — to the last CPU. Left alone, the guest scheduler of the
/// reference box flips, for minutes at a time, between co-locating a client
/// thread with the session thread that serves it and spreading them over
/// both virtual CPUs; every wake-up then turns from a local context switch
/// into an IPI to a halted vCPU (ping round trip 8 µs → 50 µs, write p50
/// 0.12 → 0.20 ms, `first_page` p50 0.26 → 0.33 ms). One closed-loop reader
/// keeps one CPU busy at most, so one CPU holds the whole load, every wake-up
/// is local, and the other CPU absorbs the rest of the machine's activity.
#[cfg(target_os = "linux")]
pub fn pin_to_last_cpu(nproc: usize) -> io::Result<()> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mask: u64 = 1 << (nproc.clamp(1, 64) - 1);
    // SAFETY: `mask` is a live 8-byte CPU set and the size passed is its size;
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_last_cpu(_nproc: usize) -> io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_msj_is_a_clear_error() {
        let err = locate_msj(Some("/nonexistent/msj")).unwrap_err();
        assert!(
            err.contains("/nonexistent/msj") && err.contains("--msj"),
            "{err}"
        );
    }
}
