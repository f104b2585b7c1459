//! Child processes: building `deptree`, invoking the CLI, running
//! `deptree serve`, and reading peak memory from `/proc`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The repository root (this package's parent directory).
pub fn repo_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    here.parent().unwrap_or(here).to_path_buf()
}

/// Build `deptree` from the checkout, release profile, into the target
/// directory this benchmark was built into, and return the binary. A
/// no-op build takes well under a second; it runs before any timing.
pub fn build_deptree() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the benchmark binary is not inside a cargo target directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "deptree",
            "--manifest-path",
        ])
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building deptree failed ({status})"));
    }
    let bin = target_dir.join("release").join("deptree");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// `VmHWM` (peak resident set) of a live process in KiB, if it is
/// running the binary named `name` (the check skips the instant between
/// fork and exec, when the child still shows this process's memory).
pub fn vm_hwm_kib(pid: u32, name: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let mut lines = status.lines();
    let comm = lines.next()?.strip_prefix("Name:")?.trim();
    if comm != name {
        return None;
    }
    lines
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// One finished CLI invocation.
pub struct Invocation {
    /// From spawn to exit, with stdout read.
    pub wall: Duration,
    /// Whether it exited 0.
    pub success: bool,
    /// Everything it printed to stdout.
    pub stdout: Vec<u8>,
    /// Everything it printed to stderr.
    pub stderr: Vec<u8>,
    /// The largest `VmHWM` sampled while it ran, in KiB.
    pub peak_kib: u64,
}

/// How often the memory sampler reads `/proc` during an invocation.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// Run `deptree` once to completion. A second thread samples its peak
/// resident set from `/proc` while the calling thread waits.
pub fn invoke(bin: &Path, args: &[&str]) -> Result<Invocation, String> {
    let start = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .env_remove("DEPTREE_THREADS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                if let Some(kib) = vm_hwm_kib(pid, "deptree") {
                    peak = peak.max(kib);
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
            peak
        });
        let output = child.wait_with_output();
        let wall = start.elapsed();
        done.store(true, Ordering::Relaxed);
        let peak_kib = sampler.join().unwrap_or(0);
        let output = output.map_err(|e| format!("waiting for deptree failed: {e}"))?;
        Ok(Invocation {
            wall,
            success: output.status.success(),
            stdout: output.stdout,
            stderr: output.stderr,
            peak_kib,
        })
    })
}

/// A running `deptree serve`, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
    /// The address it announced.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn `deptree serve <args>` and wait for its `listening on`
    /// line, which it prints once every dataset is loaded.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .env_remove("DEPTREE_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn deptree serve: {e}"))?;
        let mut stdout = child.stdout.take().map(BufReader::new);
        let mut line = String::new();
        let announced = stdout
            .as_mut()
            .and_then(|out| out.read_line(&mut line).ok())
            .and_then(|_| line.trim().strip_prefix("listening on ")?.parse().ok());
        // Built before the check so that a failure still kills the child.
        let server = Server {
            child,
            _stdout: stdout,
            addr: announced.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
        };
        match announced {
            Some(_) => Ok(server),
            None => Err("deptree serve exited before announcing its address".into()),
        }
    }

    /// The server's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_kib(self.child.id(), "deptree").map(|kib| kib as f64 / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
