//! Worker supervision, the I/O half: spawn, watch, signal, reap and
//! probe the fleet's children, and publish their state.
//!
//! Every decision is [`Fleet::step`]'s. This shell only turns what
//! happens into [`Event`]s — a spawn's outcome, a child's exit, its
//! `listening on ADDR` line, a probe's result, a timer tick, a reload
//! request, shutdown — and carries out the [`Action`]s that come back,
//! under one lock, apart from probes, which run on the tick thread with
//! the lock released.
//!
//! The tick thread never blocks on child I/O: worker stdout/stderr are
//! drained by dedicated reader threads (a full pipe would otherwise wedge
//! the child), and the address is scraped from the worker's own
//! `listening on ADDR` line. Readers carry the slot's spawn *epoch* so a
//! stale reader from a replaced child cannot resurrect state.

use super::fleet::{Action, Event, Fleet, Phase, Policy, Slot};
use crate::client::{self, ClientConfig};
use crate::json::Json;
use crate::telemetry;
use deptree_core::engine::signal;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStderr, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the supervisor needs to run one fleet of workers.
#[derive(Debug, Clone)]
pub(crate) struct SupervisorConfig {
    /// The worker binary (normally the `deptree` binary itself).
    pub worker_bin: PathBuf,
    /// Per-slot argv tail (`serve --data … --addr 127.0.0.1:0 …`).
    pub worker_args: Vec<Vec<String>>,
    pub policy: Policy,
}

/// The fleet and the children it decides about, kept in step.
struct Inner {
    fleet: Fleet,
    /// Each slot's child, with the epoch it was spawned in.
    children: Vec<Option<(u64, Child)>>,
}

/// Best-effort gateway log line on stderr; a closed stderr is ignored.
pub(crate) fn log(msg: &str) {
    let _ = writeln!(std::io::stderr().lock(), "gateway: {msg}");
}

/// The fleet plus the tick thread that feeds it time.
pub(crate) struct Supervisor {
    worker_bin: PathBuf,
    worker_args: Vec<Vec<String>>,
    inner: Mutex<Inner>,
    stop: AtomicBool,
    tick_thread: Mutex<Option<JoinHandle<()>>>,
}

/// Tick cadence: crash detection and respawn latency are bounded by this.
const TICK: Duration = Duration::from_millis(20);
/// How often shutdown polls the children for exit.
const REAP_POLL: Duration = Duration::from_millis(10);

impl Supervisor {
    /// Spawn every worker and the tick thread.
    pub fn start(cfg: SupervisorConfig) -> Arc<Supervisor> {
        let n = cfg.worker_args.len().max(1);
        let sup = Arc::new(Supervisor {
            worker_bin: cfg.worker_bin,
            worker_args: cfg.worker_args,
            inner: Mutex::new(Inner {
                fleet: Fleet::new(cfg.policy, n, Instant::now()),
                children: (0..n).map(|_| None).collect(),
            }),
            stop: AtomicBool::new(false),
            tick_thread: Mutex::new(None),
        });
        sup.tick();
        let ticker = Arc::clone(&sup);
        let handle = std::thread::Builder::new()
            .name("deptree-supervisor".to_owned())
            .spawn(move || {
                while !ticker.stop.load(Ordering::Acquire) {
                    std::thread::sleep(TICK);
                    ticker.tick();
                }
            })
            .ok();
        *sup.tick_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = handle;
        sup
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Step the fleet through `event` and carry out what it decides,
    /// feeding each spawn's outcome back in. Returns the actions left to
    /// the caller: probes, to run outside the lock, and a reload reply.
    fn apply(self: &Arc<Self>, inner: &mut Inner, event: Event, now: Instant) -> Vec<Action> {
        let mut events = VecDeque::from([event]);
        let mut rest = Vec::new();
        while let Some(event) = events.pop_front() {
            for action in inner.fleet.step(event, now) {
                match action {
                    Action::Spawn(slot, epoch) => {
                        if epoch > 1 {
                            telemetry::worker_restarts(slot).inc();
                        }
                        let pid = self.spawn(inner, slot, epoch);
                        events.push_back(Event::Spawned { slot, epoch, pid });
                    }
                    Action::Term(slot) => {
                        if let Some((_, child)) = &inner.children[slot] {
                            signal::send(child.id(), signal::SIGTERM);
                        }
                    }
                    Action::Kill(slot) | Action::ForceKill(slot) => {
                        if matches!(action, Action::ForceKill(_)) {
                            telemetry::gateway_metrics().force_kill.inc();
                        }
                        if let Some((_, mut child)) = inner.children[slot].take() {
                            let _ = child.kill();
                            let status = child.wait().ok();
                            if inner.fleet.stopping() {
                                log_exit(slot, child.id(), status);
                            }
                        }
                    }
                    Action::Log(msg) => log(&msg),
                    other => rest.push(other),
                }
            }
        }
        publish(&inner.fleet);
        rest
    }

    /// Start `slot`'s child and its reader threads; `None` when the spawn
    /// failed.
    fn spawn(self: &Arc<Self>, inner: &mut Inner, slot: usize, epoch: u64) -> Option<u32> {
        let args = self.worker_args.get(slot).cloned().unwrap_or_default();
        let spawned = Command::new(&self.worker_bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn();
        let mut child = match spawned {
            Ok(child) => child,
            Err(e) => {
                let bin = self.worker_bin.display();
                log(&format!("worker {slot}: spawn of {bin} failed: {e}"));
                return None;
            }
        };
        if let Some(out) = child.stdout.take() {
            let sup = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("deptree-w{slot}-out"))
                .spawn(move || scrape_stdout(&sup, slot, epoch, out))
                .ok();
        }
        if let Some(err) = child.stderr.take() {
            std::thread::Builder::new()
                .name(format!("deptree-w{slot}-err"))
                .spawn(move || forward_stderr(slot, err))
                .ok();
        }
        let pid = child.id();
        inner.children[slot] = Some((epoch, child));
        Some(pid)
    }

    /// Report every child that has exited (`try_wait` reaps it), then a
    /// tick. Returns the probes the tick asked for.
    fn poll(self: &Arc<Self>, inner: &mut Inner) -> Vec<Action> {
        let now = Instant::now();
        let mut events = Vec::new();
        for (slot, held) in inner.children.iter_mut().enumerate() {
            let status = match held.as_mut().map(|(_, child)| child.try_wait()) {
                None | Some(Ok(None)) => continue,
                Some(Ok(Some(status))) => Some(status),
                Some(Err(_)) => None,
            };
            if let Some((epoch, child)) = held.take() {
                if inner.fleet.stopping() {
                    log_exit(slot, child.id(), status);
                }
                events.push(Event::Exited { slot, epoch });
            }
        }
        events.push(Event::Tick);
        let mut probes = Vec::new();
        for event in events {
            probes.extend(self.apply(inner, event, now));
        }
        probes
    }

    /// One tick, then the probes it asked for, run with the lock released.
    fn tick(self: &Arc<Self>) {
        let probes = self.poll(&mut self.lock());
        for probe in probes {
            if let Action::Probe(slot, epoch, addr) = probe {
                let ok = probe_ready(&addr);
                let event = Event::Probed { slot, epoch, ok };
                self.apply(&mut self.lock(), event, Instant::now());
            }
        }
    }

    /// Start a rolling restart; `false` when one is already running.
    pub fn request_reload(self: &Arc<Self>) -> bool {
        self.apply(&mut self.lock(), Event::Reload, Instant::now())
            .contains(&Action::ReloadReply { started: true })
    }

    fn slots<T>(&self, read: impl FnOnce(&[Slot]) -> T) -> T {
        read(self.lock().fleet.slots())
    }

    /// Whether a rolling restart is running.
    pub fn reloading(&self) -> bool {
        self.lock().fleet.reloading()
    }

    /// The worker's address, if it is currently Up.
    pub fn worker_addr(&self, id: usize) -> Option<String> {
        self.slots(|slots| slots.get(id)?.addr.clone())
    }

    /// Every Up worker with its address.
    pub fn live(&self) -> Vec<(usize, String)> {
        self.slots(|slots| {
            let up = slots.iter().enumerate();
            up.filter_map(|(id, s)| Some((id, s.addr.clone()?)))
                .collect()
        })
    }

    /// How many slots are quarantined right now.
    pub fn quarantined_count(&self) -> usize {
        self.slots(quarantined)
    }

    /// Current child pids, one entry per slot (`None` while down).
    pub fn pids(&self) -> Vec<Option<u32>> {
        self.slots(|slots| slots.iter().map(|s| s.pid).collect())
    }

    /// Total respawns across the fleet (initial spawns not counted).
    pub fn restarts(&self) -> u64 {
        self.slots(|slots| slots.iter().map(Slot::restarts).sum())
    }

    /// How many worker slots the fleet has (fixed at start).
    pub fn slot_count(&self) -> usize {
        self.slots(<[Slot]>::len)
    }

    /// Respawn count of one slot.
    pub fn restarts_of(&self, id: usize) -> u64 {
        self.slots(|slots| slots.get(id).map_or(0, Slot::restarts))
    }

    /// Per-worker status for `/healthz`.
    pub fn status_json(&self) -> Vec<Json> {
        let status = |(id, s): (usize, &Slot)| {
            let mut j = Json::obj()
                .set("worker", id as u64)
                .set("phase", s.phase.name())
                .set("state", s.wire_state())
                .set("restarts", s.restarts());
            if let Some(addr) = &s.addr {
                j = j.set("addr", addr.as_str());
            }
            if let Some(pid) = s.pid {
                j = j.set("pid", u64::from(pid));
            }
            j
        };
        self.slots(|slots| slots.iter().enumerate().map(status).collect())
    }

    /// Stop ticking and take the fleet down: each child gets the SIGTERM
    /// `step` decides (none for one already draining), and whatever is
    /// still running when the shared grace expires is SIGKILLed. Returns
    /// once every child is reaped.
    pub fn shutdown(self: &Arc<Self>) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(h) = self
            .tick_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = h.join();
        }
        let mut inner = self.lock();
        self.apply(&mut inner, Event::Shutdown, Instant::now());
        while inner.children.iter().any(Option::is_some) {
            drop(inner);
            std::thread::sleep(REAP_POLL);
            inner = self.lock();
            self.poll(&mut inner);
        }
    }
}

/// Publish every slot to the one-hot state gauges, the liveness gauges
/// and the quarantine gauge.
fn publish(fleet: &Fleet) {
    for (id, s) in fleet.slots().iter().enumerate() {
        telemetry::set_slot_state(id, s.wire_state());
        telemetry::worker_up(id).set(i64::from(s.phase == Phase::Up));
    }
    let quarantined = quarantined(fleet.slots()) as i64;
    telemetry::gateway_metrics().quarantined.set(quarantined);
}

fn quarantined(slots: &[Slot]) -> usize {
    slots
        .iter()
        .filter(|s| s.phase == Phase::Quarantined)
        .count()
}

/// The shutdown audit line for one reaped child.
fn log_exit(slot: usize, pid: u32, status: Option<ExitStatus>) {
    let outcome = match status {
        Some(s) if s.success() => "exited cleanly".to_owned(),
        Some(s) => format!("exited with {s}"),
        None => "did not exit".to_owned(),
    };
    log(&format!("worker {slot} (pid {pid}) {outcome}"));
}

/// One `/readyz` round trip with no retries and tight timeouts: the
/// fleet's own failure counter is the retry policy.
fn probe_ready(addr: &str) -> bool {
    let cfg = ClientConfig {
        addr: addr.to_owned(),
        retries: 0,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(10),
        connect_timeout: Duration::from_millis(250),
        io_timeout: Duration::from_secs(1),
        frame_timeout: Duration::from_secs(2),
        seed: 0,
        max_response_bytes: 64 * 1024,
    };
    matches!(client::query(&cfg, "GET", "/readyz", None), Ok(r) if r.status == 200)
}

/// Drain the worker's stdout forever (a full pipe would wedge the child)
/// and report its `listening on ADDR` announcement.
fn scrape_stdout(sup: &Arc<Supervisor>, slot: usize, epoch: u64, out: ChildStdout) {
    for line in BufReader::new(out).lines().map_while(Result::ok) {
        if let Some(addr) = line.strip_prefix("listening on ") {
            let addr = addr.trim().to_owned();
            let mut inner = sup.lock();
            sup.apply(
                &mut inner,
                Event::Listening { slot, epoch, addr },
                Instant::now(),
            );
        }
    }
}

/// Relay the worker's stderr onto the gateway's, prefixed per worker.
fn forward_stderr(id: usize, err: ChildStderr) {
    for line in BufReader::new(err).lines().map_while(Result::ok) {
        log(&format!("worker {id} stderr: {line}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(bin: &str, args: Vec<Vec<String>>) -> SupervisorConfig {
        SupervisorConfig {
            worker_bin: PathBuf::from(bin),
            worker_args: args,
            policy: Policy {
                respawn_base: Duration::from_millis(20),
                respawn_max: Duration::from_millis(100),
                fast_crash: Duration::from_secs(1),
                quarantine_after: 3,
                quarantine_cooldown: Duration::from_secs(60),
                probe_interval: Duration::from_millis(100),
                probe_failures: 3,
                spawn_timeout: Duration::from_secs(5),
                child_grace: Duration::from_millis(500),
            },
        }
    }

    /// Poll until `cond` or the deadline; returns whether it held.
    fn wait_for(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        cond()
    }

    #[test]
    #[cfg(unix)]
    fn a_missing_binary_counts_as_fast_crashes_not_a_hot_loop() {
        let sup = Supervisor::start(tiny_cfg("/nonexistent/deptree-worker", vec![vec![]]));
        assert!(wait_for(
            || sup.quarantined_count() == 1,
            Duration::from_secs(10)
        ));
        // The spawn-fail path must count attempts, not spin: with base 20ms
        // and doubling, a hot loop would show hundreds of restarts.
        assert!(sup.restarts() < 10, "restarts = {}", sup.restarts());
        sup.shutdown();
    }

    #[test]
    #[cfg(unix)]
    fn a_draining_worker_gets_one_sigterm_through_shutdown() {
        // The worker logs each SIGTERM instead of exiting on it: a slow
        // drain that is still running when the fleet shuts down.
        let terms = std::env::temp_dir().join(format!("deptree-terms-{}", std::process::id()));
        let _ = std::fs::remove_file(&terms);
        let script = format!(
            "trap 'echo TERM >> {}' TERM; echo 'listening on 127.0.0.1:9'; \
             while :; do sleep 0.05; done",
            terms.display()
        );
        let mut cfg = tiny_cfg("sh", vec![vec!["-c".to_owned(), script]]);
        cfg.policy.probe_failures = u32::MAX; // the fake address never probes green
        cfg.policy.child_grace = Duration::from_secs(3);
        let sup = Supervisor::start(cfg);
        assert!(
            wait_for(|| sup.live().len() == 1, Duration::from_secs(10)),
            "worker never came up: {:?}",
            sup.status_json()
        );
        assert!(sup.request_reload(), "the reload drains the only worker");
        assert!(!sup.request_reload(), "a second request while one runs");
        let lines = || std::fs::read_to_string(&terms).map_or(0, |t| t.lines().count());
        assert!(
            wait_for(|| lines() == 1, Duration::from_secs(10)),
            "the drain's SIGTERM never arrived"
        );
        sup.shutdown();
        assert_eq!(
            lines(),
            1,
            "shutdown sent a draining worker a second SIGTERM"
        );
        assert_eq!(sup.pids()[0], None);
        let _ = std::fs::remove_file(&terms);
    }

    #[test]
    #[cfg(unix)]
    fn shutdown_reaps_a_long_running_child() {
        // `sleep 30` ignores nothing — SIGTERM kills it within the grace.
        let sup = Supervisor::start(tiny_cfg("sleep", vec![vec!["30".to_owned()]]));
        let pid = sup.pids()[0];
        assert!(pid.is_some(), "child did not spawn");
        let started = Instant::now();
        sup.shutdown();
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(sup.pids()[0], None);
    }
}
