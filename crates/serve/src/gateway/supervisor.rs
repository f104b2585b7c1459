//! Worker supervision: spawn, probe, respawn with backoff, quarantine,
//! probation, and coordinated drains for rolling restarts.
//!
//! Each worker slot walks a small state machine:
//!
//! ```text
//!          spawn ok             "listening on" scraped
//! Down ────────────▶ Starting ─────────────────────▶ Up ◀──────┐
//!  ▲                    │  spawn timeout               │        │ healthy for
//!  │                    ▼                              │        │ `fast_crash`
//!  └──── backoff ───── crash ◀───────────────────── exit /    (probation
//!                        │ K consecutive fast        N failed   passes, crash
//!                        ▼ crashes                   probes     fuel := 0)
//!                   Quarantined ── cooldown ──▶ Starting (probation)
//!
//!            begin_drain (SIGTERM)              child exits (or grace
//! Up ──────────────────────────────▶ Draining ─────────────────────▶ Starting
//!                                       │ grace expires: SIGKILL + audit
//!                                       └──────────────────────────▶ Starting
//! ```
//!
//! Respawn delay is `base · 2^consecutive_fast_crashes`, capped at
//! `respawn_max`; a crash after a healthy stretch (uptime ≥ `fast_crash`)
//! resets the streak. After `quarantine_after` consecutive fast crashes
//! the slot is **quarantined**: no respawn attempts for
//! `quarantine_cooldown`, so a wedged binary cannot hot-loop the
//! supervisor. Leaving quarantine is **probation**: one more fast crash
//! re-quarantines immediately (with a fresh cooldown), while surviving
//! `fast_crash` of uptime resets the crash fuel to zero — a worker that
//! recovered is indistinguishable from one that never crashed.
//! **Draining** is the planned counterpart of a crash: the slot leaves
//! the routable set, its child gets exactly one SIGTERM, and the respawn
//! carries no crash accounting. The slot's lifecycle is published as the
//! one-hot `deptree_worker_slot_state{slot,state}` gauge family.
//!
//! The tick thread never blocks on child I/O: worker stdout/stderr are
//! drained by dedicated reader threads (a full pipe would otherwise wedge
//! the child), and the address is scraped from the worker's own
//! `listening on ADDR` line. Readers carry the slot's spawn *epoch* so a
//! stale reader from a replaced child cannot resurrect state.

use crate::client::{self, ClientConfig};
use crate::json::Json;
use crate::telemetry;
use deptree_core::engine::signal;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStderr, ChildStdout, Command, Stdio};
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
    /// Base respawn delay after a crash.
    pub respawn_base: Duration,
    /// Cap on the exponential respawn delay.
    pub respawn_max: Duration,
    /// Uptime below this counts as a *fast* crash (quarantine fuel).
    pub fast_crash: Duration,
    /// Consecutive fast crashes before the slot is quarantined.
    pub quarantine_after: u32,
    /// How long a quarantined slot sits out before probation.
    pub quarantine_cooldown: Duration,
    /// How often an Up worker's `/readyz` is probed.
    pub probe_interval: Duration,
    /// Consecutive failed probes before the worker is declared dead.
    pub probe_failures: u32,
    /// How long a Starting worker may take to report its address.
    pub spawn_timeout: Duration,
    /// SIGTERM→SIGKILL grace per child at shutdown.
    pub child_grace: Duration,
}

/// Where a worker slot is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Child spawned, waiting for its `listening on` line.
    Starting,
    /// Address known, `/readyz` probes green (or not yet failed enough).
    Up,
    /// No child; a respawn is scheduled.
    Down,
    /// Crash-looping; respawns suspended for the cooldown.
    Quarantined,
    /// Planned drain (rolling restart): SIGTERM sent, waiting for the
    /// child to finish its in-flight work and exit; respawned without
    /// crash accounting.
    Draining,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Starting => "starting",
            Phase::Up => "up",
            Phase::Down => "down",
            Phase::Quarantined => "quarantined",
            Phase::Draining => "draining",
        }
    }
}

#[derive(Debug)]
struct SlotState {
    phase: Phase,
    addr: Option<String>,
    child: Option<Child>,
    pid: Option<u32>,
    /// Bumped on every spawn and teardown; readers from older children
    /// compare against it and drop their updates.
    epoch: u64,
    restarts: u64,
    fast_crashes: u32,
    probe_failures: u32,
    /// Up, but fresh out of quarantine: one fast crash re-quarantines,
    /// surviving `fast_crash` of uptime resets the crash fuel.
    probation: bool,
    spawned_at: Instant,
    last_probe: Instant,
    retry_at: Instant,
}

/// The lifecycle state published on the wire
/// (`deptree_worker_slot_state{state=…}` and `/healthz`).
fn wire_state(st: &SlotState) -> &'static str {
    match st.phase {
        Phase::Draining => "draining",
        Phase::Quarantined => "quarantined",
        Phase::Up if st.probation => "probation",
        Phase::Up => "up",
        Phase::Starting | Phase::Down => "respawning",
    }
}

/// Publish one slot's lifecycle to the one-hot gauge family.
fn publish(id: usize, st: &SlotState) {
    telemetry::set_slot_state(id, wire_state(st));
}

/// One supervised worker slot.
#[derive(Debug)]
pub(crate) struct Slot {
    id: usize,
    state: Mutex<SlotState>,
}

fn lock(slot: &Slot) -> MutexGuard<'_, SlotState> {
    slot.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort gateway log line on stderr; a closed stderr is ignored.
pub(crate) fn log(msg: &str) {
    let _ = writeln!(std::io::stderr().lock(), "gateway: {msg}");
}

/// The fleet: slots plus the tick thread that walks their state machines.
pub(crate) struct Supervisor {
    cfg: SupervisorConfig,
    slots: Vec<Arc<Slot>>,
    stop: AtomicBool,
    tick_thread: Mutex<Option<JoinHandle<()>>>,
}

/// Tick cadence: crash detection and respawn latency are bounded by this.
const TICK: Duration = Duration::from_millis(20);

impl Supervisor {
    /// Spawn every worker and the tick thread.
    pub fn start(cfg: SupervisorConfig) -> Arc<Supervisor> {
        let now = Instant::now();
        let slots = (0..cfg.worker_args.len().max(1))
            .map(|id| {
                Arc::new(Slot {
                    id,
                    state: Mutex::new(SlotState {
                        phase: Phase::Down,
                        addr: None,
                        child: None,
                        pid: None,
                        epoch: 0,
                        restarts: 0,
                        fast_crashes: 0,
                        probe_failures: 0,
                        probation: false,
                        spawned_at: now,
                        last_probe: now,
                        retry_at: now,
                    }),
                })
            })
            .collect();
        let sup = Arc::new(Supervisor {
            cfg,
            slots,
            stop: AtomicBool::new(false),
            tick_thread: Mutex::new(None),
        });
        for slot in &sup.slots {
            let mut st = lock(slot);
            sup.spawn_worker(slot, &mut st);
        }
        let ticker = Arc::clone(&sup);
        let handle = std::thread::Builder::new()
            .name("deptree-supervisor".to_owned())
            .spawn(move || {
                while !ticker.stop.load(Ordering::Acquire) {
                    ticker.tick();
                    std::thread::sleep(TICK);
                }
            })
            .ok();
        *sup.tick_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = handle;
        sup
    }

    /// The worker's address, if it is currently Up.
    pub fn worker_addr(&self, id: usize) -> Option<String> {
        let slot = self.slots.get(id)?;
        let st = lock(slot);
        if st.phase == Phase::Up {
            st.addr.clone()
        } else {
            None
        }
    }

    /// Every Up worker with its address.
    pub fn live(&self) -> Vec<(usize, String)> {
        self.slots
            .iter()
            .filter_map(|s| {
                let st = lock(s);
                if st.phase == Phase::Up {
                    st.addr.clone().map(|a| (s.id, a))
                } else {
                    None
                }
            })
            .collect()
    }

    /// How many workers are Up.
    pub fn live_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| lock(s).phase == Phase::Up)
            .count()
    }

    /// Current child pids, one entry per slot (`None` while down).
    pub fn pids(&self) -> Vec<Option<u32>> {
        self.slots.iter().map(|s| lock(s).pid).collect()
    }

    /// Total respawns across the fleet (initial spawns not counted).
    pub fn restarts(&self) -> u64 {
        self.slots.iter().map(|s| lock(s).restarts).sum()
    }

    /// How many slots are quarantined right now.
    pub fn quarantined_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| lock(s).phase == Phase::Quarantined)
            .count()
    }

    /// How many worker slots the fleet has (fixed at start).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Respawn count of one slot.
    pub fn restarts_of(&self, id: usize) -> u64 {
        self.slots.get(id).map_or(0, |s| lock(s).restarts)
    }

    /// Begin a planned drain of one Up slot (rolling restart): leave the
    /// routable set, send the child its single SIGTERM, and let the tick
    /// thread respawn it when it exits (force-killing at `child_grace`
    /// with an audit line). Returns `false` when the slot is not Up —
    /// the caller should skip it, the crash machinery already owns it.
    pub fn begin_drain(&self, id: usize) -> bool {
        let Some(slot) = self.slots.get(id) else {
            return false;
        };
        let pid = {
            let mut st = lock(slot);
            if st.phase != Phase::Up {
                return false;
            }
            let Some(pid) = st.pid else {
                return false;
            };
            st.phase = Phase::Draining;
            st.retry_at = Instant::now() + self.cfg.child_grace;
            // Routing reads `addr` only while Up, but clear it anyway so
            // no path can hand out a draining worker.
            st.addr = None;
            telemetry::worker_up(id).set(0);
            publish(id, &st);
            pid
        };
        // Exactly one SIGTERM, outside the lock: `deptree serve` treats
        // a second one as "force exit 130".
        signal::send(pid, signal::SIGTERM);
        log(&format!("worker {id} (pid {pid}) draining for restart"));
        true
    }

    /// Per-worker status for `/healthz`.
    pub fn status_json(&self) -> Vec<Json> {
        self.slots
            .iter()
            .map(|s| {
                let st = lock(s);
                let mut j = Json::obj()
                    .set("worker", s.id as u64)
                    .set("phase", st.phase.name())
                    .set("state", wire_state(&st))
                    .set("restarts", st.restarts);
                if let Some(addr) = &st.addr {
                    j = j.set("addr", addr.as_str());
                }
                if let Some(pid) = st.pid {
                    j = j.set("pid", u64::from(pid));
                }
                j
            })
            .collect()
    }

    fn spawn_worker(&self, slot: &Arc<Slot>, st: &mut SlotState) {
        st.epoch += 1;
        let epoch = st.epoch;
        let args = self
            .cfg
            .worker_args
            .get(slot.id)
            .cloned()
            .unwrap_or_default();
        let spawned = Command::new(&self.cfg.worker_bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn();
        match spawned {
            Ok(mut child) => {
                let pid = child.id();
                let stdout = child.stdout.take();
                let stderr = child.stderr.take();
                st.child = Some(child);
                st.pid = Some(pid);
                st.phase = Phase::Starting;
                st.addr = None;
                st.probe_failures = 0;
                st.spawned_at = Instant::now();
                publish(slot.id, st);
                if let Some(out) = stdout {
                    let s = Arc::clone(slot);
                    std::thread::Builder::new()
                        .name(format!("deptree-w{}-out", slot.id))
                        .spawn(move || scrape_stdout(&s, epoch, out))
                        .ok();
                }
                if let Some(err) = stderr {
                    let id = slot.id;
                    std::thread::Builder::new()
                        .name(format!("deptree-w{}-err", slot.id))
                        .spawn(move || forward_stderr(id, err))
                        .ok();
                }
            }
            Err(e) => {
                log(&format!(
                    "worker {}: spawn of {} failed: {e}",
                    slot.id,
                    self.cfg.worker_bin.display()
                ));
                st.child = None;
                st.pid = None;
                st.spawned_at = Instant::now(); // counts as an instant (fast) crash
                self.crash(slot.id, st, "spawn failed");
            }
        }
    }

    /// Tear down after a death: reap the child, account the crash streak,
    /// and schedule the respawn (or quarantine the slot).
    fn crash(&self, id: usize, st: &mut SlotState, why: &str) {
        if let Some(mut child) = st.child.take() {
            let _ = child.kill(); // no-op if already dead
            let _ = child.wait(); // reap — a zombie would outlive us
        }
        st.addr = None;
        st.pid = None;
        st.epoch += 1;
        st.probe_failures = 0;
        let was_probation = st.probation;
        st.probation = false;
        telemetry::worker_up(id).set(0);
        let fast = st.spawned_at.elapsed() < self.cfg.fast_crash;
        if fast {
            st.fast_crashes += 1;
        } else {
            st.fast_crashes = 0;
        }
        if st.fast_crashes >= self.cfg.quarantine_after {
            st.phase = Phase::Quarantined;
            // A fresh, full cooldown every time — a probation failure is
            // not cheaper than the original quarantine.
            st.retry_at = Instant::now() + self.cfg.quarantine_cooldown;
            let cause = if was_probation {
                " (probation failed)"
            } else {
                ""
            };
            log(&format!(
                "worker {id} quarantined after {} fast crashes{cause} ({why}); cooldown {:?}",
                st.fast_crashes, self.cfg.quarantine_cooldown
            ));
        } else {
            st.phase = Phase::Down;
            let shift = st.fast_crashes.min(16);
            let backoff = self
                .cfg
                .respawn_base
                .saturating_mul(1u32 << shift)
                .min(self.cfg.respawn_max);
            st.retry_at = Instant::now() + backoff;
            log(&format!("worker {id} down ({why}); respawn in {backoff:?}"));
        }
        publish(id, st);
    }

    fn tick(&self) {
        for slot in &self.slots {
            // What to do outside the lock: probes do network I/O and must
            // not serialize the whole fleet behind one slot's mutex.
            enum Action {
                None,
                Probe(String, u64),
            }
            let action = {
                let mut st = lock(slot);
                match st.phase {
                    Phase::Starting => {
                        if child_exited(&mut st) {
                            self.crash(slot.id, &mut st, "exited during startup");
                        } else if st.spawned_at.elapsed() > self.cfg.spawn_timeout {
                            self.crash(slot.id, &mut st, "no address before spawn timeout");
                        }
                        Action::None
                    }
                    Phase::Up => {
                        if child_exited(&mut st) {
                            self.crash(slot.id, &mut st, "exited");
                            Action::None
                        } else {
                            // A healthy stretch pays the crash fuel back
                            // to zero; for a probation slot that is the
                            // one-shot probation *passing*.
                            if st.fast_crashes > 0 && st.spawned_at.elapsed() >= self.cfg.fast_crash
                            {
                                st.fast_crashes = 0;
                                if st.probation {
                                    st.probation = false;
                                    log(&format!(
                                        "worker {} probation passed; crash fuel reset",
                                        slot.id
                                    ));
                                }
                                publish(slot.id, &st);
                            }
                            if st.last_probe.elapsed() >= self.cfg.probe_interval {
                                st.last_probe = Instant::now();
                                match &st.addr {
                                    Some(addr) => Action::Probe(addr.clone(), st.epoch),
                                    None => Action::None,
                                }
                            } else {
                                Action::None
                            }
                        }
                    }
                    Phase::Down | Phase::Quarantined => {
                        if Instant::now() >= st.retry_at {
                            if st.phase == Phase::Quarantined {
                                // Probation: one more fast crash re-quarantines.
                                st.fast_crashes = self.cfg.quarantine_after.saturating_sub(1);
                                st.probation = true;
                                log(&format!("worker {} leaves quarantine (probation)", slot.id));
                            }
                            st.restarts += 1;
                            telemetry::worker_restarts(slot.id).inc();
                            self.spawn_worker(slot, &mut st);
                        }
                        Action::None
                    }
                    Phase::Draining => {
                        if child_exited(&mut st) {
                            // Planned restart: no crash accounting, no
                            // backoff — respawn right away.
                            st.child = None;
                            st.pid = None;
                            st.epoch += 1;
                            st.fast_crashes = 0;
                            st.probation = false;
                            st.restarts += 1;
                            telemetry::worker_restarts(slot.id).inc();
                            log(&format!("worker {} drained; respawning", slot.id));
                            self.spawn_worker(slot, &mut st);
                        } else if Instant::now() >= st.retry_at {
                            // The drain grace expired: force the child
                            // down, leave an audit trail, respawn.
                            let pid = st.pid.unwrap_or(0);
                            if let Some(mut child) = st.child.take() {
                                let _ = child.kill();
                                let _ = child.wait();
                            }
                            telemetry::gateway_metrics().force_kill.inc();
                            log(&format!(
                                "worker {} (pid {pid}) force-killed: drain grace {:?} expired",
                                slot.id, self.cfg.child_grace
                            ));
                            st.pid = None;
                            st.epoch += 1;
                            st.fast_crashes = 0;
                            st.probation = false;
                            st.restarts += 1;
                            telemetry::worker_restarts(slot.id).inc();
                            self.spawn_worker(slot, &mut st);
                        }
                        Action::None
                    }
                }
            };
            if let Action::Probe(addr, epoch) = action {
                let ok = probe_ready(&addr);
                let mut st = lock(slot);
                if st.epoch != epoch || st.phase != Phase::Up {
                    continue; // the slot moved on while we probed
                }
                if ok {
                    st.probe_failures = 0;
                } else {
                    st.probe_failures += 1;
                    if st.probe_failures >= self.cfg.probe_failures {
                        self.crash(slot.id, &mut st, "failed readyz probes");
                    }
                }
            }
        }
        telemetry::gateway_metrics()
            .quarantined
            .set(self.quarantined_count() as i64);
    }

    /// Stop ticking and reap every child: SIGTERM exactly once each —
    /// `deptree serve` treats a *second* SIGTERM as "force exit 130", so
    /// double-signalling would turn every clean drain into a forced one —
    /// then wait it out under one shared `child_grace` deadline, SIGKILL
    /// past it.
    pub fn shutdown(&self) {
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
        let deadline = Instant::now() + self.cfg.child_grace;
        for slot in &self.slots {
            let mut st = lock(slot);
            st.epoch += 1;
            if let Some(mut child) = st.child.take() {
                // The deadline is shared: one wedged worker cannot make
                // shutdown take N × grace, it just costs later (healthy,
                // near-instant) workers their slack.
                let grace = deadline.saturating_duration_since(Instant::now());
                let reap = signal::reap_with_grace_report(&mut child, grace);
                if reap.forced {
                    // The audit trail for the satellite: which child ate
                    // its whole grace and had to be SIGKILLed.
                    telemetry::gateway_metrics().force_kill.inc();
                    log(&format!(
                        "worker {} (pid {}) force-killed: shutdown grace expired ({:?} shared)",
                        slot.id,
                        st.pid.unwrap_or(0),
                        self.cfg.child_grace
                    ));
                }
                let outcome = match reap.status {
                    Some(s) if s.success() => "exited cleanly".to_owned(),
                    Some(s) => format!("exited with {s}"),
                    None => "did not exit".to_owned(),
                };
                log(&format!(
                    "worker {} (pid {}) {outcome}",
                    slot.id,
                    st.pid.unwrap_or(0)
                ));
            }
            st.pid = None;
            st.addr = None;
            st.phase = Phase::Down;
            st.probation = false;
            telemetry::worker_up(slot.id).set(0);
            publish(slot.id, &st);
        }
    }
}

/// Did the slot's child exit? (`try_wait` also reaps it on success.)
fn child_exited(st: &mut SlotState) -> bool {
    match st.child.as_mut() {
        Some(child) => matches!(child.try_wait(), Ok(Some(_)) | Err(_)),
        None => true,
    }
}

/// One `/readyz` round trip with no retries and tight timeouts: the
/// supervisor's own failure counter is the retry policy.
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
/// and scrape its `listening on ADDR` announcement.
fn scrape_stdout(slot: &Arc<Slot>, epoch: u64, out: ChildStdout) {
    for line in BufReader::new(out).lines().map_while(Result::ok) {
        if let Some(addr) = line.strip_prefix("listening on ") {
            let mut st = lock(slot);
            if st.epoch == epoch && st.phase == Phase::Starting {
                st.addr = Some(addr.trim().to_owned());
                st.phase = Phase::Up;
                st.probe_failures = 0;
                st.last_probe = Instant::now();
                telemetry::worker_up(slot.id).set(1);
                publish(slot.id, &st);
                log(&format!(
                    "worker {} (pid {}) up at {}",
                    slot.id,
                    st.pid.unwrap_or(0),
                    addr.trim()
                ));
            }
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
            respawn_base: Duration::from_millis(20),
            respawn_max: Duration::from_millis(100),
            fast_crash: Duration::from_secs(1),
            quarantine_after: 3,
            quarantine_cooldown: Duration::from_secs(60),
            probe_interval: Duration::from_millis(100),
            probe_failures: 3,
            spawn_timeout: Duration::from_secs(5),
            child_grace: Duration::from_millis(500),
        }
    }

    #[test]
    #[cfg(unix)]
    fn a_crash_looping_command_ends_up_quarantined() {
        // `false` exits 1 immediately: three fast crashes then quarantine.
        let sup = Supervisor::start(tiny_cfg("false", vec![vec![]]));
        let deadline = Instant::now() + Duration::from_secs(10);
        while sup.quarantined_count() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            sup.quarantined_count(),
            1,
            "status: {:?}",
            sup.status_json()
        );
        // Quarantine means *no* further respawns during the cooldown.
        let restarts = sup.restarts();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(sup.restarts(), restarts, "respawned while quarantined");
        sup.shutdown();
    }

    #[test]
    #[cfg(unix)]
    fn a_missing_binary_counts_as_fast_crashes_not_a_hot_loop() {
        let sup = Supervisor::start(tiny_cfg("/nonexistent/deptree-worker", vec![vec![]]));
        let deadline = Instant::now() + Duration::from_secs(10);
        while sup.quarantined_count() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(sup.quarantined_count(), 1);
        // The spawn-fail path must count attempts, not spin: with base 20ms
        // and doubling, a hot loop would show hundreds of restarts.
        assert!(sup.restarts() < 10, "restarts = {}", sup.restarts());
        sup.shutdown();
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
    fn probation_failure_requarantines_with_a_fresh_cooldown() {
        // `false` crashes instantly, on probation too: every cooldown
        // buys exactly one doomed respawn, then a fresh quarantine.
        let mut cfg = tiny_cfg("false", vec![vec![]]);
        cfg.quarantine_after = 2;
        cfg.quarantine_cooldown = Duration::from_millis(300);
        let sup = Supervisor::start(cfg);
        assert!(
            wait_for(|| sup.quarantined_count() == 1, Duration::from_secs(10)),
            "never quarantined: {:?}",
            sup.status_json()
        );
        let restarts_at_quarantine = sup.restarts();
        // Cooldown expires → one probation respawn → instant crash →
        // quarantined again (not respawn-looping).
        assert!(
            wait_for(
                || sup.restarts() > restarts_at_quarantine,
                Duration::from_secs(10)
            ),
            "probation respawn never happened"
        );
        assert!(
            wait_for(|| sup.quarantined_count() == 1, Duration::from_secs(10)),
            "probation failure did not re-quarantine: {:?}",
            sup.status_json()
        );
        // The re-quarantine carries a *fresh* cooldown: well inside it,
        // no further respawn may happen.
        let restarts = sup.restarts();
        assert_eq!(
            restarts,
            restarts_at_quarantine + 1,
            "one respawn per probation"
        );
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            sup.restarts(),
            restarts,
            "respawned inside the fresh cooldown"
        );
        sup.shutdown();
    }

    #[test]
    #[cfg(unix)]
    fn probation_success_resets_crash_fuel_to_zero() {
        // The worker crashes instantly until the marker file exists,
        // then announces an address and stays up — quarantine, then a
        // probation that passes.
        let marker = std::env::temp_dir().join(format!("deptree-probation-{}", std::process::id()));
        let _ = std::fs::remove_file(&marker);
        let script = format!(
            "if [ -f '{m}' ]; then echo 'listening on 127.0.0.1:9'; exec sleep 30; else exit 1; fi",
            m = marker.display()
        );
        let mut cfg = tiny_cfg("sh", vec![vec!["-c".to_owned(), script]]);
        cfg.quarantine_after = 2;
        cfg.quarantine_cooldown = Duration::from_millis(200);
        cfg.fast_crash = Duration::from_millis(300);
        cfg.probe_failures = u32::MAX; // the fake addr never probes green
        let sup = Supervisor::start(cfg);
        assert!(
            wait_for(|| sup.quarantined_count() == 1, Duration::from_secs(10)),
            "never quarantined: {:?}",
            sup.status_json()
        );
        // Flip the worker healthy; the next probation spawn survives.
        std::fs::write(&marker, b"ok").unwrap();
        assert!(
            wait_for(
                || {
                    let st = lock(&sup.slots[0]);
                    st.phase == Phase::Up && st.probation
                },
                Duration::from_secs(10)
            ),
            "probation worker never came up: {:?}",
            sup.status_json()
        );
        {
            let st = lock(&sup.slots[0]);
            assert_eq!(wire_state(&st), "probation");
            assert!(st.fast_crashes > 0, "probation must still carry crash fuel");
        }
        // Surviving `fast_crash` of uptime passes probation and zeroes
        // the fuel: the recovered worker is indistinguishable from one
        // that never crashed.
        assert!(
            wait_for(
                || {
                    let st = lock(&sup.slots[0]);
                    st.phase == Phase::Up && !st.probation
                },
                Duration::from_secs(10)
            ),
            "probation never passed: {:?}",
            sup.status_json()
        );
        {
            let st = lock(&sup.slots[0]);
            assert_eq!(
                st.fast_crashes, 0,
                "probation success must reset crash fuel"
            );
            assert!(!st.probation);
            assert_eq!(wire_state(&st), "up");
        }
        let _ = std::fs::remove_file(&marker);
        sup.shutdown();
    }

    #[test]
    #[cfg(unix)]
    fn begin_drain_restarts_without_crash_accounting() {
        let script = "echo 'listening on 127.0.0.1:9'; exec sleep 30";
        let mut cfg = tiny_cfg("sh", vec![vec!["-c".to_owned(), script.to_owned()]]);
        cfg.probe_failures = u32::MAX;
        let sup = Supervisor::start(cfg);
        assert!(
            wait_for(|| sup.live_count() == 1, Duration::from_secs(10)),
            "worker never came up: {:?}",
            sup.status_json()
        );
        let pid_before = sup.pids()[0];
        assert!(sup.begin_drain(0), "drain of an Up slot must start");
        // A second drain of the same (now Draining) slot is refused.
        assert!(!sup.begin_drain(0));
        assert!(
            wait_for(
                || sup.live_count() == 1 && sup.pids()[0] != pid_before,
                Duration::from_secs(10)
            ),
            "drained worker never respawned: {:?}",
            sup.status_json()
        );
        let st = lock(&sup.slots[0]);
        assert_eq!(st.restarts, 1, "a planned restart counts as one restart");
        assert_eq!(st.fast_crashes, 0, "a planned restart is not a crash");
        drop(st);
        sup.shutdown();
    }

    #[test]
    #[cfg(unix)]
    fn shutdown_reaps_a_long_running_child() {
        // `sleep 30` ignores nothing — SIGTERM kills it within the grace.
        let sup = Supervisor::start(tiny_cfg("sleep", vec![vec!["30".to_owned()]]));
        std::thread::sleep(Duration::from_millis(100));
        let pid = sup.pids()[0];
        assert!(pid.is_some(), "child did not spawn");
        let started = Instant::now();
        sup.shutdown();
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(sup.pids()[0], None);
    }
}
