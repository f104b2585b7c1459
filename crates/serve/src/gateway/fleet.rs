//! The fleet's decisions as one pure state machine: [`Fleet::step`].
//!
//! `step` takes one [`Event`] and the time it happened and returns the
//! [`Action`]s to carry out. It reads no clock, takes no lock, spawns,
//! signals and probes nothing, and touches neither telemetry nor logs;
//! the supervisor shell does that and turns the outcomes into events. A
//! unit test enumerates every reachable state of a small fleet.
//!
//! ```text
//!          spawn             "listening on"
//! Down ────────────▶ Starting ──────────────▶ Up ── reload: SIGTERM ──▶ Draining
//!  ▲ backoff due       │ exit, spawn failure    │ exit, probe_failures     │ exit, or grace
//!  │                   ▼ or spawn timeout       ▼ failed probes            ▼ due: SIGKILL
//!  └─────────────── crash ◀─────────────────────┘                 Starting (no crash
//!                     │ quarantine_after-th consecutive fast crash  accounting)
//!                     ▼
//!                Quarantined ── cooldown due ──▶ Starting (probation)
//! ```
//!
//! * After `k` consecutive fast crashes (uptime below `fast_crash`) the
//!   respawn waits `min(respawn_base · 2^k, respawn_max)`.
//! * Leaving quarantine is probation with `quarantine_after − 1` crash
//!   fuel: one more fast crash re-quarantines with a fresh, full
//!   cooldown; `fast_crash` of uptime resets the fuel to zero.
//! * A child gets at most one SIGTERM — from a drain or from shutdown,
//!   never both — and no signal after it is reaped.
//! * A drain clears the slot's crash fuel and probation.
//! * A reload drains the slots Up at the request one at a time, only
//!   while every other slot that is not quarantined is Up, and moves on
//!   once the drained slot is Up again and probed green. A slot replaced
//!   since the request (crashed and respawned) is skipped, so with no
//!   crash each restarts exactly once.
//! * Each spawn starts a new epoch; an event about an older child, or one
//!   its slot's phase does not expect, changes nothing.

use std::time::{Duration, Instant};

/// The timers and thresholds every decision is made by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Policy {
    pub respawn_base: Duration,
    pub respawn_max: Duration,
    /// Uptime below this makes a crash fast (quarantine fuel).
    pub fast_crash: Duration,
    pub quarantine_after: u32,
    pub quarantine_cooldown: Duration,
    pub probe_interval: Duration,
    /// Consecutive failed probes that crash a slot.
    pub probe_failures: u32,
    /// How long a Starting child may take to announce its address.
    pub spawn_timeout: Duration,
    /// SIGTERM → SIGKILL grace, for a drain and for shutdown.
    pub child_grace: Duration,
}

/// Where a worker slot is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Child spawned, waiting for its `listening on` line.
    Starting,
    /// Address known; routable while its probes hold.
    Up,
    /// No child; a respawn is due at `Slot::due`.
    Down,
    /// Crash-looping; no respawn before `Slot::due`.
    Quarantined,
    /// Planned drain: SIGTERM sent, waiting for the child to exit.
    Draining,
}

impl Phase {
    /// The phase's name in `/healthz`.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Starting => "starting",
            Phase::Up => "up",
            Phase::Down => "down",
            Phase::Quarantined => "quarantined",
            Phase::Draining => "draining",
        }
    }
}

/// The slot's child process, as far as signals go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Child {
    /// None, or already reaped.
    Gone,
    Running,
    /// Has had its one SIGTERM.
    Termed,
}

/// One worker slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Slot {
    pub phase: Phase,
    pub child: Child,
    /// Spawns so far; events about an older child carry an older epoch.
    pub epoch: u64,
    pub pid: Option<u32>,
    /// The announced address; `Some` exactly while Up.
    pub addr: Option<String>,
    /// Consecutive fast crashes: the quarantine fuel.
    pub fast_crashes: u32,
    pub probe_failures: u32,
    /// Up fresh out of quarantine, still carrying crash fuel.
    pub probation: bool,
    pub spawned_at: Instant,
    pub probe_at: Instant,
    /// Respawn (Down), end of cooldown (Quarantined) or end of grace
    /// (Draining, and every child while stopping).
    pub due: Instant,
}

impl Slot {
    /// The lifecycle state published on the wire
    /// (`deptree_worker_slot_state{state=…}` and `/healthz`).
    pub fn wire_state(&self) -> &'static str {
        match self.phase {
            Phase::Draining => "draining",
            Phase::Quarantined => "quarantined",
            Phase::Up if self.probation => "probation",
            Phase::Up => "up",
            Phase::Starting | Phase::Down => "respawning",
        }
    }

    /// Spawns after the first.
    pub fn restarts(&self) -> u64 {
        self.epoch.saturating_sub(1)
    }
}

/// A rolling restart in progress.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Reload {
    /// Slots Up at the request and not yet drained, in slot order, each
    /// with the epoch it had then.
    todo: Vec<(usize, u64)>,
    /// The slot drained last, until it is Up again and probed green.
    waiting: Option<usize>,
}

/// Something that happened to the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Event {
    /// Timers: spawn timeout, fast-crash age, probe, backoff, cooldown
    /// and grace.
    Tick,
    /// The outcome of [`Action::Spawn`]: the pid, `None` when it failed.
    Spawned {
        slot: usize,
        epoch: u64,
        pid: Option<u32>,
    },
    /// The child printed `listening on ADDR`.
    Listening {
        slot: usize,
        epoch: u64,
        addr: String,
    },
    /// The outcome of [`Action::Probe`].
    Probed { slot: usize, epoch: u64, ok: bool },
    /// The child exited and was reaped.
    Exited { slot: usize, epoch: u64 },
    /// `POST /admin/reload` or SIGHUP.
    Reload,
    /// Stop the fleet: no more spawns, every child down.
    Shutdown,
}

/// What the shell must do, for the slot named first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Action {
    /// Start a child in this epoch and report [`Event::Spawned`].
    Spawn(usize, u64),
    /// Send the child its one SIGTERM.
    Term(usize),
    /// SIGKILL and reap what is left of a crashed child.
    Kill(usize),
    /// SIGKILL and reap a child that outlived its grace; counted.
    ForceKill(usize),
    /// Probe `/readyz` at the address and report [`Event::Probed`].
    Probe(usize, u64, String),
    /// One `gateway:` log line.
    Log(String),
    /// The answer to [`Event::Reload`].
    ReloadReply { started: bool },
}

/// Every slot, the rolling restart, and whether the fleet is stopping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Fleet {
    policy: Policy,
    slots: Vec<Slot>,
    reload: Option<Reload>,
    stopping: bool,
}

macro_rules! log {
    ($out:expr, $($arg:tt)*) => {
        $out.push(Action::Log(format!($($arg)*)))
    };
}

/// `min(base · 2^k, max)`.
fn backoff(p: &Policy, k: u32) -> Duration {
    2u32.checked_pow(k)
        .and_then(|m| p.respawn_base.checked_mul(m))
        .map_or(p.respawn_max, |d| d.min(p.respawn_max))
}

impl Fleet {
    /// `n` slots, all Down and due now: the first tick spawns them.
    pub fn new(policy: Policy, n: usize, now: Instant) -> Fleet {
        let slot = Slot {
            phase: Phase::Down,
            child: Child::Gone,
            epoch: 0,
            pid: None,
            addr: None,
            fast_crashes: 0,
            probe_failures: 0,
            probation: false,
            spawned_at: now,
            probe_at: now,
            due: now,
        };
        Fleet {
            policy,
            slots: vec![slot; n.max(1)],
            reload: None,
            stopping: false,
        }
    }

    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    pub fn reloading(&self) -> bool {
        self.reload.is_some()
    }

    pub fn stopping(&self) -> bool {
        self.stopping
    }

    /// Decide what `event` at `now` does to the fleet.
    pub fn step(&mut self, event: Event, now: Instant) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Tick => self.tick(now, &mut out),
            Event::Spawned { slot, epoch, pid }
                if self.expects(slot, epoch, Phase::Starting) && self.slots[slot].pid.is_none() =>
            {
                match pid {
                    Some(pid) => {
                        self.slots[slot].child = Child::Running;
                        self.slots[slot].pid = Some(pid);
                    }
                    None => self.crash(slot, now, "spawn failed", &mut out),
                }
            }
            Event::Listening { slot, epoch, addr }
                if self.expects(slot, epoch, Phase::Starting) =>
            {
                let s = &mut self.slots[slot];
                s.phase = Phase::Up;
                s.probe_failures = 0;
                s.probe_at = now;
                log!(
                    out,
                    "worker {slot} (pid {}) up at {addr}",
                    s.pid.unwrap_or(0)
                );
                s.addr = Some(addr);
            }
            Event::Probed { slot, epoch, ok } if self.expects(slot, epoch, Phase::Up) => {
                let s = &mut self.slots[slot];
                s.probe_failures = if ok {
                    0
                } else {
                    s.probe_failures.saturating_add(1)
                };
                let reload = self
                    .reload
                    .as_mut()
                    .filter(|r| ok && r.waiting == Some(slot));
                if let Some(r) = reload {
                    r.waiting = None;
                    log!(out, "rolling restart: worker {slot} restarted and ready");
                } else if !ok && s.probe_failures >= self.policy.probe_failures {
                    self.crash(slot, now, "failed readyz probes", &mut out);
                }
            }
            Event::Spawned { .. } | Event::Listening { .. } | Event::Probed { .. } => {}
            Event::Exited { slot, epoch } => {
                let s = &mut self.slots[slot];
                if s.epoch == epoch && s.child != Child::Gone {
                    s.child = Child::Gone;
                    match s.phase {
                        _ if self.stopping => s.pid = None,
                        Phase::Starting => self.crash(slot, now, "exited during startup", &mut out),
                        Phase::Up => self.crash(slot, now, "exited", &mut out),
                        Phase::Draining => {
                            log!(out, "worker {slot} drained; respawning");
                            self.spawn(slot, now, &mut out);
                        }
                        Phase::Down | Phase::Quarantined => {}
                    }
                }
            }
            Event::Reload => {
                let started = self.reload.is_none() && !self.stopping;
                out.push(Action::ReloadReply { started });
                if started {
                    let todo: Vec<(usize, u64)> = (self.slots.iter().enumerate())
                        .filter(|(_, s)| s.phase == Phase::Up)
                        .map(|(slot, s)| (slot, s.epoch))
                        .collect();
                    let (k, n) = (todo.len(), self.slots.len());
                    log!(
                        out,
                        "rolling restart: cycling {k} of {n} worker(s) one at a time"
                    );
                    self.reload = Some(Reload {
                        todo,
                        waiting: None,
                    });
                }
            }
            Event::Shutdown => self.shutdown(now, &mut out),
        }
        self.advance_reload(now, &mut out);
        out
    }

    /// Is an event about the slot's current child, in a phase expecting it?
    fn expects(&self, slot: usize, epoch: u64, phase: Phase) -> bool {
        let s = &self.slots[slot];
        !self.stopping && s.epoch == epoch && s.phase == phase
    }

    fn tick(&mut self, now: Instant, out: &mut Vec<Action>) {
        for slot in 0..self.slots.len() {
            let (p, s) = (&self.policy, &mut self.slots[slot]);
            let (pid, grace) = (s.pid.unwrap_or(0), p.child_grace);
            if self.stopping {
                if s.child != Child::Gone && now >= s.due {
                    log!(out, "worker {slot} (pid {pid}) force-killed: shutdown grace expired ({grace:?} shared)");
                    out.push(Action::ForceKill(slot));
                    s.child = Child::Gone;
                    s.pid = None;
                }
                continue;
            }
            match s.phase {
                Phase::Starting if now >= s.spawned_at + p.spawn_timeout => {
                    self.crash(slot, now, "no address before spawn timeout", out);
                }
                Phase::Up => {
                    if (s.fast_crashes > 0 || s.probation) && now >= s.spawned_at + p.fast_crash {
                        s.fast_crashes = 0;
                        if std::mem::take(&mut s.probation) {
                            log!(out, "worker {slot} probation passed; crash fuel reset");
                        }
                    }
                    if now >= s.probe_at {
                        s.probe_at = now + p.probe_interval;
                        if let Some(addr) = &s.addr {
                            out.push(Action::Probe(slot, s.epoch, addr.clone()));
                        }
                    }
                }
                Phase::Down | Phase::Quarantined if now >= s.due => {
                    if s.phase == Phase::Quarantined {
                        s.fast_crashes = p.quarantine_after.saturating_sub(1);
                        s.probation = true;
                        log!(out, "worker {slot} leaves quarantine (probation)");
                    }
                    self.spawn(slot, now, out);
                }
                Phase::Draining if now >= s.due => {
                    log!(
                        out,
                        "worker {slot} (pid {pid}) force-killed: drain grace {grace:?} expired"
                    );
                    out.push(Action::ForceKill(slot));
                    s.child = Child::Gone;
                    self.spawn(slot, now, out);
                }
                Phase::Starting | Phase::Down | Phase::Quarantined | Phase::Draining => {}
            }
        }
    }

    fn spawn(&mut self, slot: usize, now: Instant, out: &mut Vec<Action>) {
        let s = &mut self.slots[slot];
        s.epoch += 1;
        s.phase = Phase::Starting;
        s.pid = None;
        s.addr = None;
        s.probe_failures = 0;
        s.spawned_at = now;
        out.push(Action::Spawn(slot, s.epoch));
    }

    /// The slot's child died or was declared dead: kill what is left of
    /// it, count the crash, and schedule the respawn or quarantine.
    fn crash(&mut self, slot: usize, now: Instant, why: &str, out: &mut Vec<Action>) {
        let (p, s) = (&self.policy, &mut self.slots[slot]);
        if s.child != Child::Gone {
            out.push(Action::Kill(slot));
            s.child = Child::Gone;
        }
        s.pid = None;
        s.addr = None;
        s.probe_failures = 0;
        let was_probation = std::mem::take(&mut s.probation);
        let fast = now < s.spawned_at + p.fast_crash;
        s.fast_crashes = if fast {
            s.fast_crashes.saturating_add(1)
        } else {
            0
        };
        let k = s.fast_crashes;
        if k >= p.quarantine_after {
            s.phase = Phase::Quarantined;
            s.due = now + p.quarantine_cooldown;
            let cause = if was_probation {
                " (probation failed)"
            } else {
                ""
            };
            let cooldown = p.quarantine_cooldown;
            log!(out, "worker {slot} quarantined after {k} fast crashes{cause} ({why}); cooldown {cooldown:?}");
        } else {
            let delay = backoff(p, k);
            s.phase = Phase::Down;
            s.due = now + delay;
            log!(out, "worker {slot} down ({why}); respawn in {delay:?}");
        }
    }

    /// Every child gets its SIGTERM unless it already had one, under one
    /// shared grace; nothing respawns any more.
    fn shutdown(&mut self, now: Instant, out: &mut Vec<Action>) {
        if std::mem::replace(&mut self.stopping, true) {
            return;
        }
        self.reload = None;
        for (slot, s) in self.slots.iter_mut().enumerate() {
            s.phase = Phase::Down;
            s.addr = None;
            s.probation = false;
            s.due = now + self.policy.child_grace;
            match s.child {
                Child::Running => {
                    out.push(Action::Term(slot));
                    s.child = Child::Termed;
                }
                Child::Termed => {}
                Child::Gone => s.pid = None,
            }
        }
    }

    /// Move the rolling restart on as far as its rules allow.
    fn advance_reload(&mut self, now: Instant, out: &mut Vec<Action>) {
        let Fleet {
            policy,
            slots,
            reload,
            ..
        } = self;
        let Some(r) = reload.as_mut().filter(|r| r.waiting.is_none()) else {
            return;
        };
        while let Some(&(slot, epoch)) = r.todo.first() {
            if slots[slot].epoch != epoch || slots[slot].phase == Phase::Quarantined {
                log!(
                    out,
                    "rolling restart: worker {slot} already replaced; skipped"
                );
                r.todo.remove(0);
                continue;
            }
            if (slots.iter()).any(|s| !matches!(s.phase, Phase::Up | Phase::Quarantined)) {
                return;
            }
            r.todo.remove(0);
            r.waiting = Some(slot);
            let s = &mut slots[slot];
            s.phase = Phase::Draining;
            s.child = Child::Termed;
            s.addr = None;
            s.fast_crashes = 0;
            s.probation = false;
            s.due = now + policy.child_grace;
            out.push(Action::Term(slot));
            log!(
                out,
                "worker {slot} (pid {}) draining for restart",
                s.pid.unwrap_or(0)
            );
            return;
        }
        log!(out, "rolling restart: complete");
        *reload = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashSet, VecDeque};

    /// The enumeration's unit of time: every policy duration is a whole
    /// number of units, every guard is non-strict, and time advances one
    /// unit at a time, so each order in which deadlines can fall is met.
    const U: Duration = Duration::from_millis(1);

    /// Small enough to enumerate, and every rule still shows: the backoff
    /// doubles once and then hits its cap, probation carries fuel, two
    /// failed probes crash, a spawn timeout is not a fast crash.
    fn rich() -> Policy {
        Policy {
            respawn_base: U,
            respawn_max: 2 * U,
            fast_crash: U,
            quarantine_after: 3,
            quarantine_cooldown: 2 * U,
            probe_interval: U,
            probe_failures: 2,
            spawn_timeout: U,
            child_grace: U,
        }
    }

    /// For three slots, where the point is the rules that need more than
    /// one — the reload's and shutdown's: every duration one unit, the
    /// second fast crash quarantines, one failed probe crashes.
    fn lean() -> Policy {
        Policy {
            respawn_max: U,
            quarantine_after: 2,
            quarantine_cooldown: U,
            probe_failures: 1,
            ..rich()
        }
    }

    /// Epoch of every slot in a decoded state.
    const E: u64 = 8;
    const ADDR: &str = "127.0.0.1:1";

    /// What the checker records for itself, from events and actions,
    /// apart from the fleet's own bookkeeping.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct World {
        /// Each slot's process as the OS sees it.
        proc: Vec<Child>,
        /// When each quarantined slot's cooldown ends.
        cooldown_end: Vec<Instant>,
        /// Up at the reload request, and not yet drained or replaced.
        target: Vec<bool>,
        /// Up at the reload request.
        was_up: Vec<bool>,
        /// Spawns since the reload request, capped at 2.
        respawned: Vec<u8>,
        /// The slot the reload drained last, until a green probe of it.
        waiting: Option<usize>,
        /// Some slot crashed since the reload request.
        crashed: bool,
    }

    impl World {
        fn new(n: usize, now: Instant) -> World {
            World {
                proc: vec![Child::Gone; n],
                cooldown_end: vec![now; n],
                target: vec![false; n],
                was_up: vec![false; n],
                respawned: vec![0; n],
                waiting: None,
                crashed: false,
            }
        }
    }

    fn units(d: Duration) -> u64 {
        (d.as_nanos() / U.as_nanos()) as u64
    }

    /// Bits of a state key, least significant first.
    struct Packer(u128, u32);

    impl Packer {
        fn put(&mut self, v: u64, bits: u32) {
            assert!(v < 1 << bits, "{v} does not fit {bits} bits");
            self.0 |= u128::from(v) << self.1;
            self.1 += bits;
        }
        /// `v` where `relevant`, else zero.
        fn put_if(&mut self, relevant: bool, v: u64, bits: u32) {
            self.put(if relevant { v } else { 0 }, bits);
        }
        fn take(&mut self, bits: u32) -> u64 {
            let v = (self.0 >> self.1) as u64 & ((1 << bits) - 1);
            self.1 += bits;
            v
        }
    }

    const PHASES: [Phase; 5] = [
        Phase::Starting,
        Phase::Up,
        Phase::Down,
        Phase::Quarantined,
        Phase::Draining,
    ];
    const CHILDREN: [Child; 3] = [Child::Gone, Child::Running, Child::Termed];

    fn index<T: PartialEq>(all: &[T], v: &T) -> u64 {
        all.iter().position(|x| x == v).unwrap() as u64
    }

    /// The abstract state: the fleet and the checker's record with every
    /// time reduced to what the policy's boundaries can tell apart — a
    /// deadline as the units left until it (0 once due), the uptime as
    /// units capped at the largest threshold it is compared with — and
    /// every field no transition of the slot's phase reads set to zero.
    /// Epochs are kept only as "the current one or not". The probe timer
    /// is left out: it only decides when a probe is sent, and probe
    /// results are enumerated at every step anyway.
    fn encode(f: &Fleet, w: &World, now: Instant) -> u128 {
        let p = &f.policy;
        let left = |t: Instant| units(t.saturating_duration_since(now));
        let mut k = Packer(0, 0);
        for (i, s) in f.slots.iter().enumerate() {
            let live = !f.stopping;
            let timed = |phases: &[Phase]| live && phases.contains(&s.phase);
            k.put(index(&PHASES, &s.phase), 3);
            k.put(index(&CHILDREN, &s.child), 2);
            k.put_if(live, u64::from(s.fast_crashes), 2);
            let probed = live && s.phase == Phase::Up;
            k.put_if(probed, u64::from(s.probe_failures), 2);
            k.put(u64::from(live && s.probation), 1);
            k.put(u64::from(s.addr.is_some()), 1);
            k.put(u64::from(s.pid.is_some()), 1);
            let age = units(now.saturating_duration_since(s.spawned_at));
            let age = match s.phase {
                Phase::Starting if live => age.min(units(p.fast_crash.max(p.spawn_timeout))),
                Phase::Up if live => age.min(units(p.fast_crash)),
                _ => 0,
            };
            k.put(age, 2);
            let due = timed(&[Phase::Down, Phase::Quarantined, Phase::Draining])
                || (f.stopping && s.child != Child::Gone);
            k.put_if(due, left(s.due), 2);
            k.put(index(&CHILDREN, &w.proc[i]), 2);
            let cooling = s.phase == Phase::Quarantined;
            k.put_if(cooling, left(w.cooldown_end[i]), 2);
            let r = f.reload.is_some();
            k.put(u64::from(r && w.target[i]), 1);
            let counted = r && !w.crashed;
            k.put(u64::from(counted && w.was_up[i]), 1);
            k.put_if(counted, u64::from(w.respawned[i]), 2);
            let todo = f
                .reload
                .as_ref()
                .and_then(|r| r.todo.iter().find(|t| t.0 == i));
            k.put(
                todo.map_or(0, |&(_, e)| if e == s.epoch { 1 } else { 2 }),
                2,
            );
        }
        let r = f.reload.as_ref();
        k.put(u64::from(r.is_some()), 1);
        k.put(r.and_then(|r| r.waiting).map_or(0, |s| s as u64 + 1), 2);
        k.put(u64::from(f.stopping), 1);
        k.put_if(r.is_some(), w.waiting.map_or(0, |s| s as u64 + 1), 2);
        k.put(u64::from(r.is_some() && w.crashed), 1);
        k.0
    }

    /// A fleet and record in the state `key` names, at time `now`.
    fn decode(key: u128, p: &Policy, n: usize, now: Instant) -> (Fleet, World) {
        let mut f = Fleet::new(p.clone(), n, now);
        let mut w = World::new(n, now);
        let mut k = Packer(key, 0);
        let at = |u: u64| now + U * u as u32;
        let mut todo = Vec::new();
        for i in 0..n {
            let s = &mut f.slots[i];
            s.epoch = E;
            s.phase = PHASES[k.take(3) as usize];
            s.child = CHILDREN[k.take(2) as usize];
            s.fast_crashes = k.take(2) as u32;
            s.probe_failures = k.take(2) as u32;
            s.probation = k.take(1) == 1;
            s.addr = (k.take(1) == 1).then(|| ADDR.to_owned());
            s.pid = (k.take(1) == 1).then_some(1);
            s.spawned_at = now - U * k.take(2) as u32;
            s.due = at(k.take(2));
            w.proc[i] = CHILDREN[k.take(2) as usize];
            w.cooldown_end[i] = at(k.take(2));
            w.target[i] = k.take(1) == 1;
            w.was_up[i] = k.take(1) == 1;
            w.respawned[i] = k.take(2) as u8;
            match k.take(2) {
                1 => todo.push((i, E)),
                2 => todo.push((i, E - 1)),
                _ => {}
            }
        }
        let active = k.take(1) == 1;
        let waiting = k.take(2).checked_sub(1).map(|s| s as usize);
        f.reload = active.then_some(Reload { todo, waiting });
        f.stopping = k.take(1) == 1;
        w.waiting = k.take(2).checked_sub(1).map(|s| s as usize);
        w.crashed = k.take(1) == 1;
        (f, w)
    }

    /// `min(base · 2^k, max)`, by repeated doubling.
    fn expected_backoff(p: &Policy, k: u32) -> Duration {
        let mut d = p.respawn_base;
        for _ in 0..k {
            d = d.saturating_mul(2);
        }
        d.min(p.respawn_max)
    }

    /// Check one step — `pre` became `post` on `ev` at `now`, deciding
    /// `acts` — against the rules, and bring the record up to date.
    fn check_step(
        pre: &Fleet,
        ev: &Event,
        acts: &[Action],
        post: &Fleet,
        w: &mut World,
        now: Instant,
    ) {
        let p = &pre.policy;
        let ctx = || format!("on {ev:?} deciding {acts:?}\nfrom {pre:#?}\nto {post:#?}");
        if let Event::Exited { slot, epoch } = *ev {
            if pre.slots[slot].epoch == epoch {
                w.proc[slot] = Child::Gone;
            }
        }
        if pre.reload.is_none() && post.reload.is_some() {
            for (i, s) in pre.slots.iter().enumerate() {
                w.target[i] = s.phase == Phase::Up;
                w.was_up[i] = s.phase == Phase::Up;
                w.respawned[i] = 0;
            }
            w.waiting = None;
            w.crashed = false;
        }
        let reloading = pre.reload.is_some() || post.reload.is_some();
        if let Event::Probed {
            slot,
            epoch,
            ok: true,
        } = *ev
        {
            let s = &pre.slots[slot];
            if s.phase == Phase::Up && s.epoch == epoch && w.waiting == Some(slot) && !pre.stopping
            {
                w.waiting = None;
            }
        }
        for a in acts {
            match *a {
                Action::Term(slot) => {
                    assert_eq!(
                        w.proc[slot],
                        Child::Running,
                        "(a) a second SIGTERM, or one after the reap, {}",
                        ctx()
                    );
                    w.proc[slot] = Child::Termed;
                }
                Action::Kill(slot) | Action::ForceKill(slot) => {
                    assert_ne!(
                        w.proc[slot],
                        Child::Gone,
                        "(a) SIGKILL after the reap, {}",
                        ctx()
                    );
                    w.proc[slot] = Child::Gone;
                }
                Action::Spawn(slot, epoch) => {
                    assert_eq!(
                        w.proc[slot],
                        Child::Gone,
                        "a slot with a live child spawned, {}",
                        ctx()
                    );
                    assert_eq!(epoch, pre.slots[slot].epoch + 1, "{}", ctx());
                    if pre.slots[slot].phase == Phase::Quarantined {
                        assert!(
                            now >= w.cooldown_end[slot],
                            "(b) spawned inside its cooldown, {}",
                            ctx()
                        );
                        let s = &post.slots[slot];
                        assert!(
                            s.probation && s.fast_crashes == p.quarantine_after - 1,
                            "(b) probation keeps quarantine_after - 1 fuel, {}",
                            ctx()
                        );
                    }
                    w.target[slot] = false;
                    if reloading {
                        w.respawned[slot] = (w.respawned[slot] + 1).min(2);
                    }
                }
                Action::Probe(slot, epoch, _) => {
                    let s = &post.slots[slot];
                    assert!(
                        s.phase == Phase::Up && s.epoch == epoch,
                        "probe of a slot not Up, {}",
                        ctx()
                    );
                }
                Action::Log(_) | Action::ReloadReply { .. } => {}
            }
        }
        for (i, (a, b)) in pre.slots.iter().zip(&post.slots).enumerate() {
            // (f) restarts count every spawn after the first.
            let spawns = acts
                .iter()
                .filter(|x| matches!(x, Action::Spawn(slot, _) if *slot == i))
                .count() as u64;
            let first = u64::from(a.epoch == 0 && spawns > 0);
            assert_eq!(
                b.restarts(),
                a.restarts() + spawns - first,
                "(f) restarts, {}",
                ctx()
            );
            // (b), (c) a crash counts its fuel, then backs off or quarantines.
            if !post.stopping
                && matches!(a.phase, Phase::Starting | Phase::Up)
                && matches!(b.phase, Phase::Down | Phase::Quarantined)
            {
                let fast = now < a.spawned_at + p.fast_crash;
                let k = if fast { a.fast_crashes + 1 } else { 0 };
                assert_eq!(b.fast_crashes, k, "(b) crash fuel, {}", ctx());
                if k >= p.quarantine_after {
                    assert_eq!(b.phase, Phase::Quarantined, "{}", ctx());
                    assert_eq!(
                        b.due,
                        now + p.quarantine_cooldown,
                        "(b) a fresh, full cooldown, {}",
                        ctx()
                    );
                    w.cooldown_end[i] = now + p.quarantine_cooldown;
                } else {
                    assert!(
                        !(a.probation && fast),
                        "(b) a failed probation re-quarantines, {}",
                        ctx()
                    );
                    assert_eq!(b.phase, Phase::Down, "{}", ctx());
                    assert_eq!(
                        b.due,
                        now + expected_backoff(p, k),
                        "(c) backoff after {k} fast crashes, {}",
                        ctx()
                    );
                }
                w.crashed = true;
            }
            // (b) surviving `fast_crash` resets the fuel and ends probation.
            if *ev == Event::Tick && b.phase == Phase::Up && now >= b.spawned_at + p.fast_crash {
                assert!(
                    b.fast_crashes == 0 && !b.probation,
                    "(b) fuel reset after fast_crash of uptime, {}",
                    ctx()
                );
            }
            // Slow: fewer than `probe_failures` failed probes never crash.
            if let Event::Probed {
                slot, ok: false, ..
            } = *ev
            {
                if slot == i && a.phase == Phase::Up && b.phase != Phase::Up {
                    assert_eq!(
                        a.probe_failures + 1,
                        p.probe_failures,
                        "a slow worker crashed early, {}",
                        ctx()
                    );
                }
            }
            // (e) a drain: one slot at a time, only with every other slot
            // that is not quarantined Up, only after the previous drained
            // slot probed green, only of a slot Up at the request, once.
            if a.phase == Phase::Up && b.phase == Phase::Draining {
                assert!(
                    w.target[i],
                    "(e) drained a slot that was not Up at the request, or twice, {}",
                    ctx()
                );
                assert_eq!(
                    w.waiting,
                    None,
                    "(e) moved on before the drained slot probed green, {}",
                    ctx()
                );
                for (j, s) in post.slots.iter().enumerate() {
                    assert!(
                        j == i || matches!(s.phase, Phase::Up | Phase::Quarantined),
                        "(e) drained while slot {j} is out of service, {}",
                        ctx()
                    );
                }
                assert!(acts.contains(&Action::Term(i)), "{}", ctx());
                assert!(
                    b.fast_crashes == 0 && !b.probation,
                    "(e) a drain clears crash fuel and probation, {}",
                    ctx()
                );
                w.target[i] = false;
                w.waiting = Some(i);
            }
        }
        if pre.reload.is_some() && post.reload.is_none() && !post.stopping {
            assert_eq!(
                w.waiting,
                None,
                "(e) finished before the last drained slot probed green, {}",
                ctx()
            );
            if !w.crashed {
                for i in 0..post.slots.len() {
                    assert!(
                        !w.was_up[i] || w.respawned[i] == 1,
                        "(e) with no crash, slot {i} must restart exactly once, {}",
                        ctx()
                    );
                }
            }
        }
        if post.reload.is_some() && !w.crashed {
            for i in 0..post.slots.len() {
                assert!(
                    !w.was_up[i] || w.respawned[i] <= 1,
                    "(e) with no crash, slot {i} restarted twice, {}",
                    ctx()
                );
            }
        }
    }

    /// The wire-state mapping (f).
    fn wire(s: &Slot) -> &'static str {
        match (s.phase, s.probation) {
            (Phase::Up, false) => "up",
            (Phase::Up, true) => "probation",
            (Phase::Starting | Phase::Down, _) => "respawning",
            (Phase::Quarantined, _) => "quarantined",
            (Phase::Draining, _) => "draining",
        }
    }

    /// Invariants of every reachable state, and (d): an event carrying a
    /// stale epoch changes nothing.
    fn check_state(f: &Fleet, w: &World, now: Instant) {
        let ctx = || format!("{f:#?}\n{w:#?}");
        assert!(
            f.slots
                .iter()
                .filter(|s| s.phase == Phase::Draining)
                .count()
                <= 1,
            "(e) two slots draining, {}",
            ctx()
        );
        if f.stopping {
            assert!(f.reload.is_none(), "{}", ctx());
        }
        for (i, s) in f.slots.iter().enumerate() {
            assert_eq!(
                s.child,
                w.proc[i],
                "the fleet lost track of a child, {}",
                ctx()
            );
            assert_eq!(s.pid.is_some(), s.child != Child::Gone, "{}", ctx());
            assert_eq!(s.addr.is_some(), s.phase == Phase::Up, "{}", ctx());
            assert_eq!(s.wire_state(), wire(s), "(f) wire state, {}", ctx());
            let child = match s.phase {
                _ if f.stopping => s.child,
                Phase::Starting | Phase::Up => Child::Running,
                Phase::Draining => Child::Termed,
                Phase::Down | Phase::Quarantined => Child::Gone,
            };
            assert_eq!(s.child, child, "{}", ctx());
            assert!(!f.stopping || s.phase == Phase::Down, "{}", ctx());
            let stale = [Some(s.epoch + 1), s.epoch.checked_sub(1)];
            for epoch in stale.into_iter().flatten() {
                let slot = i;
                for ev in [
                    Event::Exited { slot, epoch },
                    Event::Listening {
                        slot,
                        epoch,
                        addr: ADDR.to_owned(),
                    },
                    Event::Probed {
                        slot,
                        epoch,
                        ok: true,
                    },
                    Event::Probed {
                        slot,
                        epoch,
                        ok: false,
                    },
                    Event::Spawned {
                        slot,
                        epoch,
                        pid: Some(2),
                    },
                    Event::Spawned {
                        slot,
                        epoch,
                        pid: None,
                    },
                ] {
                    let mut g = f.clone();
                    let acts = g.step(ev.clone(), now);
                    assert!(
                        acts.is_empty() && g == *f,
                        "(d) stale {ev:?} changed the fleet: {acts:?}, {}",
                        ctx()
                    );
                }
            }
        }
    }

    /// Step `ev` at `now`, then feed back each spawn's outcome — both,
    /// unless `spawns_fail` is false — checking every step. Returns every
    /// resulting fleet and record.
    fn run(
        f: &Fleet,
        w: &World,
        ev: Event,
        now: Instant,
        spawns_fail: bool,
    ) -> Vec<(Fleet, World)> {
        let mut done = Vec::new();
        let mut stack = vec![(f.clone(), w.clone(), VecDeque::from([ev]))];
        while let Some((mut f, mut w, mut queue)) = stack.pop() {
            let Some(ev) = queue.pop_front() else {
                done.push((f, w));
                continue;
            };
            let pre = f.clone();
            let acts = f.step(ev.clone(), now);
            check_step(&pre, &ev, &acts, &f, &mut w, now);
            let spawns: Vec<(usize, u64)> = (acts.iter())
                .filter_map(|a| match *a {
                    Action::Spawn(slot, epoch) => Some((slot, epoch)),
                    _ => None,
                })
                .collect();
            let outcomes = if spawns_fail { 1 << spawns.len() } else { 1 };
            for failures in 0..outcomes {
                let (mut w, mut queue) = (w.clone(), queue.clone());
                for (j, &(slot, epoch)) in spawns.iter().enumerate() {
                    let ok = failures >> j & 1 == 0;
                    if ok {
                        w.proc[slot] = Child::Running;
                    }
                    let pid = ok.then_some(epoch as u32);
                    queue.push_back(Event::Spawned { slot, epoch, pid });
                }
                stack.push((f.clone(), w, queue));
            }
        }
        done
    }

    /// Every event the fleet can meet in state `f`: timers, requests,
    /// and for each slot what its child and its probes can report.
    fn events(f: &Fleet, w: &World) -> Vec<Event> {
        let mut evs = vec![Event::Tick, Event::Reload, Event::Shutdown];
        for (slot, s) in f.slots.iter().enumerate() {
            let epoch = s.epoch;
            if w.proc[slot] != Child::Gone {
                evs.push(Event::Exited { slot, epoch });
            }
            if s.phase == Phase::Starting {
                evs.push(Event::Listening {
                    slot,
                    epoch,
                    addr: ADDR.to_owned(),
                });
            }
            if s.phase == Phase::Up {
                evs.push(Event::Probed {
                    slot,
                    epoch,
                    ok: true,
                });
                evs.push(Event::Probed {
                    slot,
                    epoch,
                    ok: false,
                });
            }
        }
        evs
    }

    /// The rule-abiding events only: children exit only when drained or
    /// stopped, announce themselves, and probe green.
    fn healthy_events(f: &Fleet, w: &World) -> Vec<Event> {
        let mut evs = Vec::new();
        for (slot, s) in f.slots.iter().enumerate() {
            let epoch = s.epoch;
            match s.phase {
                Phase::Draining if w.proc[slot] == Child::Termed => {
                    evs.push(Event::Exited { slot, epoch })
                }
                Phase::Starting => evs.push(Event::Listening {
                    slot,
                    epoch,
                    addr: ADDR.to_owned(),
                }),
                Phase::Up => evs.push(Event::Probed {
                    slot,
                    epoch,
                    ok: true,
                }),
                _ => {}
            }
        }
        evs.push(Event::Tick);
        evs
    }

    /// Breadth-first search over every abstract state `n` slots can
    /// reach, checking every step and every state. Returns the number
    /// of states.
    fn enumerate(n: usize, p: &Policy) -> usize {
        let t0 = Instant::now() + Duration::from_secs(1);
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        let start = (Fleet::new(p.clone(), n, t0), World::new(n, t0));
        let mut reloads = Vec::new();
        let mut frontier = vec![start.clone()];
        loop {
            for (f, w) in frontier.drain(..) {
                let key = encode(&f, &w, t0);
                if seen.insert(key) {
                    queue.push_back(key);
                }
            }
            let Some(key) = queue.pop_front() else { break };
            // The first state keeps its epochs at zero, for (f).
            let (f, w) = if seen.len() == 1 {
                start.clone()
            } else {
                decode(key, p, n, t0)
            };
            assert_eq!(encode(&f, &w, t0), key, "decode is encode's inverse");
            check_state(&f, &w, t0);
            if f.reload.is_some() {
                reloads.push(key);
            }
            for ev in events(&f, &w) {
                frontier.extend(run(&f, &w, ev, t0, true));
            }
            // Time passes by one unit: re-key the state one unit later.
            let later = encode(&f, &w, t0 + U);
            if seen.insert(later) {
                queue.push_back(later);
            }
        }
        // Liveness: from every state a reload runs in, rule-abiding
        // events alone finish it.
        let mut finishes: HashSet<u128> = HashSet::new();
        for key in reloads {
            let (mut f, mut w) = decode(key, p, n, t0);
            let mut now = t0;
            let mut path = Vec::new();
            for _ in 0..64 {
                let k = encode(&f, &w, now);
                if f.reload.is_none() || finishes.contains(&k) {
                    break;
                }
                path.push(k);
                for ev in healthy_events(&f, &w) {
                    let mut next = run(&f, &w, ev, now, false);
                    assert_eq!(next.len(), 1);
                    (f, w) = next.remove(0);
                }
                now += U;
            }
            assert!(
                f.reload.is_none() || finishes.contains(&encode(&f, &w, now)),
                "a reload that rule-abiding events never finish: {f:#?}"
            );
            finishes.extend(path);
        }
        seen.len()
    }

    #[test]
    fn every_reachable_state_of_one_to_three_slots_keeps_the_rules() {
        for (n, p) in [(1, rich()), (2, rich()), (3, lean())] {
            let started = std::time::Instant::now();
            let states = enumerate(n, &p);
            eprintln!(
                "{n} slot(s): {states} abstract states in {:?}",
                started.elapsed()
            );
            assert!(states > 50, "{n} slot(s): only {states} states");
        }
    }
}
