//! Seeded chaos harness: deterministic kill/wedge/slow schedules for the
//! gateway's worker fleet.
//!
//! In the spirit of `deptree_synth::fault::FaultPlan`, a [`ChaosPlan`]
//! is pure data derived from a seed: the same seed always yields the
//! same event schedule, so a failing chaos run reproduces exactly. The
//! gateway arms it behind the test-only `--chaos-plan <seed>` flag; the
//! driver thread then delivers real signals to real worker pids at the
//! scheduled offsets:
//!
//! * **Kill** — `SIGKILL`: the crash path (respawn backoff, quarantine
//!   fuel, proxy failover to the dataset's next holder).
//! * **Wedge** — `SIGSTOP` with no resume: the process is alive but
//!   unresponsive; `/readyz` probes must flag it dead, and the
//!   supervisor's kill-and-respawn must clear the stopped process.
//! * **Slow** — `SIGSTOP` then `SIGCONT` after a pause: a transient
//!   stall (GC, CPU steal) that proxied requests must wait out without
//!   the worker being declared dead.
//!
//! The plan only *schedules against slots*; pid resolution happens at
//! delivery time through the supervisor, so a respawned worker receives
//! the fault its slot was scheduled for — chaos keeps up with respawns.

use super::supervisor::{log, Supervisor};
use deptree_core::engine::signal;
use deptree_synth::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChaosKind {
    /// `SIGKILL` the slot's current child.
    Kill,
    /// `SIGSTOP` with no `SIGCONT`: alive but wedged until the
    /// supervisor's probes give up on it.
    Wedge,
    /// `SIGSTOP`, then `SIGCONT` after the pause.
    Slow(Duration),
}

/// One event in a [`ChaosPlan`]: at offset `at` from arming, hit `slot`
/// with `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChaosEvent {
    /// Offset from the moment the plan is armed.
    pub at: Duration,
    /// Worker slot targeted (whatever pid occupies it at that moment).
    pub slot: usize,
    /// The fault to deliver.
    pub kind: ChaosKind,
}

/// A deterministic fault schedule over a fleet of `workers` slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChaosPlan {
    /// Seed the schedule was derived from (for log lines).
    pub seed: u64,
    /// Events in ascending `at` order.
    pub events: Vec<ChaosEvent>,
}

/// How long a generated plan keeps injecting faults.
const HORIZON: Duration = Duration::from_secs(8);
/// Gap between consecutive events (drawn uniformly).
const GAP_MS: std::ops::RangeInclusive<u64> = 400..=1200;
/// Pause length for `Slow` events.
const SLOW_MS: std::ops::RangeInclusive<u64> = 100..=400;

impl ChaosPlan {
    /// Derive the full schedule from a seed. Pure: equal seeds and
    /// worker counts yield equal plans.
    pub fn from_seed(seed: u64, workers: usize) -> ChaosPlan {
        let workers = workers.max(1);
        let mut rng = Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut at = Duration::ZERO;
        loop {
            at += Duration::from_millis(rng.random_range(GAP_MS));
            if at >= HORIZON {
                break;
            }
            let slot = rng.random_range(0..workers);
            // Weighted kinds: crashes dominate (they exercise the most
            // machinery), wedges and slows keep the probe paths honest.
            let kind = match rng.random_range(0..10u32) {
                0..=4 => ChaosKind::Kill,
                5..=7 => ChaosKind::Slow(Duration::from_millis(rng.random_range(SLOW_MS))),
                _ => ChaosKind::Wedge,
            };
            events.push(ChaosEvent { at, slot, kind });
        }
        ChaosPlan { seed, events }
    }
}

/// Arm a plan against a live fleet: a driver thread delivers each event
/// at its offset, resolving the slot to whatever pid occupies it then.
/// Returns a stop flag; setting it ends the thread at the next event
/// boundary. The thread exits on its own once the schedule is spent.
pub(crate) fn arm(plan: ChaosPlan, supervisor: Arc<Supervisor>) -> Arc<AtomicBool> {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let spawned = std::thread::Builder::new()
        .name("deptree-chaos".to_owned())
        .spawn(move || {
            log(&format!(
                "chaos: armed seed {} with {} event(s) over {:?}",
                plan.seed,
                plan.events.len(),
                HORIZON
            ));
            let armed = Instant::now();
            for event in &plan.events {
                loop {
                    if flag.load(Ordering::Acquire) {
                        return;
                    }
                    let elapsed = armed.elapsed();
                    if elapsed >= event.at {
                        break;
                    }
                    std::thread::sleep((event.at - elapsed).min(Duration::from_millis(25)));
                }
                deliver(event, &supervisor);
            }
            log("chaos: schedule spent");
        });
    drop(spawned);
    stop
}

/// Deliver one event to the slot's current occupant (if any).
fn deliver(event: &ChaosEvent, supervisor: &Supervisor) {
    let Some(pid) = supervisor.pids().get(event.slot).copied().flatten() else {
        log(&format!(
            "chaos: slot {} empty at {:?}; event skipped",
            event.slot, event.at
        ));
        return;
    };
    match event.kind {
        ChaosKind::Kill => {
            log(&format!(
                "chaos: SIGKILL worker {} (pid {pid}) at {:?}",
                event.slot, event.at
            ));
            signal::send(pid, signal::SIGKILL);
        }
        ChaosKind::Wedge => {
            log(&format!(
                "chaos: SIGSTOP (wedge) worker {} (pid {pid}) at {:?}",
                event.slot, event.at
            ));
            signal::send(pid, signal::SIGSTOP);
        }
        ChaosKind::Slow(pause) => {
            log(&format!(
                "chaos: SIGSTOP+CONT (slow {pause:?}) worker {} (pid {pid}) at {:?}",
                event.slot, event.at
            ));
            signal::send(pid, signal::SIGSTOP);
            std::thread::sleep(pause);
            // The slot may have been reaped meanwhile; re-resolve so the
            // CONT cannot hit a recycled pid.
            if supervisor.pids().get(event.slot).copied().flatten() == Some(pid) {
                signal::send(pid, signal::SIGCONT);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = ChaosPlan::from_seed(42, 4);
        let b = ChaosPlan::from_seed(42, 4);
        assert_eq!(a, b, "a chaos plan must be a pure function of its seed");
        assert!(
            !a.events.is_empty(),
            "the horizon admits at least one event"
        );
    }

    #[test]
    fn different_seeds_differ_and_stay_in_bounds() {
        let a = ChaosPlan::from_seed(1, 3);
        let b = ChaosPlan::from_seed(2, 3);
        assert_ne!(a, b);
        for plan in [&a, &b] {
            let mut last = Duration::ZERO;
            for e in &plan.events {
                assert!(e.at < HORIZON);
                assert!(e.at >= last, "events must be time-ordered");
                assert!(e.slot < 3);
                last = e.at;
            }
        }
    }

    #[test]
    fn worker_count_bounds_the_slots() {
        for workers in [1usize, 2, 7] {
            let plan = ChaosPlan::from_seed(9, workers);
            assert!(plan.events.iter().all(|e| e.slot < workers));
        }
    }
}
