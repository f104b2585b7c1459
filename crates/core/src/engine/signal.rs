//! Minimal POSIX signal plumbing, vendored so no `libc` crate is needed.
//!
//! The handler itself does the only thing an async-signal-safe handler
//! may do: bump an atomic counter. Everything with consequences —
//! cancelling a [`CancelToken`], starting a server drain, force-exiting —
//! happens on ordinary threads that *poll* the counter. That split is
//! what makes the same primitive serve both the CLI (Ctrl-C → sound
//! partial + exit 7) and the daemon (SIGTERM → graceful drain → exit 0).
//!
//! On non-Unix targets the module compiles to a no-op: [`install`]
//! reports `false` and the counter never moves.

use super::CancelToken;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// `SIGHUP` (reload request; the gateway maps it to a rolling restart).
pub const SIGHUP: i32 = 1;
/// `SIGINT` (Ctrl-C).
pub const SIGINT: i32 = 2;
/// `SIGTERM` (polite kill; what orchestrators send first).
pub const SIGTERM: i32 = 15;

/// Signals observed since [`install`]. Monotonic; never reset.
static RECEIVED: AtomicU32 = AtomicU32::new(0);

/// `SIGHUP`s observed since [`install_hup`]. Counted separately from
/// [`RECEIVED`] because a reload request must never be mistaken for a
/// shutdown request.
static HUP_RECEIVED: AtomicU32 = AtomicU32::new(0);

#[cfg(unix)]
extern "C" {
    /// POSIX `signal(2)`. The C library is already linked on every Unix
    /// Rust target, so declaring the symbol costs no new dependency.
    fn signal(signum: i32, handler: usize) -> usize;
    /// POSIX `kill(2)`, for supervising child processes.
    fn kill(pid: i32, sig: i32) -> i32;
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: one relaxed atomic increment, nothing else.
    RECEIVED.fetch_add(1, Ordering::Relaxed);
}

/// Install the counting handler for `SIGINT` and `SIGTERM`. Idempotent.
/// Returns `false` where signals are unsupported (non-Unix).
pub fn install() -> bool {
    #[cfg(unix)]
    {
        // SAFETY: `on_signal` is async-signal-safe (single atomic store)
        // and `signal` is the documented way to register it; the cast to
        // usize matches the `sighandler_t` ABI on every supported Unix.
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
        true
    }
    #[cfg(not(unix))]
    {
        false
    }
}

/// How many `SIGINT`/`SIGTERM` arrived since [`install`].
pub fn received() -> u32 {
    RECEIVED.load(Ordering::Relaxed)
}

#[cfg(unix)]
extern "C" fn on_hup(_signum: i32) {
    // Async-signal-safe: one relaxed atomic increment, nothing else.
    HUP_RECEIVED.fetch_add(1, Ordering::Relaxed);
}

/// Install a counting handler for `SIGHUP` only. Idempotent. Returns
/// `false` where signals are unsupported (non-Unix). Without this, a
/// `SIGHUP` kills the process with the default action — daemons that
/// want "HUP means reload" must opt in.
pub fn install_hup() -> bool {
    #[cfg(unix)]
    {
        // SAFETY: same contract as `install` — the handler is a single
        // atomic increment and the cast matches `sighandler_t`.
        let handler = on_hup as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGHUP, handler);
        }
        true
    }
    #[cfg(not(unix))]
    {
        false
    }
}

/// How many `SIGHUP`s arrived since [`install_hup`].
pub fn hup_received() -> u32 {
    HUP_RECEIVED.load(Ordering::Relaxed)
}

/// How often the watcher thread re-checks the signal counter.
const POLL: Duration = Duration::from_millis(25);

/// Install the handler and spawn a watcher that cancels `token` on the
/// first signal — the bounded search winds down and the caller prints
/// its sound partial — and force-exits with `130` on the second, for
/// when the wind-down itself is what the operator wants to kill.
pub fn cancel_on_signal(token: CancelToken) {
    if !install() {
        return;
    }
    let spawned = std::thread::Builder::new()
        .name("deptree-signal".to_owned())
        .spawn(move || loop {
            match received() {
                0 => {}
                1 => token.cancel(),
                _ => std::process::exit(130),
            }
            std::thread::sleep(POLL);
        });
    // A failed spawn only loses Ctrl-C responsiveness, never correctness.
    drop(spawned);
}

/// Deliver `sig` to process `pid` (POSIX `kill(2)`). Returns `false`
/// when the delivery failed or signals are unsupported on this target.
/// The supervisor uses this with [`SIGTERM`] to ask a child to drain.
pub fn send(pid: u32, sig: i32) -> bool {
    #[cfg(unix)]
    {
        let Ok(pid) = i32::try_from(pid) else {
            return false;
        };
        // SAFETY: plain kill(2) call; pid/sig are data, no pointers.
        unsafe { kill(pid, sig) == 0 }
    }
    #[cfg(not(unix))]
    {
        let _ = (pid, sig);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_succeeds_on_unix() {
        assert_eq!(install(), cfg!(unix));
    }

    #[test]
    fn counter_starts_quiet() {
        // The test process receives no signals; the counter must not
        // invent any. (Raising a real signal here would race the other
        // tests in this binary, so delivery is exercised end-to-end by
        // the serve fault suite instead.)
        install();
        assert_eq!(received(), 0);
    }

    #[test]
    fn hup_handler_installs_and_counter_starts_quiet() {
        assert_eq!(install_hup(), cfg!(unix));
        assert_eq!(hup_received(), 0);
    }

    #[test]
    fn send_to_a_bogus_pid_reports_failure() {
        // PID 0xFFFF_FFFF cannot be a real process (and on non-Unix the
        // helper is a stub); either way the call must say "no".
        assert!(!send(u32::MAX, SIGTERM));
    }
}
