//! A deterministic circuit breaker guarding the CH distance backend.
//!
//! The contraction-hierarchy oracle (PR 3) is a pure accelerator: the
//! plain Dijkstra path produces bit-identical answers, just slower. If
//! the oracle misbehaves — a panic out of `batch_dists`, an injected
//! `ch::*` fault — the engine should not keep paying a failure per
//! batch; it should *open the breaker*, serve from Dijkstra, and probe
//! the oracle occasionally until it recovers.
//!
//! Classic breakers key their cooldown on wall-clock time, which makes
//! recovery schedules irreproducible. This one is **clock-free**: the
//! cooldown is counted in *denied admissions* (each CH batch the
//! breaker redirects to Dijkstra burns one tick), and the exponential
//! backoff jitter comes from a seeded hash of the backoff level — the
//! whole state machine is a pure function of the fault sequence, so a
//! chaos schedule replays the exact same open/half-open/close
//! transitions every run.
//!
//! State machine:
//!
//! ```text
//!            failure × threshold                cooldown exhausted
//!  CLOSED ───────────────────────► OPEN ──────────────────────────► HALF_OPEN
//!    ▲                              ▲                                 │    │
//!    │ probe success                │         probe failure           │    │
//!    └──────────────────────────────┼─────────────────────────────────┘    │
//!                                   └──────────────────────────────────────┘
//!                                     (backoff level += 1, longer cooldown)
//! ```
//!
//! In `HALF_OPEN` exactly one in-flight probe is admitted; concurrent
//! callers are denied until the probe resolves.

use gpssn_obs::Obs;
use std::sync::Mutex;

/// Breaker states, exposed for tests and stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every batch goes to the CH oracle.
    Closed,
    /// Tripped: batches are redirected to Dijkstra while the cooldown
    /// (counted in denied admissions) burns down.
    Open,
    /// Cooldown exhausted: one probe batch is in flight; its outcome
    /// decides between reclosing and reopening with a longer cooldown.
    HalfOpen,
}

impl BreakerState {
    fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Tuning knobs for [`CircuitBreaker`]. The defaults are deliberately
/// small: chaos schedules run tens of batches per query, not millions.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive CH failures (in `Closed`) that open the breaker.
    pub failure_threshold: u32,
    /// Base cooldown, in denied admissions, before the first probe.
    pub cooldown_base: u64,
    /// Backoff level cap: cooldown = `base << min(level, cap)` + jitter.
    pub max_backoff_level: u32,
    /// Seed for the deterministic cooldown jitter.
    pub seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_base: 8,
            max_backoff_level: 6,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    /// Consecutive failures while `Closed`.
    consecutive_failures: u32,
    /// Denied admissions left before `Open` → `HalfOpen`.
    cooldown_remaining: u64,
    /// Escalates on every probe failure; reset on reclose.
    backoff_level: u32,
}

/// See the module docs. Shared by reference across concurrent queries;
/// internally a mutex (one uncontended lock per distance batch — noise
/// next to the batch itself).
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                cooldown_remaining: 0,
                backoff_level: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Plain counters: a poisoned guard is still coherent.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Deterministic cooldown for `level`: exponential base shift plus
    /// a seeded jitter in `[0, base)` so repeated open/close cycles do
    /// not phase-lock with periodic workloads.
    fn cooldown_for(&self, level: u32) -> u64 {
        let clamped = level.min(self.cfg.max_backoff_level);
        let base = self.cfg.cooldown_base.max(1);
        let jitter = splitmix64(self.cfg.seed ^ u64::from(level)) % base;
        (base << clamped) + jitter
    }

    /// May this batch use the CH oracle? `false` means: serve from
    /// Dijkstra. In `Open` each denial burns one cooldown tick; the
    /// call that exhausts the cooldown becomes the half-open probe and
    /// is admitted.
    pub fn admit(&self, obs: Option<&Obs>) -> bool {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if inner.cooldown_remaining > 1 {
                    inner.cooldown_remaining -= 1;
                    false
                } else {
                    inner.cooldown_remaining = 0;
                    transition(&mut inner, BreakerState::HalfOpen, obs);
                    true
                }
            }
            // One probe at a time: everyone else keeps using Dijkstra
            // until the in-flight probe resolves.
            BreakerState::HalfOpen => false,
        }
    }

    /// The admitted batch completed cleanly.
    pub fn record_success(&self, obs: Option<&Obs>) {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => inner.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                inner.consecutive_failures = 0;
                inner.backoff_level = 0;
                transition(&mut inner, BreakerState::Closed, obs);
            }
            // A success racing the transition that opened the breaker;
            // the failure that opened it already made the decision.
            BreakerState::Open => {}
        }
    }

    /// The admitted batch failed (panicked or was faulted).
    pub fn record_failure(&self, obs: Option<&Obs>) {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.cfg.failure_threshold {
                    let level = inner.backoff_level;
                    inner.cooldown_remaining = self.cooldown_for(level);
                    transition(&mut inner, BreakerState::Open, obs);
                }
            }
            BreakerState::HalfOpen => {
                inner.backoff_level += 1;
                let level = inner.backoff_level;
                inner.cooldown_remaining = self.cooldown_for(level);
                transition(&mut inner, BreakerState::Open, obs);
            }
            BreakerState::Open => {}
        }
    }

    /// Current state (racy by nature; exact in single-threaded tests).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Current backoff level (0 until a probe has failed).
    pub fn backoff_level(&self) -> u32 {
        self.lock().backoff_level
    }
}

fn transition(inner: &mut Inner, to: BreakerState, obs: Option<&Obs>) {
    inner.state = to;
    if let Some(o) = obs {
        o.inc("gpssn_breaker_transitions_total", &[("to", to.label())], 1);
    }
}

/// SplitMix64 finalizer (jitter hash).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D4_9BCB_8D5B_21E5);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_base: 4,
            max_backoff_level: 3,
            seed: 42,
        })
    }

    #[test]
    fn stays_closed_under_success() {
        let b = breaker();
        for _ in 0..50 {
            assert!(b.admit(None));
            b.record_success(None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn sparse_failures_never_open() {
        let b = breaker();
        for _ in 0..20 {
            assert!(b.admit(None));
            b.record_failure(None);
            assert!(b.admit(None));
            b.record_success(None); // resets the consecutive count
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn consecutive_failures_open_then_probe_recloses() {
        let b = breaker();
        for _ in 0..3 {
            assert!(b.admit(None));
            b.record_failure(None);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Burn the cooldown; the exhausting admit is the probe.
        let mut denials = 0u64;
        loop {
            if b.admit(None) {
                break;
            }
            denials += 1;
            assert!(denials < 1000, "cooldown never exhausted");
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Concurrent admits are denied while the probe is in flight.
        assert!(!b.admit(None));
        b.record_success(None);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.backoff_level(), 0);
        assert!(b.admit(None));
    }

    #[test]
    fn failed_probe_escalates_backoff() {
        let b = breaker();
        let mut denial_runs = Vec::new();
        for _ in 0..3 {
            // Drive to Open (first iteration) or observe it's already
            // Open after a failed probe.
            while b.state() == BreakerState::Closed {
                assert!(b.admit(None));
                b.record_failure(None);
            }
            let mut denials = 0u64;
            while !b.admit(None) {
                denials += 1;
                assert!(denials < 100_000);
            }
            denial_runs.push(denials);
            b.record_failure(None); // probe fails → reopen, longer cooldown
        }
        assert!(
            denial_runs[0] < denial_runs[1] && denial_runs[1] < denial_runs[2],
            "backoff should escalate: {denial_runs:?}"
        );
    }

    #[test]
    fn schedule_is_deterministic() {
        let run = || -> Vec<bool> {
            let b = breaker();
            let mut out = Vec::new();
            for i in 0..200 {
                let admitted = b.admit(None);
                out.push(admitted);
                if admitted {
                    // Fail every admitted batch: worst-case schedule.
                    if i % 7 == 0 {
                        b.record_success(None);
                    } else {
                        b.record_failure(None);
                    }
                }
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn transitions_are_counted() {
        let obs = Obs::with_metrics();
        let b = breaker();
        for _ in 0..3 {
            assert!(b.admit(Some(&obs)));
            b.record_failure(Some(&obs));
        }
        while !b.admit(Some(&obs)) {}
        b.record_success(Some(&obs));
        let snap = obs.base_registry().snapshot();
        let count = |to: &str| snap.counter("gpssn_breaker_transitions_total", &[("to", to)]);
        assert_eq!(count("open"), 1);
        assert_eq!(count("half_open"), 1);
        assert_eq!(count("closed"), 1);
    }
}
