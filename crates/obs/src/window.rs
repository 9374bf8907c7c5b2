//! Rolling SLO windows: sliding log2-histogram windows over serve
//! latency and queue wait, with quantile estimation, error/shed/
//! degradation rates, and a burn-rate evaluator against an SLO
//! objective.
//!
//! The batch-oriented [`crate::metrics::Registry`] accumulates forever —
//! the right shape for "what happened since startup", the wrong one for
//! "what is p99 *right now*". A [`RollingWindow`] keeps a short ring of
//! time slots (default 6 × 10 s), each holding one fixed-bucket log2
//! histogram; recording rotates slots lazily off the caller's clock and
//! a snapshot merges only the slots still inside the window, so old
//! traffic ages out with no background thread.
//!
//! Time is injected as nanoseconds since an epoch the caller chooses
//! ([`SloMonitor`] uses its construction instant), which keeps every
//! rotation path deterministic under test: clock stalls keep filling the
//! same slot, forward jumps larger than the window expire everything,
//! and slots that saw no traffic simply never match the live id range.
//!
//! Quantiles come from the merged histogram by cumulative rank with
//! linear interpolation inside the landing bucket. Log2 buckets bound
//! the relative error by the bucket width (a factor of 2 worst case,
//! far less for smooth distributions) — the standard trade production
//! latency monitors make.

use crate::metrics::{bucket_index, bucket_upper_bound, Registry, HIST_BUCKETS};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shape of a rolling window: `slots` ring slots of `slot` duration
/// each; the live window covers `slot * slots` trailing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Width of one slot.
    pub slot: Duration,
    /// Number of slots in the ring.
    pub slots: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            slot: Duration::from_secs(10),
            slots: 6,
        }
    }
}

impl WindowConfig {
    fn slot_ns(&self) -> u64 {
        (self.slot.as_nanos().min(u64::MAX as u128) as u64).max(1)
    }
}

/// One ring slot: a log2 histogram stamped with the slot index it holds
/// data for. `id == u64::MAX` marks a slot that has never been written.
#[derive(Debug, Clone)]
struct Slot {
    id: u64,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            id: u64::MAX,
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    fn reset(&mut self, id: u64) {
        self.id = id;
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
    }
}

/// A sliding window of log2 histograms. Not internally synchronized —
/// wrap in a mutex to share (as [`SloMonitor`] does); the lock is held
/// for one bucket increment per record.
#[derive(Debug, Clone)]
pub struct RollingWindow {
    slot_ns: u64,
    slots: Vec<Slot>,
}

impl RollingWindow {
    pub fn new(cfg: &WindowConfig) -> Self {
        RollingWindow {
            slot_ns: cfg.slot_ns(),
            slots: (0..cfg.slots.max(1)).map(|_| Slot::empty()).collect(),
        }
    }

    /// Records one observation at time `now_ns` (nanoseconds since the
    /// caller's epoch). Rotating into a slot whose previous tenancy has
    /// aged out clears it first; a slot already stamped with a *newer*
    /// id (a cross-thread clock race) absorbs the observation without
    /// resetting — a bounded misattribution, never data loss.
    pub fn record(&mut self, now_ns: u64, v: u64) {
        let idx = now_ns / self.slot_ns;
        let len = self.slots.len() as u64;
        let slot = &mut self.slots[(idx % len) as usize];
        if slot.id == u64::MAX || slot.id < idx {
            slot.reset(idx);
        }
        slot.buckets[bucket_index(v)] += 1;
        slot.count += 1;
        slot.sum = slot.sum.wrapping_add(v);
    }

    /// Merges every slot still inside the window ending at `now_ns`.
    /// Slots that never saw traffic, or whose tenancy has aged out,
    /// contribute nothing.
    pub fn snapshot(&self, now_ns: u64) -> WindowHistogram {
        let now_idx = now_ns / self.slot_ns;
        let lo = now_idx.saturating_sub(self.slots.len() as u64 - 1);
        let mut out = WindowHistogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        };
        for slot in &self.slots {
            if slot.id == u64::MAX || slot.id < lo {
                continue;
            }
            for (mine, theirs) in out.buckets.iter_mut().zip(&slot.buckets) {
                *mine += theirs;
            }
            out.count += slot.count;
            out.sum = out.sum.wrapping_add(slot.sum);
        }
        out
    }

    /// The window span in nanoseconds (`slot * slots`).
    pub fn window_ns(&self) -> u64 {
        self.slot_ns.saturating_mul(self.slots.len() as u64)
    }
}

/// The merged histogram of one window snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowHistogram {
    /// Per-bucket counts, [`HIST_BUCKETS`] long.
    pub buckets: Vec<u64>,
    /// Observations inside the window.
    pub count: u64,
    /// Sum of observed values (wrapping, like Prometheus `_sum`).
    pub sum: u64,
}

impl WindowHistogram {
    /// The `q`-quantile (`q` clamped to `[0, 1]`) estimated by
    /// cumulative rank with linear interpolation inside the landing
    /// bucket; `0.0` for an empty window. Bucket `k ≥ 1` spans
    /// `[2^(k-1), 2^k - 1]`, so the estimate is within a factor of 2 of
    /// the true quantile in the worst case and much closer for smooth
    /// value distributions.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lo = if i == 0 {
                    0.0
                } else {
                    (1u64 << (i - 1)) as f64
                };
                let hi = bucket_upper_bound(i) as f64;
                let frac = (target - cum) as f64 / c as f64;
                return lo + (hi - lo) * frac;
            }
            cum += c;
        }
        bucket_upper_bound(HIST_BUCKETS - 1) as f64
    }

    /// Mean of the window's observations (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Service-level objective: at least `target_fraction` of requests must
/// complete successfully within `objective_latency`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Latency objective per request (submission to response).
    pub objective_latency: Duration,
    /// Fraction of requests that must meet it (e.g. `0.99`).
    pub target_fraction: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            objective_latency: Duration::from_millis(250),
            target_fraction: 0.99,
        }
    }
}

/// Coarse serving-outcome classes tallied per window slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeClass {
    /// The engine produced an exact answer.
    Ok,
    /// The request failed (validation, budget with nothing verified,
    /// internal error, malformed input).
    Error,
    /// Admission control rejected it (queue full or deadline expired
    /// before dispatch).
    Shed,
    /// The engine answered from a degradation rung (truncated anytime
    /// answer or sampling rescue).
    Degraded,
}

impl ServeClass {
    /// Stable label used in JSON dumps and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            ServeClass::Ok => "ok",
            ServeClass::Error => "error",
            ServeClass::Shed => "shed",
            ServeClass::Degraded => "degraded",
        }
    }

    fn index(self) -> usize {
        match self {
            ServeClass::Ok => 0,
            ServeClass::Error => 1,
            ServeClass::Shed => 2,
            ServeClass::Degraded => 3,
        }
    }
}

/// Per-slot class tallies: ok / error / shed / degraded plus latency
/// breaches (requests over the objective, regardless of class).
const TALLY_BREACH: usize = 4;
const TALLY_WIDTH: usize = 5;

#[derive(Debug, Clone)]
struct TallySlot {
    id: u64,
    counts: [u64; TALLY_WIDTH],
}

#[derive(Debug, Clone)]
struct RollingTally {
    slot_ns: u64,
    slots: Vec<TallySlot>,
}

impl RollingTally {
    fn new(cfg: &WindowConfig) -> Self {
        RollingTally {
            slot_ns: cfg.slot_ns(),
            slots: (0..cfg.slots.max(1))
                .map(|_| TallySlot {
                    id: u64::MAX,
                    counts: [0; TALLY_WIDTH],
                })
                .collect(),
        }
    }

    fn record(&mut self, now_ns: u64, class: ServeClass, breach: bool) {
        let idx = now_ns / self.slot_ns;
        let len = self.slots.len() as u64;
        let slot = &mut self.slots[(idx % len) as usize];
        if slot.id == u64::MAX || slot.id < idx {
            slot.id = idx;
            slot.counts = [0; TALLY_WIDTH];
        }
        slot.counts[class.index()] += 1;
        if breach {
            slot.counts[TALLY_BREACH] += 1;
        }
    }

    fn snapshot(&self, now_ns: u64) -> [u64; TALLY_WIDTH] {
        let now_idx = now_ns / self.slot_ns;
        let lo = now_idx.saturating_sub(self.slots.len() as u64 - 1);
        let mut out = [0u64; TALLY_WIDTH];
        for slot in &self.slots {
            if slot.id == u64::MAX || slot.id < lo {
                continue;
            }
            for (o, c) in out.iter_mut().zip(&slot.counts) {
                *o += c;
            }
        }
        out
    }
}

/// What one [`SloMonitor::snapshot`] reports about the trailing window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSnapshot {
    /// Window span in nanoseconds.
    pub window_ns: u64,
    /// Requests observed inside the window.
    pub total: u64,
    /// Per-class counts.
    pub ok: u64,
    pub errors: u64,
    pub shed: u64,
    pub degraded: u64,
    /// Served requests (ok or degraded) whose latency exceeded the
    /// objective; errors and sheds count as misses directly instead.
    pub breaches: u64,
    /// Latency quantile estimates in nanoseconds.
    pub latency_p50_ns: f64,
    pub latency_p95_ns: f64,
    pub latency_p99_ns: f64,
    /// Queue-wait quantile estimates in nanoseconds.
    pub queue_wait_p50_ns: f64,
    pub queue_wait_p95_ns: f64,
    pub queue_wait_p99_ns: f64,
    /// `errors / total` (`0` when empty), and the same for sheds and
    /// degradations.
    pub error_rate: f64,
    pub shed_rate: f64,
    pub degraded_rate: f64,
    /// Fraction of requests meeting the SLO (success within objective).
    pub attainment: f64,
    /// `(1 - attainment) / (1 - target_fraction)`: 1.0 means the error
    /// budget burns exactly at the sustainable rate, above 1.0 it burns
    /// faster. `0` for an empty window.
    pub burn_rate: f64,
    /// The objective this was evaluated against.
    pub objective_ns: u64,
    pub target_fraction: f64,
}

struct SloInner {
    latency: RollingWindow,
    queue_wait: RollingWindow,
    tallies: RollingTally,
}

/// Rolling SLO evaluation over serve latency and queue wait. Clock-in,
/// numbers-out: every method takes `now_ns` relative to the monitor's
/// creation instant (use [`SloMonitor::now_ns`] in production,
/// hand-picked values in tests).
pub struct SloMonitor {
    cfg: SloConfig,
    epoch: Instant,
    inner: Mutex<SloInner>,
}

impl std::fmt::Debug for SloMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloMonitor")
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl SloMonitor {
    pub fn new(window: &WindowConfig, slo: SloConfig) -> Self {
        SloMonitor {
            cfg: slo,
            epoch: Instant::now(),
            inner: Mutex::new(SloInner {
                latency: RollingWindow::new(window),
                queue_wait: RollingWindow::new(window),
                tallies: RollingTally::new(window),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SloInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Nanoseconds since this monitor's construction — the production
    /// clock for [`SloMonitor::record`] / [`SloMonitor::snapshot`].
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// The configured objective.
    pub fn config(&self) -> SloConfig {
        self.cfg
    }

    /// Records one finished (or shed) request. A *breach* is a request
    /// that would otherwise have met the SLO (served, possibly
    /// degraded) but finished over the latency objective — errors and
    /// sheds are already SLO misses in their own right, so they are
    /// never double-counted as breaches.
    pub fn record(&self, now_ns: u64, latency_ns: u64, queue_wait_ns: u64, class: ServeClass) {
        let over = latency_ns > self.cfg.objective_latency.as_nanos().min(u64::MAX as u128) as u64;
        let breach = over && matches!(class, ServeClass::Ok | ServeClass::Degraded);
        let mut inner = self.lock();
        inner.latency.record(now_ns, latency_ns);
        inner.queue_wait.record(now_ns, queue_wait_ns);
        inner.tallies.record(now_ns, class, breach);
    }

    /// Evaluates the trailing window ending at `now_ns`.
    pub fn snapshot(&self, now_ns: u64) -> SloSnapshot {
        let objective_ns = self.cfg.objective_latency.as_nanos().min(u64::MAX as u128) as u64;
        let inner = self.lock();
        let lat = inner.latency.snapshot(now_ns);
        let qw = inner.queue_wait.snapshot(now_ns);
        let tally = inner.tallies.snapshot(now_ns);
        let window_ns = inner.latency.window_ns();
        drop(inner);
        let (ok, errors, shed, degraded, breaches) =
            (tally[0], tally[1], tally[2], tally[3], tally[4]);
        let total = ok + errors + shed + degraded;
        let rate = |n: u64| {
            if total == 0 {
                0.0
            } else {
                n as f64 / total as f64
            }
        };
        // A request misses the SLO when it failed outright, was shed,
        // or was served over the objective; the three sets are disjoint
        // by construction (breaches only tally served requests).
        let bad = (errors + shed + breaches).min(total);
        let attainment = if total == 0 {
            1.0
        } else {
            1.0 - bad as f64 / total as f64
        };
        let budget = (1.0 - self.cfg.target_fraction).max(f64::EPSILON);
        let burn_rate = if total == 0 {
            0.0
        } else {
            (1.0 - attainment) / budget
        };
        SloSnapshot {
            window_ns,
            total,
            ok,
            errors,
            shed,
            degraded,
            breaches,
            latency_p50_ns: lat.quantile(0.50),
            latency_p95_ns: lat.quantile(0.95),
            latency_p99_ns: lat.quantile(0.99),
            queue_wait_p50_ns: qw.quantile(0.50),
            queue_wait_p95_ns: qw.quantile(0.95),
            queue_wait_p99_ns: qw.quantile(0.99),
            error_rate: rate(errors),
            shed_rate: rate(shed),
            degraded_rate: rate(degraded),
            attainment,
            burn_rate,
            objective_ns,
            target_fraction: self.cfg.target_fraction,
        }
    }

    /// Renders the current window as one JSON line (no trailing
    /// newline), parseable by [`crate::json::parse`].
    pub fn to_json(&self, now_ns: u64) -> String {
        let s = self.snapshot(now_ns);
        format!(
            "{{\"window_secs\":{:.3},\"total\":{},\"ok\":{},\"errors\":{},\"shed\":{},\
             \"degraded\":{},\"breaches\":{},\
             \"latency_ns\":{{\"p50\":{:.0},\"p95\":{:.0},\"p99\":{:.0}}},\
             \"queue_wait_ns\":{{\"p50\":{:.0},\"p95\":{:.0},\"p99\":{:.0}}},\
             \"error_rate\":{:.6},\"shed_rate\":{:.6},\"degraded_rate\":{:.6},\
             \"attainment\":{:.6},\"burn_rate\":{:.4},\
             \"objective_ms\":{:.3},\"target_fraction\":{}}}",
            s.window_ns as f64 / 1e9,
            s.total,
            s.ok,
            s.errors,
            s.shed,
            s.degraded,
            s.breaches,
            s.latency_p50_ns,
            s.latency_p95_ns,
            s.latency_p99_ns,
            s.queue_wait_p50_ns,
            s.queue_wait_p95_ns,
            s.queue_wait_p99_ns,
            s.error_rate,
            s.shed_rate,
            s.degraded_rate,
            s.attainment,
            s.burn_rate,
            s.objective_ns as f64 / 1e6,
            s.target_fraction,
        )
    }

    /// Publishes the current window as gauges (absolute values — safe to
    /// call repeatedly before every scrape).
    pub fn publish(&self, reg: &Registry, now_ns: u64) {
        let s = self.snapshot(now_ns);
        reg.set_gauge("gpssn_slo_window_total", &[], s.total as f64);
        for (q, v) in [
            ("p50", s.latency_p50_ns),
            ("p95", s.latency_p95_ns),
            ("p99", s.latency_p99_ns),
        ] {
            reg.set_gauge("gpssn_slo_latency_ns", &[("quantile", q)], v);
        }
        for (q, v) in [
            ("p50", s.queue_wait_p50_ns),
            ("p95", s.queue_wait_p95_ns),
            ("p99", s.queue_wait_p99_ns),
        ] {
            reg.set_gauge("gpssn_slo_queue_wait_ns", &[("quantile", q)], v);
        }
        reg.set_gauge("gpssn_slo_error_rate", &[], s.error_rate);
        reg.set_gauge("gpssn_slo_shed_rate", &[], s.shed_rate);
        reg.set_gauge("gpssn_slo_degraded_rate", &[], s.degraded_rate);
        reg.set_gauge("gpssn_slo_attainment", &[], s.attainment);
        reg.set_gauge("gpssn_slo_burn_rate", &[], s.burn_rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    fn cfg(slot_secs: u64, slots: usize) -> WindowConfig {
        WindowConfig {
            slot: Duration::from_secs(slot_secs),
            slots,
        }
    }

    #[test]
    fn window_ages_out_old_slots() {
        let mut w = RollingWindow::new(&cfg(10, 6));
        for i in 0..100u64 {
            w.record(0, i);
        }
        assert_eq!(w.snapshot(0).count, 100);
        // Still fully inside the 60s window.
        assert_eq!(w.snapshot(59 * S).count, 100);
        // One nanosecond into slot 6: slot 0 has aged out.
        assert_eq!(w.snapshot(60 * S).count, 0);
    }

    #[test]
    fn clock_stall_accumulates_one_slot() {
        let mut w = RollingWindow::new(&cfg(10, 6));
        for _ in 0..50 {
            w.record(5 * S, 7);
        }
        let snap = w.snapshot(5 * S);
        assert_eq!(snap.count, 50);
        assert_eq!(snap.sum, 350);
    }

    #[test]
    fn forward_jump_expires_everything() {
        let mut w = RollingWindow::new(&cfg(10, 6));
        w.record(0, 1);
        w.record(1000 * S, 2); // jump far past the window
        let snap = w.snapshot(1000 * S);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 2);
    }

    #[test]
    fn quantile_exact_on_single_value() {
        let mut w = RollingWindow::new(&cfg(10, 6));
        for _ in 0..100 {
            w.record(0, 1024);
        }
        let h = w.snapshot(0);
        // All mass in bucket [1024, 2047]: estimates stay in that bucket.
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!((1024.0..=2047.0).contains(&est), "q={q} -> {est}");
        }
    }

    #[test]
    fn empty_window_quantile_is_zero() {
        let w = RollingWindow::new(&cfg(10, 6));
        assert_eq!(w.snapshot(0).quantile(0.99), 0.0);
        assert_eq!(w.snapshot(0).mean(), 0.0);
    }

    #[test]
    fn slo_rates_and_burn() {
        let slo = SloMonitor::new(
            &cfg(10, 6),
            SloConfig {
                objective_latency: Duration::from_millis(100),
                target_fraction: 0.9,
            },
        );
        // 80 fast ok, 10 slow ok (breach), 5 errors, 5 sheds.
        for _ in 0..80 {
            slo.record(0, 10_000_000, 1000, ServeClass::Ok);
        }
        for _ in 0..10 {
            slo.record(0, 500_000_000, 1000, ServeClass::Ok);
        }
        for _ in 0..5 {
            slo.record(0, 1_000_000, 0, ServeClass::Error);
        }
        for _ in 0..5 {
            slo.record(0, 0, 0, ServeClass::Shed);
        }
        let s = slo.snapshot(0);
        assert_eq!(s.total, 100);
        assert_eq!(s.breaches, 10);
        assert!((s.error_rate - 0.05).abs() < 1e-12);
        assert!((s.shed_rate - 0.05).abs() < 1e-12);
        // bad = errors + shed + breaches = 5 + 5 + 10 = 20.
        assert!((s.attainment - 0.8).abs() < 1e-12, "{}", s.attainment);
        // budget is 0.1, burning 0.2 => burn rate 2.
        assert!((s.burn_rate - 2.0).abs() < 1e-9, "{}", s.burn_rate);
    }

    #[test]
    fn slo_json_parses_and_publishes() {
        let slo = SloMonitor::new(&WindowConfig::default(), SloConfig::default());
        slo.record(0, 1_000_000, 500, ServeClass::Ok);
        slo.record(0, 2_000_000, 700, ServeClass::Degraded);
        let json = slo.to_json(0);
        let v = crate::json::parse(&json).expect("slo json parses");
        assert_eq!(v.get("total").and_then(|x| x.as_f64()), Some(2.0));
        let reg = Registry::new();
        slo.publish(&reg, 0);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("gpssn_slo_window_total", &[]), Some(2.0));
        assert!(snap
            .gauge("gpssn_slo_latency_ns", &[("quantile", "p99")])
            .is_some());
        assert_eq!(snap.gauge("gpssn_slo_degraded_rate", &[]), Some(0.5));
    }

    #[test]
    fn empty_monitor_reports_clean_slate() {
        let slo = SloMonitor::new(&WindowConfig::default(), SloConfig::default());
        let s = slo.snapshot(slo.now_ns());
        assert_eq!(s.total, 0);
        assert_eq!(s.attainment, 1.0);
        assert_eq!(s.burn_rate, 0.0);
    }
}
