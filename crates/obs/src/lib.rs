//! `gpssn-obs`: zero-dependency observability for the GP-SSN engine —
//! span tracing ([`trace`]), a metrics registry ([`metrics`]), and a
//! minimal JSON parser ([`json`]) used to validate the emitters.
//!
//! The engine holds an optional `Arc<Obs>`; every instrumentation site
//! is gated so that
//! * no `Obs` attached ⇒ an `Option` check per site,
//! * `Obs` attached but disabled ⇒ one relaxed atomic load per site,
//! * enabled ⇒ spans cost two `Instant::now` calls and one ring push;
//!   metrics are recorded once per query, not per distance.
//!
//! `report obs` (crate `gpssn-bench`) keeps the "disabled"
//! configuration honest.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod flight;
pub mod json;
pub mod metrics;
pub mod tail;
pub mod trace;
pub mod window;

pub use flight::{FlightConfig, FlightRecord, FlightRecorder};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, MetricId,
    Registry, Snapshot, HIST_BUCKETS,
};
pub use tail::{TailConfig, TailDecision, TailSampler};
pub use trace::{chrome_trace_json, text_flamegraph, Span, SpanRecord, TraceCapture, Tracer};
pub use window::{
    RollingWindow, ServeClass, SloConfig, SloMonitor, SloSnapshot, WindowConfig, WindowHistogram,
};

/// Which telemetry the attached [`Obs`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record per-query counters and phase-duration histograms.
    pub metrics: bool,
    /// Record phase spans (flamegraph / Chrome trace).
    pub tracing: bool,
    /// Span-ring capacity (finished spans retained, oldest evicted).
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            metrics: true,
            tracing: false,
            trace_capacity: 1 << 16,
        }
    }
}

impl ObsConfig {
    /// Everything off — for measuring the instrumentation floor.
    pub fn disabled() -> Self {
        ObsConfig {
            metrics: false,
            tracing: false,
            trace_capacity: 1 << 16,
        }
    }

    /// Metrics and tracing both on.
    pub fn full() -> Self {
        ObsConfig {
            metrics: true,
            tracing: true,
            trace_capacity: 1 << 16,
        }
    }
}

/// One observability domain: a tracer plus a metrics registry, shared
/// behind `Arc` by the engine and its worker threads.
#[derive(Debug)]
pub struct Obs {
    metrics_on: std::sync::atomic::AtomicBool,
    tracer: Tracer,
    registry: Registry,
}

impl Obs {
    pub fn new(cfg: ObsConfig) -> Self {
        Obs {
            metrics_on: std::sync::atomic::AtomicBool::new(cfg.metrics),
            tracer: Tracer::new(cfg.tracing, cfg.trace_capacity),
            registry: Registry::new(),
        }
    }

    /// Metrics-only `Obs` with default capacity.
    pub fn with_metrics() -> Self {
        Obs::new(ObsConfig::default())
    }

    /// Metrics + tracing with default capacity.
    pub fn full() -> Self {
        Obs::new(ObsConfig::full())
    }

    /// Attached-but-dormant `Obs` (the overhead-bench configuration).
    pub fn disabled() -> Self {
        Obs::new(ObsConfig::disabled())
    }

    /// Whether per-query metrics are recorded. One relaxed load.
    #[inline]
    pub fn metrics_on(&self) -> bool {
        self.metrics_on.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether spans are recorded. One relaxed load.
    #[inline]
    pub fn tracing_on(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Whether any telemetry is live.
    #[inline]
    pub fn active(&self) -> bool {
        self.metrics_on() || self.tracing_on()
    }

    pub fn set_metrics(&self, on: bool) {
        self.metrics_on
            .store(on, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics registry every recording lands in.
    pub fn base_registry(&self) -> &Registry {
        &self.registry
    }

    /// Adds `n` to a counter when metrics are on.
    #[inline]
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        if self.metrics_on() {
            self.registry.inc(name, labels, n);
        }
    }

    /// Records a histogram observation when metrics are on.
    #[inline]
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        if self.metrics_on() {
            self.registry.observe(name, labels, v);
        }
    }

    /// Runs `f` under a span named `name` and records its wall-clock
    /// nanoseconds into the `gpssn_phase_duration_ns{phase=name}`
    /// histogram. The canonical way to instrument a query phase.
    #[inline]
    pub fn phase<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.active() {
            return f();
        }
        let _span = self.tracer.span(name);
        let t0 = std::time::Instant::now();
        let out = f();
        if self.metrics_on() {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.registry
                .observe("gpssn_phase_duration_ns", &[("phase", name)], ns);
        }
        out
    }
}

/// Runs `f` under [`Obs::phase`] when `obs` is attached, else plain.
#[inline]
pub fn phase<T>(obs: Option<&Obs>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match obs {
        Some(o) => o.phase(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_records_span_and_histogram() {
        let obs = Obs::full();
        let out = obs.phase("refine", || 41 + 1);
        assert_eq!(out, 42);
        let recs = obs.tracer().records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "refine");
        let snap = obs.base_registry().snapshot();
        let h = snap
            .histogram("gpssn_phase_duration_ns", &[("phase", "refine")])
            .expect("phase histogram missing");
        assert_eq!(h.count, 1);
    }

    #[test]
    fn dormant_obs_records_nothing() {
        let obs = Obs::disabled();
        obs.phase("refine", || ());
        obs.inc("gpssn_queries_total", &[], 1);
        obs.observe("gpssn_phase_duration_ns", &[("phase", "x")], 5);
        assert!(obs.tracer().records().is_empty());
        assert_eq!(obs.base_registry().snapshot(), Snapshot::default());
    }
}
