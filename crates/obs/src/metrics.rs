//! Metrics: atomic counters/gauges, a fixed-bucket log2 histogram
//! observable from any thread, and a registry with Prometheus text-format
//! and JSON snapshot writers.
//!
//! The registry is a mutexed `BTreeMap` keyed by `(name, sorted
//! labels)`, so iteration — and therefore every exposition — is
//! deterministic. The engine records into it once per query (from the
//! final `QueryMetrics`), keeping the per-distance hot paths free of
//! registry locks.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `k`
/// (1..=64) holds values `v` with `bit_length(v) == k`, i.e.
/// `2^(k-1) <= v < 2^k`.
pub const HIST_BUCKETS: usize = 65;

/// The bucket a value lands in.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`; `u64::MAX` for the
/// last bucket) — the Prometheus `le` label.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Monotonic counter. Relaxed ordering: totals are read after the work
/// quiesces, never used for synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge storing an `f64` as bits.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    pub fn new() -> Self {
        Default::default()
    }
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket log2 histogram with atomic cells: observe from any
/// thread.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Default::default()
    }

    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data image of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, `HIST_BUCKETS` long.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (wrapping add, like Prometheus `_sum`).
    pub sum: u64,
}

/// A metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// `name{k="v",...}` (bare name when label-free) — the Prometheus
    /// sample identity, also used as the JSON key.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut s = String::new();
        s.push_str(&self.name);
        s.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{k}=\"{}\"", crate::json::escape(v));
        }
        s.push('}');
        s
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<MetricId, u64>,
    gauges: BTreeMap<MetricId, f64>,
    histograms: BTreeMap<MetricId, HistogramSnapshot>,
}

/// Deterministically-iterable metric store. All methods take `&self`;
/// contention is one short mutex per recording call (the engine records
/// once per query, not per distance).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    pub fn new() -> Self {
        Default::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Adds `n` to a counter (creating it at `n`).
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        *self
            .lock()
            .counters
            .entry(MetricId::new(name, labels))
            .or_insert(0) += n;
    }

    /// Sets a counter to an absolute cumulative value — for sources that
    /// already maintain lifetime totals (e.g. `DistanceCache` atomics).
    pub fn set_counter(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.lock().counters.insert(MetricId::new(name, labels), v);
    }

    /// Sets a gauge.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.lock().gauges.insert(MetricId::new(name, labels), v);
    }

    /// Records one observation into a histogram (creating it empty).
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        let mut inner = self.lock();
        let h = inner
            .histograms
            .entry(MetricId::new(name, labels))
            .or_insert_with(|| HistogramSnapshot {
                buckets: vec![0; HIST_BUCKETS],
                count: 0,
                sum: 0,
            });
        h.buckets[bucket_index(v)] += 1;
        h.count += 1;
        h.sum += v;
    }

    /// A consistent plain-data copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }
}

/// Plain-data image of a [`Registry`] with exposition writers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<MetricId, u64>,
    pub gauges: BTreeMap<MetricId, f64>,
    pub histograms: BTreeMap<MetricId, HistogramSnapshot>,
}

impl Snapshot {
    /// A counter's value, 0 when absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&MetricId::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// A gauge's value, `None` when absent.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&MetricId::new(name, labels)).copied()
    }

    /// A histogram, `None` when absent.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.histograms.get(&MetricId::new(name, labels))
    }

    /// Prometheus text exposition format. Histograms emit cumulative
    /// `_bucket{le=...}` lines up to the highest non-empty bucket plus
    /// `+Inf`, then `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        fn type_line(out: &mut String, last_typed: &mut String, name: &str, kind: &str) {
            if last_typed != name {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                *last_typed = name.to_string();
            }
        }
        let mut out = String::new();
        let mut last_typed = String::new();
        for (id, v) in &self.counters {
            type_line(&mut out, &mut last_typed, &id.name, "counter");
            let _ = writeln!(out, "{} {v}", id.render());
        }
        last_typed.clear();
        for (id, v) in &self.gauges {
            type_line(&mut out, &mut last_typed, &id.name, "gauge");
            let _ = writeln!(out, "{} {}", id.render(), format_f64(*v));
        }
        last_typed.clear();
        for (id, h) in &self.histograms {
            type_line(&mut out, &mut last_typed, &id.name, "histogram");
            let top = h
                .buckets
                .iter()
                .rposition(|&c| c != 0)
                .map_or(0, |i| i + 1)
                .min(HIST_BUCKETS);
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().enumerate().take(top) {
                cum += c;
                let mut labels: Vec<(&str, &str)> = id
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                let le = bucket_upper_bound(i).to_string();
                labels.push(("le", &le));
                let bucket_id = MetricId::new(&format!("{}_bucket", id.name), &labels);
                let _ = writeln!(out, "{} {cum}", bucket_id.render());
            }
            let mut labels: Vec<(&str, &str)> = id
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            labels.push(("le", "+Inf"));
            let inf_id = MetricId::new(&format!("{}_bucket", id.name), &labels);
            let _ = writeln!(out, "{} {}", inf_id.render(), h.count);
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                id.name,
                render_labels(&id.labels),
                h.sum
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                id.name,
                render_labels(&id.labels),
                h.count
            );
        }
        out
    }

    /// JSON snapshot: `{"counters": {...}, "gauges": {...},
    /// "histograms": {...}}` with rendered metric ids as keys.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (id, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", crate::json::escape(&id.render()));
        }
        out.push_str("},\"gauges\":{");
        for (i, (id, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{}",
                crate::json::escape(&id.render()),
                format_f64(*v)
            );
        }
        out.push_str("},\"histograms\":{");
        for (i, (id, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                crate::json::escape(&id.render()),
                h.count,
                h.sum
            );
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("}}\n");
        out
    }
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{}\"", crate::json::escape(v));
    }
    s.push('}');
    s
}

/// `f64` in a form both Prometheus and JSON accept (no bare `NaN`:
/// mapped to 0, which only arises from a caller bug).
fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "0".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every value is <= its bucket's upper bound and > the previous
        // bucket's bound.
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn histogram_observe_counts_and_sums() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 1000, 2, 1_000_000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1_001_008);
        assert_eq!(s.buckets.iter().sum::<u64>(), 6);
        assert_eq!(s.buckets[bucket_index(1000)], 1);
    }

    #[test]
    fn registry_is_deterministic() {
        let make = || {
            let r = Registry::new();
            r.inc("gpssn_queries_total", &[("path", "exact")], 2);
            r.inc("gpssn_queries_total", &[("path", "sampled")], 1);
            r.set_gauge("gpssn_cache_entries", &[("shard", "0")], 7.0);
            r.observe("gpssn_phase_ns", &[("phase", "refine")], 900);
            r
        };
        let a = make();
        let b = make();
        assert_eq!(a.snapshot(), b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.counter("gpssn_queries_total", &[("path", "exact")]), 2);
        assert_eq!(
            s.histogram("gpssn_phase_ns", &[("phase", "refine")])
                .unwrap()
                .count,
            1
        );
        assert_eq!(s.gauge("gpssn_cache_entries", &[("shard", "0")]), Some(7.0));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.inc(
            "gpssn_cache_lookups_total",
            &[("kind", "ball"), ("result", "hit")],
            3,
        );
        r.observe("gpssn_phase_duration_ns", &[("phase", "refine")], 1000);
        r.observe("gpssn_phase_duration_ns", &[("phase", "refine")], 0);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE gpssn_cache_lookups_total counter"));
        assert!(text.contains("gpssn_cache_lookups_total{kind=\"ball\",result=\"hit\"} 3"));
        assert!(text.contains("# TYPE gpssn_phase_duration_ns histogram"));
        // Cumulative buckets: the value 0 lands in le="0" with count 1;
        // +Inf always equals the total count.
        assert!(text.contains("gpssn_phase_duration_ns_bucket{le=\"0\",phase=\"refine\"} 1"));
        assert!(text.contains("gpssn_phase_duration_ns_bucket{le=\"+Inf\",phase=\"refine\"} 2"));
        assert!(text.contains("gpssn_phase_duration_ns_sum{phase=\"refine\"} 1000"));
        assert!(text.contains("gpssn_phase_duration_ns_count{phase=\"refine\"} 2"));
    }

    #[test]
    fn json_snapshot_parses() {
        let r = Registry::new();
        r.inc("a_total", &[], 1);
        r.set_gauge("g", &[("s", "0")], 0.5);
        r.observe("h_ns", &[], 42);
        let json = r.snapshot().to_json();
        crate::json::parse(&json).expect("snapshot JSON must parse");
    }
}
