//! Per-layer metrics of a traced replay, taken from outside the program:
//! the benchmark's own timestamps around each request, the counters the
//! public API returns (registry projections of `QueryMetrics`,
//! `ServeStats`, `DistanceCache::lifetime_stats`, the flight recorder),
//! the phase spans the engine emits with tracing on, and the
//! `gpssn_build_stage_ns{stage}` histograms.
//!
//! Times and counts are per engine-served request unless the name says
//! ratio or percent. A span's self time is its duration minus the
//! durations of its children.

use crate::drive::Run;
use crate::stats::{median, percentile, sorted};
use crate::verify::Verdict;
use crate::workload::{Discipline, Expect, Line};
use gpssn_core::CacheLifetimeStats;
use gpssn_obs::{FlightRecord, Snapshot, SpanRecord};
use std::collections::{BTreeMap, HashMap};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.overhead_us", "us"),
    ("serve.emit_delay_p95_ms", "ms"),
    ("serve.engine_us", "us"),
    ("serve.shed_expired", "ratio"),
    ("serve.rejected", "ratio"),
    ("algorithm.prune_social_ms", "ms"),
    ("algorithm.prune_road_ms", "ms"),
    ("algorithm.heap_pops", "count"),
    ("algorithm.candidate_users", "count"),
    ("refinement.refine_self_ms", "ms"),
    ("refinement.fallback_ms", "ms"),
    ("refinement.verify_center_self_ms", "ms"),
    ("refinement.verify_center_calls", "count"),
    ("refinement.groups_enumerated", "count"),
    ("refinement.pairs_refined", "count"),
    ("graph.ch_p2p_ms", "ms"),
    ("graph.ch_p2p_calls", "count"),
    ("graph.ch_batches", "count"),
    ("graph.ch_settles", "count"),
    ("graph.dijkstra_batch_ms", "ms"),
    ("graph.dijkstra_batch_calls", "count"),
    ("graph.dijkstra_settles", "count"),
    ("road.ball_ms", "ms"),
    ("road.ball_calls", "count"),
    ("cache.dist_hit_ratio", "ratio"),
    ("cache.dist_lookups", "count"),
    ("cache.ball_hit_ratio", "ratio"),
    ("cache.ball_lookups", "count"),
    ("cache.dist_evictions", "count"),
    ("index.build.road_pivots_ms", "ms"),
    ("index.build.social_pivots_ms", "ms"),
    ("index.build.poi_augment_ms", "ms"),
    ("index.build.rstar_str_ms", "ms"),
    ("index.build.node_aggregate_ms", "ms"),
    ("index.build.ch_contract_ms", "ms"),
    ("index.build.user_tables_ms", "ms"),
    ("index.build.leaf_partition_ms", "ms"),
    ("index.build.leaf_nodes_ms", "ms"),
    ("index.build.tree_levels_ms", "ms"),
    ("bench.generator_lag_p95_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
    ("bench.datagen_s", "s"),
    ("bench.warmup_s", "s"),
];

/// Engine phase spans reported as self-time rows, with their metric.
/// Together with queue wait and serve overhead they must account for
/// end-to-end latency; what they miss is `bench.unattributed_pct`.
pub const PHASE_ROWS: [(&str, &str); 8] = [
    ("prune_social", "algorithm.prune_social_ms"),
    ("prune_road", "algorithm.prune_road_ms"),
    ("refine", "refinement.refine_self_ms"),
    ("refine_fallback", "refinement.fallback_ms"),
    ("verify_center", "refinement.verify_center_self_ms"),
    ("ch_p2p", "graph.ch_p2p_ms"),
    ("dijkstra_batch", "graph.dijkstra_batch_ms"),
    ("ball", "road.ball_ms"),
];

/// Largest share of end-to-end latency the phase rows may leave
/// unexplained.
pub const MAX_UNATTRIBUTED_PCT: f64 = 5.0;

/// Everything one traced replay produced.
pub struct Traced<'a> {
    pub lines: &'a [Line],
    /// The untraced timed run and its verdict.
    pub timed: &'a Run,
    /// The traced replay of the same lines and its verdict.
    pub replay: &'a Run,
    pub verdict: &'a Verdict,
    pub spans: &'a [SpanRecord],
    /// The engine registry after the replay (metrics were off during
    /// warm-up, so its query counters cover the replay only).
    pub registry: &'a Snapshot,
    pub flight: &'a [FlightRecord],
    pub cache_before: CacheLifetimeStats,
    pub cache_after: CacheLifetimeStats,
    pub datagen_s: f64,
    pub warmup_s: f64,
}

/// Self time and count per span name.
fn span_totals(spans: &[SpanRecord]) -> HashMap<&'static str, (u64, u64)> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children.entry(s.parent).or_default() += s.dur_ns;
    }
    let mut totals: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for s in spans {
        let own = s
            .dur_ns
            .saturating_sub(children.get(&s.id).copied().unwrap_or(0));
        let e = totals.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    totals
}

/// The per-layer metrics of `t`, or why the replay cannot be trusted.
pub fn per_layer(t: &Traced<'_>) -> Result<BTreeMap<&'static str, f64>, String> {
    let served = t.verdict.served;
    if served == 0 {
        return Err("the replay served no request".into());
    }
    let per_query = |x: f64| x / served as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Serve layer, per engine-served request.
    let mut queue_wait = vec![None; t.replay.len()];
    for r in t.flight {
        if let Some(slot) = queue_wait.get_mut(r.seq as usize) {
            *slot = Some(r.queue_wait_ns);
        }
    }
    let (mut waits, mut emit) = (Vec::new(), Vec::new());
    let (mut lat_ns, mut wait_ns) = (0.0, 0.0);
    for (k, line) in t.lines.iter().enumerate().take(t.replay.len()) {
        if line.expect != Expect::Exact {
            continue;
        }
        let qw = queue_wait[k].ok_or(format!("no flight record for line {}", k + 1))? as f64;
        let cpu = t.verdict.cpu_us[k] as f64 * 1e3;
        let lat = t.replay.latency(k).as_nanos() as f64;
        let since_submit = (t.replay.written[k] - t.replay.released[k]).as_nanos() as f64;
        lat_ns += lat;
        wait_ns += qw;
        waits.push(qw / 1e6);
        emit.push((since_submit - qw - cpu) / 1e6);
    }
    let pct = |xs: Vec<f64>, q: f64, what: &str| {
        percentile(&sorted(xs), q).ok_or(format!("too few requests for the {what} percentile"))
    };
    let cpu_ns = t
        .registry
        .histogram("gpssn_query_cpu_ns", &[("path", "exact")])
        .map_or(0, |h| h.sum) as f64;
    m.insert(
        "serve.queue_wait_p50_ms",
        pct(waits.clone(), 0.5, "queue wait")?,
    );
    m.insert("serve.queue_wait_p95_ms", pct(waits, 0.95, "queue wait")?);
    m.insert(
        "serve.overhead_us",
        per_query(lat_ns - wait_ns - cpu_ns) / 1e3,
    );
    m.insert("serve.emit_delay_p95_ms", pct(emit, 0.95, "emit delay")?);
    m.insert("serve.engine_us", per_query(cpu_ns) / 1e3);
    let stats = t.replay.stats;
    m.insert(
        "serve.shed_expired",
        stats.shed_expired as f64 / stats.submitted as f64,
    );
    m.insert(
        "serve.rejected",
        stats.rejected as f64 / stats.submitted as f64,
    );

    // Engine phases from the span tree.
    let totals = span_totals(t.spans);
    let self_ms = |name: &str| per_query(totals.get(name).map_or(0, |e| e.0) as f64) / 1e6;
    let calls = |name: &str| per_query(totals.get(name).map_or(0, |e| e.1) as f64);
    for name in ["query", "serve_request"] {
        let n = totals.get(name).map_or(0, |e| e.1) as usize;
        if n != served {
            return Err(format!("{n} `{name}` spans for {served} served requests"));
        }
    }
    let mut rows_ns = 0.0;
    for (span, metric) in PHASE_ROWS {
        rows_ns += totals.get(span).map_or(0, |e| e.0) as f64;
        m.insert(metric, self_ms(span));
    }
    m.insert("refinement.verify_center_calls", calls("verify_center"));
    m.insert("graph.ch_p2p_calls", calls("ch_p2p"));
    m.insert("graph.dijkstra_batch_calls", calls("dijkstra_batch"));
    m.insert("road.ball_calls", calls("ball"));

    // Engine counters (registry projections of QueryMetrics).
    let counter =
        |name: &str, labels: &[(&str, &str)]| per_query(t.registry.counter(name, labels) as f64);
    m.insert("algorithm.heap_pops", counter("gpssn_heap_pops_total", &[]));
    m.insert(
        "algorithm.candidate_users",
        counter("gpssn_candidate_users_total", &[]),
    );
    m.insert(
        "refinement.groups_enumerated",
        counter("gpssn_groups_enumerated_total", &[]),
    );
    m.insert(
        "refinement.pairs_refined",
        counter("gpssn_pairs_refined_total", &[]),
    );
    m.insert(
        "graph.ch_batches",
        counter("gpssn_distance_batches_total", &[("backend", "ch")]),
    );
    m.insert(
        "graph.ch_settles",
        counter("gpssn_settles_total", &[("backend", "ch")]),
    );
    m.insert(
        "graph.dijkstra_settles",
        counter("gpssn_settles_total", &[("backend", "dijkstra")]),
    );

    // Distance cache over the replay. Hits and lookups are the queries'
    // own per-value tallies; the cache's lifetime counters probe a row
    // only up to its first miss, so only their evictions are used.
    for kind in ["dist", "ball"] {
        let hits = t.registry.counter(
            "gpssn_cache_lookups_total",
            &[("kind", kind), ("result", "hit")],
        );
        let misses = t.registry.counter(
            "gpssn_cache_lookups_total",
            &[("kind", kind), ("result", "miss")],
        );
        let lookups = hits + misses;
        let (ratio, base) = match kind {
            "dist" => ("cache.dist_hit_ratio", "cache.dist_lookups"),
            _ => ("cache.ball_hit_ratio", "cache.ball_lookups"),
        };
        m.insert(
            ratio,
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        );
        m.insert(base, per_query(lookups as f64));
    }
    let evictions = t.cache_after.dist_evictions - t.cache_before.dist_evictions;
    m.insert("cache.dist_evictions", per_query(evictions as f64));

    // Index build stages of the traced engine's build.
    for (metric, _) in PER_LAYER
        .iter()
        .filter(|(n, _)| n.starts_with("index.build."))
    {
        let stage = metric
            .trim_start_matches("index.build.")
            .trim_end_matches("_ms");
        let h = t
            .registry
            .histogram("gpssn_build_stage_ns", &[("stage", stage)])
            .ok_or(format!("no build-stage histogram for {stage}"))?;
        m.insert(metric, h.sum as f64 / 1e6);
    }

    // The harness itself.
    let lags: Vec<f64> = (0..t.timed.len())
        .map(|k| t.timed.generator_lag(k).as_secs_f64() * 1e3)
        .collect();
    m.insert(
        "bench.generator_lag_p95_ms",
        pct(lags, 0.95, "generator lag")?,
    );
    m.insert(
        "bench.trace_overhead_pct",
        trace_overhead_pct(t.timed, t.replay),
    );
    let unattributed = 100.0 * (cpu_ns - rows_ns) / lat_ns;
    if unattributed.abs() > MAX_UNATTRIBUTED_PCT {
        return Err(format!(
            "phase rows, queue wait and serve overhead miss {unattributed:.2}% of latency"
        ));
    }
    m.insert("bench.unattributed_pct", unattributed);
    m.insert("bench.datagen_s", t.datagen_s);
    m.insert("bench.warmup_s", t.warmup_s);
    Ok(m)
}

/// What tracing cost: lost throughput in a closed loop; in an open
/// loop, whose throughput is the offered rate, the rise in median
/// latency.
fn trace_overhead_pct(untraced: &Run, traced: &Run) -> f64 {
    match untraced.discipline {
        Discipline::Closed { .. } => 100.0 * (1.0 - traced.throughput() / untraced.throughput()),
        Discipline::Open { .. } => {
            let median_ms = |r: &Run| {
                median(
                    &(0..r.len())
                        .map(|k| r.latency(k).as_secs_f64() * 1e3)
                        .collect::<Vec<_>>(),
                )
            };
            100.0 * (median_ms(traced) / median_ms(untraced) - 1.0)
        }
    }
}

/// Statements the workloads were chosen to make true, with whether the
/// replay bore each out.
pub fn confirmations(workload: &str, m: &BTreeMap<&'static str, f64>) -> Vec<(String, bool)> {
    let v = |k: &str| m.get(k).copied().unwrap_or(f64::NAN);
    match workload {
        "uni-default" => {
            let (top, _) = PHASE_ROWS
                .iter()
                .map(|(_, metric)| (*metric, v(metric)))
                .fold(("", f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
            vec![(
                format!("graph.ch_p2p_ms is the largest self-time row (largest: {top})"),
                top == "graph.ch_p2p_ms",
            )]
        }
        "gowcol-replan" => vec![(
            "refinement.verify_center_self_ms + algorithm.prune_social_ms > graph.ch_p2p_ms".into(),
            v("refinement.verify_center_self_ms") + v("algorithm.prune_social_ms")
                > v("graph.ch_p2p_ms"),
        )],
        "serve-light" => vec![(
            "serve.overhead_us > serve.engine_us".into(),
            v("serve.overhead_us") > v("serve.engine_us"),
        )],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            tid: 1,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, 0, "query", 100),
            span(2, 1, "refine", 70),
            span(3, 2, "verify_center", 50),
            span(4, 3, "ch_p2p", 30),
            span(5, 3, "ch_p2p", 10),
        ];
        let t = span_totals(&spans);
        assert_eq!(t["query"], (30, 1));
        assert_eq!(t["refine"], (20, 1));
        assert_eq!(t["verify_center"], (10, 1));
        assert_eq!(t["ch_p2p"], (40, 2));
    }

    #[test]
    fn phase_rows_are_per_layer_metrics() {
        for (_, metric) in PHASE_ROWS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == metric), "{metric}");
        }
    }
}
