//! Acceptance properties for the telemetry layer.
//!
//! 1. **Registry = sum of per-query counters** — every [`Counter`]'s
//!    Prometheus series equals that counter summed over the per-query
//!    outcomes, bitwise, so the registry is a projection of the
//!    per-query record and the Fig. 7 powers computed from either agree.
//! 2. **Chrome trace validity** — a traced query emits `trace_event`
//!    JSON our own minimal parser accepts, with the query → prune →
//!    refine → verify_center → distance-layer span levels present and
//!    `verify_center` spans parented under a refinement span.
//! 3. **Batch determinism** — two identical batch runs on fresh engines
//!    produce identical counter maps, and so does a single-threaded run,
//!    regardless of how the OS interleaves the serve workers (every
//!    query adds its own counters to the one shared registry).

mod common;
use common::corpus;
use gpssn::core::algorithm::{EngineConfig, QueryOptions};
use gpssn::core::{Counter, GpSsnEngine, QueryBudget, QueryCounters};
use gpssn::index::{PivotSelectConfig, SocialIndexConfig};
use gpssn::obs::{chrome_trace_json, json, Obs};
use gpssn::ssn::{synthetic, SyntheticConfig};
use std::sync::Arc;

fn small_cfg(seed: u64, obs: Option<Arc<Obs>>) -> EngineConfig {
    EngineConfig {
        num_road_pivots: 3,
        num_social_pivots: 3,
        social_index: SocialIndexConfig {
            leaf_size: 8,
            fanout: 3,
            ..Default::default()
        },
        pivot_select: PivotSelectConfig {
            seed,
            ..Default::default()
        },
        // No cross-query cache: its hit/miss split depends on thread
        // interleaving, which would make the determinism test vacuous.
        distance_cache: None,
        obs,
        ..Default::default()
    }
}

/// Value of the counter whose rendered id is exactly `id` in a
/// Prometheus exposition. Panics when the series is absent — a missing
/// series in these tests means the instrumentation regressed.
fn prom_counter(text: &str, id: &str) -> u64 {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(id) {
            if let Some(v) = rest.strip_prefix(' ') {
                return v.trim().parse().expect("counter value parses as u64");
            }
        }
    }
    panic!("series {id:?} not found in exposition:\n{text}");
}

#[test]
fn every_counter_series_is_the_sum_of_per_query_counters() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 7);
    let obs = Arc::new(Obs::with_metrics());
    let engine = GpSsnEngine::build(&ssn, small_cfg(7, Some(obs.clone())));
    let opts = QueryOptions {
        collect_stats: true,
        ..Default::default()
    };

    let mut sum = QueryCounters::default();
    for q in corpus(&ssn, 7) {
        sum += &common::query(&engine, &q, &opts).metrics.counters;
    }
    assert!(
        sum[Counter::UsersTotal] > 0,
        "corpus produced no feasible query"
    );

    let text = obs.base_registry().snapshot().to_prometheus();
    for &c in Counter::ALL {
        let labels: Vec<String> = c
            .labels()
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        let id = if labels.is_empty() {
            c.name().to_string()
        } else {
            format!("{}{{{}}}", c.name(), labels.join(","))
        };
        assert_eq!(
            prom_counter(&text, &id),
            sum[c],
            "{id} diverges from the per-query {c:?} sum"
        );
    }
}

#[test]
fn chrome_trace_is_valid_json_with_expected_span_levels() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
    let obs = Arc::new(Obs::full());
    let engine = GpSsnEngine::build(&ssn, small_cfg(11, Some(obs.clone())));

    // A handful of queries is enough to exercise every span level while
    // staying far below the ring-buffer capacity.
    for q in corpus(&ssn, 11).into_iter().take(12) {
        let _ = common::query(&engine, &q, &Default::default());
    }
    let records = obs.tracer().records();
    assert_eq!(obs.tracer().dropped(), 0, "ring buffer overflowed");

    // Every span level of the query lifecycle is present, including at
    // least one distance-layer span (`ball` always; `ch_p2p` /
    // `dijkstra_batch` depending on which backend served).
    let has = |name: &str| records.iter().any(|r| r.name == name);
    for required in [
        "query",
        "prune_social",
        "prune_road",
        "refine",
        "verify_center",
    ] {
        assert!(has(required), "span {required:?} missing from trace");
    }
    assert!(
        has("ball") || has("ch_p2p") || has("dijkstra_batch"),
        "no distance-layer span in trace"
    );

    // Every verify_center span is parented under a refinement span.
    let refine_ids: std::collections::HashSet<u64> = records
        .iter()
        .filter(|r| r.name == "refine" || r.name == "refine_fallback")
        .map(|r| r.id)
        .collect();
    let mut verified = 0usize;
    for r in records.iter().filter(|r| r.name == "verify_center") {
        assert!(
            refine_ids.contains(&r.parent),
            "verify_center span {} parented under {} (not a refinement span)",
            r.id,
            r.parent
        );
        verified += 1;
    }
    assert!(verified > 0, "no verify_center span recorded");

    // The Chrome export parses with our own JSON parser and carries the
    // span tree in `args`.
    let doc = json::parse(&chrome_trace_json(&records)).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), records.len());
    for (ev, rec) in events.iter().zip(&records) {
        assert_eq!(ev.get("name").and_then(|v| v.as_str()), Some(rec.name));
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        let args = ev.get("args").expect("args object");
        assert_eq!(args.get("id").and_then(|v| v.as_f64()), Some(rec.id as f64));
        assert_eq!(
            args.get("parent").and_then(|v| v.as_f64()),
            Some(rec.parent as f64)
        );
    }
}

#[test]
fn batch_counters_are_deterministic_across_runs() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 13);
    let queries = corpus(&ssn, 13);
    let budget = QueryBudget::unlimited();

    let run = |threads: usize| {
        let obs = Arc::new(Obs::with_metrics());
        let engine = GpSsnEngine::build(&ssn, small_cfg(13, Some(obs.clone())));
        let results = engine.try_query_batch(&queries, threads, &Default::default(), &budget);
        assert!(results.iter().all(|r| r.is_ok()));
        obs.base_registry().snapshot()
    };

    let a = run(4);
    let b = run(4);
    assert!(!a.counters.is_empty(), "batch recorded no counters");
    // Two runs over the same corpus produce identical counter maps
    // (histograms carry wall-clock durations and are excluded; their
    // counts are checked against the query total).
    assert_eq!(a.counters, b.counters, "batch counters not reproducible");

    // Four workers accumulate what one worker does.
    let seq = run(1);
    assert_eq!(
        a.counters, seq.counters,
        "threaded batch diverges from single-worker accumulation"
    );

    assert_eq!(
        a.counter("gpssn_queries_total", &[("path", "exact")]),
        queries.len() as u64
    );
    let cpu = a
        .histogram("gpssn_query_cpu_ns", &[("path", "exact")])
        .expect("per-query CPU histogram present");
    assert_eq!(cpu.count, queries.len() as u64);
}

#[test]
fn build_stage_histograms_and_witness_counters_are_recorded() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 19);
    let obs = Arc::new(Obs::with_metrics());
    let _engine = GpSsnEngine::build(&ssn, small_cfg(19, Some(obs.clone())));
    let snap = obs.base_registry().snapshot();
    // Every stage of the build pipeline lands one observation in the
    // gpssn_build_stage_ns histogram.
    for stage in [
        "road_pivots",
        "social_pivots",
        "poi_augment",
        "rstar_str",
        "node_aggregate",
        "ch_contract",
        "user_tables",
        "leaf_partition",
        "leaf_nodes",
        "tree_levels",
    ] {
        let h = snap
            .histogram("gpssn_build_stage_ns", &[("stage", stage)])
            .unwrap_or_else(|| panic!("build stage {stage:?} not recorded"));
        assert_eq!(h.count, 1, "stage {stage:?} recorded {} times", h.count);
    }
    // The CH contraction reused its witness workspaces: every candidate
    // simulation resets the search, and all but the first per workspace
    // recycle previously-touched state instead of reallocating.
    let resets = snap.counter("gpssn_build_witness_resets_total", &[]);
    let recycles = snap.counter("gpssn_build_witness_recycles_total", &[]);
    assert!(resets > 0, "no witness searches ran during the build");
    assert!(recycles > 0, "witness workspaces were never recycled");
    assert!(recycles <= resets);
    assert!(snap.counter("gpssn_build_ch_shortcuts_total", &[]) > 0);

    // A build without a metrics sink records nothing (and still works).
    let quiet = GpSsnEngine::build(&ssn, small_cfg(19, None));
    assert!(quiet.obs_handle().is_none());
}
