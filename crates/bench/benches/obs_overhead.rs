//! Instrumentation overhead of the `gpssn-obs` telemetry layer.
//!
//! Four configurations over the same refinement-heavy workload:
//!
//! * `none`       — no `Obs` attached (every site is one `Option` check)
//! * `disabled`   — `Obs` attached, metrics and tracing both off (one
//!   relaxed atomic load per site); the configuration the <1% overhead
//!   budget in DESIGN.md §10 applies to
//! * `metrics`    — per-query counters + phase histograms on
//! * `full`       — metrics + span tracing on
//!
//! Besides the Criterion groups, a manual pass compares `none` vs
//! `disabled` medians and reports the ratio; set `GPSSN_OBS_ASSERT=1`
//! to turn the <1% budget into a hard assertion (off by default — the
//! CI container's single noisy core makes sub-percent timing flaky).
//! `obs_report` emits the same comparison as `BENCH_obs.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gpssn_bench::run_query;
use gpssn_core::{EngineConfig, GpSsnEngine, GpSsnQuery, QueryOptions};
use gpssn_obs::{Obs, ObsConfig};
use gpssn_ssn::{DatasetKind, SpatialSocialNetwork};
use std::sync::Arc;
use std::time::Instant;

const SCALE: f64 = 0.1;

fn engine(ssn: &SpatialSocialNetwork, obs: Option<Arc<Obs>>) -> GpSsnEngine<'_> {
    GpSsnEngine::build(
        ssn,
        EngineConfig {
            obs,
            ..Default::default()
        },
    )
}

fn workload() -> Vec<GpSsnQuery> {
    [3u32, 11, 27, 42]
        .into_iter()
        .map(|user| GpSsnQuery {
            tau: 5,
            radius: 3.0,
            ..GpSsnQuery::with_defaults(user)
        })
        .collect()
}

fn run(eng: &GpSsnEngine, queries: &[GpSsnQuery]) {
    for q in queries {
        black_box(run_query(eng, q, &QueryOptions::default()));
    }
}

fn bench_configs(c: &mut Criterion) {
    let ssn = DatasetKind::Uni.build(SCALE, 42);
    let queries = workload();
    let mut group = c.benchmark_group("obs_overhead");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);

    let configs: [(&str, Option<Arc<Obs>>); 4] = [
        ("none", None),
        ("disabled", Some(Arc::new(Obs::disabled()))),
        ("metrics", Some(Arc::new(Obs::with_metrics()))),
        (
            "full",
            Some(Arc::new(Obs::new(ObsConfig {
                metrics: true,
                tracing: true,
                trace_capacity: 1 << 16,
            }))),
        ),
    ];
    for (name, obs) in configs {
        let eng = engine(&ssn, obs);
        group.bench_function(name, |b| b.iter(|| run(&eng, &queries)));
    }
    group.finish();
}

/// Median of `reps` timed passes, in seconds.
fn median_pass(eng: &GpSsnEngine, queries: &[GpSsnQuery], reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            run(eng, queries);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn check_disabled_budget(_c: &mut Criterion) {
    let ssn = DatasetKind::Uni.build(SCALE, 42);
    let queries = workload();
    let none = engine(&ssn, None);
    let dormant = engine(&ssn, Some(Arc::new(Obs::disabled())));
    run(&none, &queries); // warm both engines' caches
    run(&dormant, &queries);
    let base = median_pass(&none, &queries, 7);
    let off = median_pass(&dormant, &queries, 7);
    let overhead = off / base - 1.0;
    eprintln!(
        "obs_overhead: none {base:.4}s, disabled {off:.4}s, overhead {:.2}%",
        overhead * 100.0
    );
    if std::env::var_os("GPSSN_OBS_ASSERT").is_some() {
        assert!(
            overhead < 0.01,
            "disabled-instrumentation overhead {:.2}% exceeds the 1% budget",
            overhead * 100.0
        );
    }
}

criterion_group!(benches, bench_configs, check_disabled_budget);
criterion_main!(benches);
