//! Center-refinement benchmarks for the PR-2 fast paths: sequential vs
//! parallel verification (intra-query worker threads over the candidate
//! centers) and cold vs warm cross-query distance cache. All modes
//! return bit-identical answers (see `tests/refinement_modes.rs`); this
//! measures what that exactness costs or saves.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gpssn_bench::run_query;
use gpssn_core::{
    Counter, DistanceCacheConfig, EngineConfig, GpSsnEngine, GpSsnQuery, QueryCounters,
    QueryOptions,
};
use gpssn_ssn::{DatasetKind, SpatialSocialNetwork};

const SCALE: f64 = 0.1;

fn engine(ssn: &SpatialSocialNetwork, cache: Option<DistanceCacheConfig>) -> GpSsnEngine<'_> {
    GpSsnEngine::build(
        ssn,
        EngineConfig {
            distance_cache: cache,
            ..Default::default()
        },
    )
}

/// A handful of refinement-heavy queries (large radius and group size
/// push more centers past the bound phase into exact verification).
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

fn opts(threads: usize) -> QueryOptions {
    QueryOptions {
        refine_threads: threads,
        ..Default::default()
    }
}

/// Sequential vs parallel center verification, cache disabled so the
/// threading dimension is isolated.
fn bench_threads(c: &mut Criterion) {
    let ssn = DatasetKind::Uni.build(SCALE, 42);
    let eng = engine(&ssn, None);
    let queries = workload();
    let mut group = c.benchmark_group("refinement_threads");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);
    for &threads in &[1usize, 2, 4] {
        let o = opts(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &o, |b, o| {
            b.iter(|| {
                for q in &queries {
                    black_box(run_query(&eng, q, o));
                }
            });
        });
    }
    group.finish();
}

/// Cold vs warm distance cache at one thread. "cold" rebuilds nothing —
/// the cache is simply absent — while "warm" replays the workload
/// against a cache already populated by a priming pass, the cross-query
/// batch scenario the cache exists for.
fn bench_cache(c: &mut Criterion) {
    let ssn = DatasetKind::Uni.build(SCALE, 42);
    let queries = workload();
    let mut group = c.benchmark_group("refinement_cache");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);

    let uncached = engine(&ssn, None);
    group.bench_function("disabled", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(run_query(&uncached, q, &QueryOptions::default()));
            }
        });
    });

    let cached = engine(&ssn, Some(DistanceCacheConfig::default()));
    let hits_misses = |c: &QueryCounters| {
        (
            c[Counter::BallHits] + c[Counter::DistHits],
            c[Counter::BallMisses] + c[Counter::DistMisses],
        )
    };
    let mut tallies = (0u64, 0u64);
    for q in &queries {
        let out = run_query(&cached, q, &QueryOptions::default()); // priming pass
        let (h, m) = hits_misses(&out.metrics.counters);
        tallies.0 += h;
        tallies.1 += m;
    }
    group.bench_function("warm", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(run_query(&cached, q, &QueryOptions::default()));
            }
        });
    });
    // One steady-state replay to report the hit rate Criterion can't.
    let mut hits = 0u64;
    let mut misses = 0u64;
    for q in &queries {
        let out = run_query(&cached, q, &QueryOptions::default());
        let (h, m) = hits_misses(&out.metrics.counters);
        hits += h;
        misses += m;
    }
    eprintln!(
        "refinement_cache: priming pass {}h/{}m, steady state {}h/{}m (hit rate {:.1}%)",
        tallies.0,
        tallies.1,
        hits,
        misses,
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );
    group.finish();
}

/// The full production stack (4 threads + warm cache) against the
/// plain engine — the headline number for this PR.
fn bench_combined(c: &mut Criterion) {
    let ssn = DatasetKind::Uni.build(SCALE, 42);
    let queries = workload();
    let mut group = c.benchmark_group("refinement_combined");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);

    let plain = engine(&ssn, None);
    group.bench_function("plain", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(run_query(&plain, q, &opts(1)));
            }
        });
    });

    let fast = engine(&ssn, Some(DistanceCacheConfig::default()));
    for q in &queries {
        run_query(&fast, q, &QueryOptions::default()); // prime
    }
    group.bench_function("parallel4_warm_cache", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(run_query(&fast, q, &opts(4)));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_threads, bench_cache, bench_combined);
criterion_main!(benches);
