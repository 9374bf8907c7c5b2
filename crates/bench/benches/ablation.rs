//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * each pruning family toggled off (how much work does every rule
//!   save?);
//! * the paper's geometric MBR interest test versus the tight halfspace
//!   corner test;
//! * Algorithm-1 optimized pivots versus naive random pivots.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gpssn_bench::run_query;
use gpssn_core::algorithm::{QueryMode, QueryOptions};
use gpssn_core::{EngineConfig, GpSsnEngine, GpSsnQuery};
use gpssn_index::PivotSelectConfig;
use gpssn_ssn::{DatasetKind, SpatialSocialNetwork};

const SCALE: f64 = 0.05;

fn bench_pruning_ablation(c: &mut Criterion) {
    let ssn = DatasetKind::Uni.build(SCALE, 42);
    let eng = GpSsnEngine::build(&ssn, EngineConfig::default());
    let q = GpSsnQuery::with_defaults(11);
    let variants: [(&str, QueryOptions); 6] = [
        ("all_rules", QueryOptions::default()),
        (
            "no_interest",
            QueryOptions {
                use_interest_pruning: false,
                ..Default::default()
            },
        ),
        (
            "no_social_distance",
            QueryOptions {
                use_social_distance_pruning: false,
                ..Default::default()
            },
        ),
        (
            "no_matching",
            QueryOptions {
                use_matching_pruning: false,
                ..Default::default()
            },
        ),
        (
            "no_delta",
            QueryOptions {
                use_delta_pruning: false,
                ..Default::default()
            },
        ),
        (
            "no_pruning_at_all",
            QueryOptions {
                use_interest_pruning: false,
                use_social_distance_pruning: false,
                use_matching_pruning: false,
                use_delta_pruning: false,
                collect_stats: false,
                use_tight_mbr_test: false,
                ..Default::default()
            },
        ),
    ];
    let mut group = c.benchmark_group("ablation_pruning");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for (name, opts) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, opts| {
            b.iter(|| black_box(run_query(&eng, &q, opts)));
        });
    }
    group.finish();
}

fn engine_with_pivot_cfg(ssn: &SpatialSocialNetwork, swap_iter: usize) -> GpSsnEngine<'_> {
    GpSsnEngine::build(
        ssn,
        EngineConfig {
            pivot_select: PivotSelectConfig {
                swap_iter,
                global_iter: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

fn bench_pivot_quality(c: &mut Criterion) {
    let ssn = DatasetKind::Uni.build(SCALE, 42);
    // swap_iter = 0 => random pivots (Algorithm 1 degenerates to the
    // initial random draw); default => locally optimized pivots.
    let random = engine_with_pivot_cfg(&ssn, 0);
    let optimized = engine_with_pivot_cfg(&ssn, 24);
    let q = GpSsnQuery::with_defaults(11);
    let mut group = c.benchmark_group("ablation_pivots");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    group.bench_function("random_pivots", |b| {
        b.iter(|| black_box(run_query(&random, &q, &QueryOptions::default())))
    });
    group.bench_function("algorithm1_pivots", |b| {
        b.iter(|| black_box(run_query(&optimized, &q, &QueryOptions::default())))
    });
    group.finish();
}

fn bench_refinement_modes(c: &mut Criterion) {
    // Exact enumeration vs the paper's future-work subset sampling, and
    // the geometric vs tight interest-MBR test.
    let ssn = DatasetKind::Uni.build(SCALE, 42);
    let eng = GpSsnEngine::build(&ssn, EngineConfig::default());
    let q = GpSsnQuery::with_defaults(11);
    let mut group = c.benchmark_group("ablation_refinement");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    group.bench_function("exact_enumeration", |b| {
        b.iter(|| black_box(run_query(&eng, &q, &QueryOptions::default())))
    });
    for samples in [32, 128] {
        let sampled = QueryOptions {
            mode: QueryMode::Approximate { samples, seed: 7 },
            ..Default::default()
        };
        group.bench_function(format!("subset_sampling_{samples}"), |b| {
            b.iter(|| black_box(run_query(&eng, &q, &sampled)))
        });
    }
    group.bench_function("tight_mbr_test", |b| {
        let opts = QueryOptions {
            use_tight_mbr_test: true,
            ..Default::default()
        };
        b.iter(|| black_box(run_query(&eng, &q, &opts)))
    });
    group.finish();
}

fn bench_buffer_pool(c: &mut Criterion) {
    let ssn = DatasetKind::Uni.build(SCALE, 42);
    let raw = GpSsnEngine::build(&ssn, EngineConfig::default());
    let pooled = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            page_cache_capacity: Some(256),
            ..Default::default()
        },
    );
    let q = GpSsnQuery::with_defaults(11);
    let mut group = c.benchmark_group("ablation_buffer_pool");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    group.bench_function("no_pool", |b| {
        b.iter(|| black_box(run_query(&raw, &q, &QueryOptions::default())))
    });
    group.bench_function("lru_256_pages", |b| {
        b.iter(|| black_box(run_query(&pooled, &q, &QueryOptions::default())))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_pruning_ablation, bench_pivot_quality, bench_refinement_modes, bench_buffer_pool
}
criterion_main!(benches);
