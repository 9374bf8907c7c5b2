//! End-to-end GP-SSN query benchmarks across datasets and parameter
//! settings (the Criterion counterpart of Figures 8–11).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gpssn_bench::run_query;
use gpssn_core::{EngineConfig, GpSsnEngine, GpSsnQuery, QueryOptions};
use gpssn_ssn::{DatasetKind, SpatialSocialNetwork};

const SCALE: f64 = 0.05;

fn engine(ssn: &SpatialSocialNetwork) -> GpSsnEngine<'_> {
    GpSsnEngine::build(ssn, EngineConfig::default())
}

fn bench_datasets(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_by_dataset");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for kind in DatasetKind::all() {
        let ssn = kind.build(SCALE, 42);
        let eng = engine(&ssn);
        let q = GpSsnQuery::with_defaults(11);
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &q, |b, q| {
            b.iter(|| black_box(run_query(&eng, q, &QueryOptions::default())));
        });
    }
    group.finish();
}

fn bench_tau(c: &mut Criterion) {
    let ssn = DatasetKind::Uni.build(SCALE, 42);
    let eng = engine(&ssn);
    let mut group = c.benchmark_group("query_by_tau");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &tau in &[2usize, 5, 10] {
        let q = GpSsnQuery {
            tau,
            ..GpSsnQuery::with_defaults(11)
        };
        group.bench_with_input(BenchmarkId::from_parameter(tau), &q, |b, q| {
            b.iter(|| black_box(run_query(&eng, q, &QueryOptions::default())));
        });
    }
    group.finish();
}

fn bench_radius(c: &mut Criterion) {
    let ssn = DatasetKind::Uni.build(SCALE, 42);
    let eng = engine(&ssn);
    let mut group = c.benchmark_group("query_by_radius");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &r in &[0.5f64, 2.0, 4.0] {
        let q = GpSsnQuery {
            radius: r,
            ..GpSsnQuery::with_defaults(11)
        };
        group.bench_with_input(BenchmarkId::from_parameter(r), &q, |b, q| {
            b.iter(|| black_box(run_query(&eng, q, &QueryOptions::default())));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_datasets, bench_tau, bench_radius
}
criterion_main!(benches);
