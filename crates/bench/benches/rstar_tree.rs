//! Microbenchmarks for the STR-packed R-tree behind `I_R`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gpssn_spatial::{Point, RStarTree, Rect};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
        .collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("rstar_build");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &n in &[1_000usize, 10_000] {
        let pts = random_points(n, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &pts, |b, pts| {
            b.iter(|| {
                black_box(RStarTree::str_bulk_load(
                    32,
                    pts.iter().enumerate().map(|(i, &p)| (i as u32, p)),
                ))
            });
        });
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let pts = random_points(10_000, 5);
    let tree = RStarTree::str_bulk_load(32, pts.iter().enumerate().map(|(i, &p)| (i as u32, p)));
    let mut group = c.benchmark_group("rstar_query");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("range_5x5", |b| {
        let rect = Rect::new(Point::new(40.0, 40.0), Point::new(45.0, 45.0));
        b.iter(|| black_box(tree.range_query(&rect)));
    });
    group.bench_function("radius_2", |b| {
        let c = Point::new(50.0, 50.0);
        b.iter(|| black_box(tree.within_radius(&c, 2.0)));
    });
    group.bench_function("radius_8", |b| {
        let c = Point::new(50.0, 50.0);
        b.iter(|| black_box(tree.within_radius(&c, 8.0)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_build, bench_queries
}
criterion_main!(benches);
