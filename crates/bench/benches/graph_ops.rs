//! Microbenchmarks for the graph substrate: Dijkstra variants, BFS, and
//! connected-subgraph enumeration — the inner loops of every GP-SSN
//! query.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gpssn_graph::{
    bounded_hops, dijkstra_all, dijkstra_bounded, dijkstra_targets, enumerate_connected_subsets,
    CsrGraph, NodeId,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn random_graph(n: usize, extra: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(NodeId, NodeId, f64)> = (1..n)
        .map(|v| {
            (
                rng.gen_range(0..v) as NodeId,
                v as NodeId,
                rng.gen_range(0.1..2.0),
            )
        })
        .collect();
    for _ in 0..extra {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u != v {
            edges.push((u, v, rng.gen_range(0.1..2.0)));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

fn bench_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("dijkstra");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    for &n in &[1_000usize, 10_000, 30_000] {
        let g = random_graph(n, n, 7);
        group.bench_with_input(BenchmarkId::new("full", n), &g, |b, g| {
            b.iter(|| black_box(dijkstra_all(g, &[(0, 0.0)])));
        });
        group.bench_with_input(BenchmarkId::new("bounded_r5", n), &g, |b, g| {
            b.iter(|| black_box(dijkstra_bounded(g, &[(0, 0.0)], 5.0)));
        });
        let targets: Vec<NodeId> = (0..8).map(|i| (i * n / 8) as NodeId).collect();
        group.bench_with_input(BenchmarkId::new("multi_target", n), &g, |b, g| {
            b.iter(|| black_box(dijkstra_targets(g, &[(0, 0.0)], &targets)));
        });
    }
    group.finish();
}

fn bench_bfs(c: &mut Criterion) {
    let g = random_graph(30_000, 60_000, 11);
    c.bench_function("bfs/bounded_4_hops_30k", |b| {
        b.iter(|| black_box(bounded_hops(&g, 0, 4)));
    });
}

fn bench_subgraph_enumeration(c: &mut Criterion) {
    let g = random_graph(200, 600, 13);
    let mut group = c.benchmark_group("connected_subsets");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &k in &[3usize, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let mut count = 0usize;
                enumerate_connected_subsets(&g, 0, k, &mut |_, _| true, &mut |_| {
                    count += 1;
                    count < 2_000
                });
                black_box(count)
            });
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
    targets = bench_dijkstra, bench_bfs, bench_subgraph_enumeration
}
criterion_main!(benches);
