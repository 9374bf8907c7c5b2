//! Overhead of the resource-budget metering on the hot query path.
//!
//! Every query now threads a [`gpssn_core::QueryBudget`] through the
//! best-first loop (one counter check per heap pop / enumerated group,
//! a clock read every `DEADLINE_CHECK_PERIOD` events). These benches
//! quantify that cost against the same query under `unlimited()`:
//! `counters` arms all three counter limits high enough to never trip,
//! `deadline` additionally arms a far-future deadline so the periodic
//! `Instant::now()` reads execute. See BENCH.md for recorded numbers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gpssn_core::{EngineConfig, GpSsnEngine, GpSsnQuery, QueryBudget};
use gpssn_ssn::DatasetKind;
use std::time::Duration;

const SCALE: f64 = 0.05;

fn bench_budget_overhead(c: &mut Criterion) {
    let ssn = DatasetKind::Uni.build(SCALE, 42);
    let eng = GpSsnEngine::build(&ssn, EngineConfig::default());
    let q = GpSsnQuery::with_defaults(11);

    let unlimited = QueryBudget::unlimited();
    let counters = QueryBudget {
        max_heap_pops: Some(u64::MAX / 2),
        max_groups_enumerated: Some(u64::MAX / 2),
        max_dijkstra_settles: Some(u64::MAX / 2),
        deadline: None,
    };
    let deadline = QueryBudget {
        deadline: Some(Duration::from_secs(3600)),
        ..counters.clone()
    };

    let mut group = c.benchmark_group("budget_overhead");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(20);
    for (name, budget) in [
        ("unlimited", &unlimited),
        ("counters", &counters),
        ("deadline", &deadline),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(eng.try_query(&q, &Default::default(), budget).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_budget_overhead);
criterion_main!(benches);
