//! Data-driven tuning + parallel batch answering: the operational loop a
//! service built on GP-SSN would run.
//!
//! 1. tune `γ`/`θ`/`r` from the data distributions and a simulated trip
//!    history (paper Section 2.2's tuning discussion);
//! 2. answer a batch of queries for many users in parallel;
//! 3. fall back to the sampled approximate mode for latency-bound users
//!    and show the quality gap.
//!
//! ```text
//! cargo run --release --example tuned_batch
//! ```

use gpssn::core::{
    suggest_parameters, EngineConfig, GpSsnEngine, GpSsnQuery, QueryBudget, QueryMode, QueryOptions,
};
use gpssn::ssn::{synthetic, SyntheticConfig};

fn main() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.04), 3);
    let engine = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            page_cache_capacity: Some(256),
            ..Default::default()
        },
    );

    // Simulated trip history: nearby POI pairs users visited together.
    let trips: Vec<Vec<u32>> = (0..40u32)
        .map(|i| {
            let a = (i * 13) % ssn.pois().len() as u32;
            let near = ssn
                .pois()
                .network_knn(ssn.road(), &ssn.pois().get(a).position, 3);
            near.into_iter().map(|(o, _)| o).collect()
        })
        .collect();
    let tuned = suggest_parameters(&ssn, &trips, 0.7, 512, 11);
    println!(
        "tuned parameters: gamma={:.3} theta={:.3} r={:.3} (from {} samples)",
        tuned.gamma, tuned.theta, tuned.radius, tuned.samples
    );
    // Clamp r into the index's supported range.
    let radius = tuned.radius.clamp(0.5, 4.0);

    // A batch of queries across users, answered on 4 threads.
    let queries: Vec<GpSsnQuery> = (0..24u32)
        .filter(|&u| ssn.social().graph().degree(u) >= 2)
        .map(|u| GpSsnQuery {
            radius,
            ..tuned.query(u, 4)
        })
        .collect();
    let budget = QueryBudget::unlimited();
    let t0 = std::time::Instant::now();
    let results = engine.try_query_batch(&queries, 4, &QueryOptions::default(), &budget);
    let wall = t0.elapsed();
    let answered = results
        .iter()
        .flatten()
        .filter(|o| o.answer().is_some())
        .count();
    let total_io: u64 = results.iter().flatten().map(|o| o.metrics.io_pages).sum();
    println!(
        "batch: {}/{} answered in {wall:.2?} on 4 threads ({} physical page reads total)",
        answered,
        queries.len(),
        total_io
    );

    // Approximate mode comparison on the first answered query.
    if let Some((q, exact)) = queries
        .iter()
        .zip(&results)
        .find_map(|(q, r)| r.as_ref().ok()?.answer().map(|a| (q, a)))
    {
        let sampled = QueryOptions {
            mode: QueryMode::Approximate {
                samples: 48,
                seed: 1,
            },
            ..Default::default()
        };
        let approx = engine.try_query(q, &sampled, &budget);
        match approx.as_ref().ok().and_then(|o| o.answer()) {
            Some(a) => println!(
                "sampling vs exact for user {}: approx maxdist {:.3} vs exact {:.3} \
                 ({}x samples)",
                q.user, a.maxdist, exact.maxdist, 48
            ),
            None => println!(
                "sampling missed the answer for user {} (exact maxdist {:.3})",
                q.user, exact.maxdist
            ),
        }
    }
}
