//! Quickstart: build a spatial-social network, index it, and answer a
//! group planning query.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gpssn::core::{EngineConfig, GpSsnEngine, GpSsnError, GpSsnQuery, QueryBudget};
use gpssn::ssn::{synthetic, DatasetStats, SyntheticConfig};

fn main() -> Result<(), GpSsnError> {
    // 1. A synthetic spatial-social network (2% of the paper's scale so
    //    the example runs in a couple of seconds).
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.02), 42);
    println!("dataset: {}", DatasetStats::of(&ssn));

    // 2. Build the engine: pivot selection + the I_R / I_S indexes.
    let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
    println!(
        "indexes: I_R {} pages, I_S {} pages",
        engine.road_index().num_pages(),
        engine.social_index().num_pages()
    );

    // 3. Ask: a group of 4 friends with common interests (γ >= 0.3), POIs
    //    matching everyone (θ >= 0.4) within a radius-2 road ball,
    //    minimizing the farthest home-to-POI drive.
    let query = GpSsnQuery {
        user: 11,
        tau: 4,
        gamma: 0.3,
        theta: 0.4,
        radius: 2.0,
    };
    let outcome = engine.try_query(&query, &Default::default(), &QueryBudget::unlimited())?;

    match outcome.answer() {
        Some(ans) => {
            println!("\ngroup S  = {:?}", ans.users);
            println!("pois  R  = {:?}", ans.pois);
            println!("maxdist  = {:.3}", ans.maxdist);
            for &u in &ans.users {
                let w = ssn.social().interest(u);
                println!(
                    "  user {u:>4}: interests {:?}",
                    w.weights()
                        .iter()
                        .map(|x| (x * 100.0).round() / 100.0)
                        .collect::<Vec<_>>()
                );
            }
        }
        None => println!("\nno feasible group/POI pair for these thresholds"),
    }
    println!(
        "\nmetrics: {:.2?} CPU, {} page accesses",
        outcome.metrics.cpu, outcome.metrics.io_pages
    );
    Ok(())
}
