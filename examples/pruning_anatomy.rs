//! Anatomy of the GP-SSN pruning pipeline: runs one query with full
//! statistics and again with each pruning family disabled, showing what
//! every rule contributes (the live version of the paper's Figure 7).
//!
//! ```text
//! cargo run --release --example pruning_anatomy
//! ```

use gpssn::core::algorithm::QueryOptions;
use gpssn::core::{EngineConfig, GpSsnEngine, GpSsnError, GpSsnQuery, QueryBudget};
use gpssn::ssn::{synthetic, SyntheticConfig};

fn main() -> Result<(), GpSsnError> {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.05), 21);
    let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
    let q = GpSsnQuery::with_defaults(17);

    let budget = QueryBudget::unlimited();
    let full = engine.try_query(
        &q,
        &QueryOptions {
            collect_stats: true,
            ..Default::default()
        },
        &budget,
    )?;
    let s = &full.metrics.stats;
    println!("query: {q:?}\n");
    println!("-- pruning anatomy (all rules on) --");
    println!("users:  {} total", s.users_total);
    println!(
        "  index-level pruned : {:>6}  ({:.1}%)",
        s.users_pruned_index,
        100.0 * s.social_index_power()
    );
    println!(
        "  object-level pruned: {:>6}  ({:.1}% of survivors)",
        s.users_pruned_object,
        100.0 * s.social_object_power()
    );
    println!("  candidates         : {:>6}", s.candidate_users);
    println!("pois:   {} total", s.pois_total);
    println!(
        "  index-level pruned : {:>6}  ({:.1}%)",
        s.pois_pruned_index,
        100.0 * s.road_index_power()
    );
    println!(
        "  object-level pruned: {:>6}  ({:.1}% of survivors)",
        s.pois_pruned_object,
        100.0 * s.road_object_power()
    );
    println!("  candidate centers  : {:>6}", s.candidate_pois);
    println!(
        "pairs:  {:.3e} possible, {} refined  (power {:.5}%)",
        s.pairs_total_estimate,
        s.pairs_refined,
        100.0 * s.pair_power()
    );
    println!(
        "\nanswer: {:?}",
        full.answer().map(|a| (&a.users, a.maxdist))
    );
    println!(
        "cost:   {:.2?}, {} page accesses",
        full.metrics.cpu, full.metrics.io_pages
    );

    println!("\n-- ablation: disable one rule family at a time --");
    let variants: [(&str, QueryOptions); 4] = [
        (
            "no interest pruning",
            QueryOptions {
                use_interest_pruning: false,
                ..Default::default()
            },
        ),
        (
            "no social-distance pruning",
            QueryOptions {
                use_social_distance_pruning: false,
                ..Default::default()
            },
        ),
        (
            "no matching pruning",
            QueryOptions {
                use_matching_pruning: false,
                ..Default::default()
            },
        ),
        (
            "no delta pruning",
            QueryOptions {
                use_delta_pruning: false,
                ..Default::default()
            },
        ),
    ];
    println!("{:<28} {:>12} {:>8}", "variant", "CPU", "I/O");
    println!(
        "{:<28} {:>12} {:>8}",
        "all rules",
        format!("{:.2?}", full.metrics.cpu),
        full.metrics.io_pages
    );
    for (name, opts) in variants {
        let out = engine.try_query(&q, &opts, &budget)?;
        // Same answer regardless of pruning (the rules are safe).
        assert_eq!(
            out.answer().map(|a| a.maxdist),
            full.answer().map(|a| a.maxdist)
        );
        println!(
            "{:<28} {:>12} {:>8}",
            name,
            format!("{:.2?}", out.metrics.cpu),
            out.metrics.io_pages
        );
    }
    Ok(())
}
