//! Example 2 of the paper: online advertising and marketing (Groupon-style
//! group-buying deals).
//!
//! A sales manager picks target customers; for each one, a GP-SSN query
//! finds a group of `τ` like-minded friends plus a bundle of spatially
//! close merchants (POIs) matching the whole group — exactly the coupon
//! recommendation of the paper's Example 2.
//!
//! ```text
//! cargo run --release --example group_marketing
//! ```

use gpssn::core::{Counter, EngineConfig, GpSsnEngine, GpSsnQuery, QueryBudget};
use gpssn::ssn::{synthetic, SyntheticConfig};

const CATEGORIES: [&str; 5] = [
    "dining",
    "fashion",
    "electronics",
    "wellness",
    "entertainment",
];

fn main() {
    // A mid-sized city: ~1.5K customers, ~500 merchants.
    let ssn = synthetic(&SyntheticConfig::zipf().scaled(0.05), 7);
    let engine = GpSsnEngine::build(&ssn, EngineConfig::default());

    // The campaign: 5-person group-buy deals, strong interest affinity,
    // merchants must cover at least half of each member's interest mass.
    let campaign = GpSsnQuery {
        user: 0,
        tau: 5,
        gamma: 0.3,
        theta: 0.5,
        radius: 2.5,
    };

    println!("Group-buy campaign: deals need {} buyers\n", campaign.tau);
    let targets: Vec<u32> = (0..ssn.social().num_users() as u32)
        .filter(|&u| ssn.social().graph().degree(u) >= 4)
        .take(8)
        .collect();

    let mut sent = 0;
    for &customer in &targets {
        let q = GpSsnQuery {
            user: customer,
            ..campaign.clone()
        };
        let outcome = match engine.try_query(&q, &Default::default(), &QueryBudget::unlimited()) {
            Ok(out) => out,
            Err(e) => {
                println!("customer {customer}: query rejected ({e}) — not targeted");
                continue;
            }
        };
        match outcome.answer() {
            Some(ans) => {
                sent += 1;
                let dominant = dominant_category(&ssn, customer);
                println!(
                    "coupon #{sent}: customer {customer} ({dominant}) + {} friends -> \
                     {} merchants, worst trip {:.2} ({} page accesses, {:.1?})",
                    ans.users.len() - 1,
                    ans.pois.len(),
                    ans.maxdist,
                    outcome.metrics.counters[Counter::IoPages],
                    outcome.metrics.cpu,
                );
                let cats: Vec<&str> = ans
                    .pois
                    .iter()
                    .flat_map(|&o| ssn.pois().get(o).keywords.iter())
                    .map(|&k| CATEGORIES[k as usize % CATEGORIES.len()])
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                println!("            merchant categories: {}", cats.join(", "));
            }
            None => {
                println!(
                    "customer {customer}: no qualifying group — not targeted \
                     (saves a wasted coupon)"
                );
            }
        }
    }
    println!(
        "\n{sent}/{} customers received a group-buy recommendation",
        targets.len()
    );
}

fn dominant_category(ssn: &gpssn::SpatialSocialNetwork, u: u32) -> &'static str {
    let w = ssn.social().interest(u);
    let mut best = 0;
    for f in 1..w.dim() {
        if w.weight(f) > w.weight(best) {
            best = f;
        }
    }
    CATEGORIES[best % CATEGORIES.len()]
}
