//! One module per paper artifact. See `DESIGN.md` §4 for the experiment
//! index (paper figure/table → module → bench target).

pub mod fig7;
pub mod fig8;
pub mod sweeps;
pub mod tables;

use crate::runner::{run_query, ExperimentContext};
use gpssn_core::algorithm::QueryOptions;
use gpssn_core::{Counter, GpSsnEngine, GpSsnQuery};

/// Metrics averaged over several query users.
#[derive(Debug, Clone, Default)]
pub struct Averaged {
    /// Mean CPU seconds per query.
    pub cpu_seconds: f64,
    /// Mean I/O page accesses per query.
    pub io_pages: f64,
    /// Fraction of queries that returned an answer.
    pub hit_rate: f64,
    /// Mean Figure-7 pruning powers (when collected).
    pub social_index_power: f64,
    /// Mean social object-level power.
    pub social_object_power: f64,
    /// Mean road index-level power.
    pub road_index_power: f64,
    /// Mean road object-level power.
    pub road_object_power: f64,
    /// Mean social-distance rule power (Fig. 7b).
    pub social_distance_power: f64,
    /// Mean interest rule power (Fig. 7b).
    pub interest_power: f64,
    /// Mean road-distance rule power (Fig. 7c).
    pub road_distance_power: f64,
    /// Mean matching rule power (Fig. 7c).
    pub matching_power: f64,
    /// Mean pair-level power (Fig. 7d).
    pub pair_power: f64,
}

/// Runs `ctx.queries_per_point` queries (varying the query user) and
/// averages the metrics.
pub fn run_queries(
    ctx: &ExperimentContext,
    engine: &GpSsnEngine<'_>,
    base: &GpSsnQuery,
    collect_stats: bool,
) -> Averaged {
    let users = ctx.sample_query_users(engine.ssn(), ctx.queries_per_point);
    let opts = QueryOptions {
        collect_stats,
        ..Default::default()
    };
    let mut acc = Averaged::default();
    let n = users.len().max(1) as f64;
    for u in users {
        let q = GpSsnQuery {
            user: u,
            ..base.clone()
        };
        let out = run_query(engine, &q, &opts);
        acc.cpu_seconds += out.metrics.cpu.as_secs_f64() / n;
        acc.io_pages += out.metrics.counters[Counter::IoPages] as f64 / n;
        if out.answer().is_some() {
            acc.hit_rate += 1.0 / n;
        }
        let s = &out.metrics.counters;
        acc.social_index_power += s.social_index_power() / n;
        acc.social_object_power += s.social_object_power() / n;
        acc.road_index_power += s.road_index_power() / n;
        acc.road_object_power += s.road_object_power() / n;
        acc.social_distance_power += s.social_distance_power() / n;
        acc.interest_power += s.interest_power() / n;
        acc.road_distance_power += s.road_distance_power() / n;
        acc.matching_power += s.matching_power() / n;
        acc.pair_power += s.pair_power(q.tau) / n;
    }
    acc
}
