//! Helpers shared by the integration tests.
#![allow(dead_code)] // each test binary uses its own subset

use gpssn::core::{
    EngineConfig, GpSsnAnswer, GpSsnEngine, GpSsnError, GpSsnQuery, QueryBudget, QueryOptions,
    QueryOutcome,
};
use gpssn::index::SocialIndexConfig;
use gpssn::ssn::SpatialSocialNetwork;

/// A small-index engine configuration: 3 road and 3 social pivots,
/// `I_S` leaves of 16 users under fanout-4 nodes.
pub fn small_cfg() -> EngineConfig {
    EngineConfig {
        num_road_pivots: 3,
        num_social_pivots: 3,
        social_index: SocialIndexConfig {
            leaf_size: 16,
            fanout: 4,
        },
        ..Default::default()
    }
}

/// An engine built with [`small_cfg`].
pub fn small_engine(ssn: &SpatialSocialNetwork) -> GpSsnEngine<'_> {
    GpSsnEngine::build(ssn, small_cfg())
}

/// Runs `q` under `opts` and an unlimited budget. A statically
/// infeasible query comes back as an exact empty outcome; any other
/// validation error panics with its message.
pub fn query(engine: &GpSsnEngine<'_>, q: &GpSsnQuery, opts: &QueryOptions) -> QueryOutcome {
    match engine.try_query(q, opts, &QueryBudget::unlimited()) {
        Ok(out) => out,
        Err(GpSsnError::Infeasible { .. }) => QueryOutcome::infeasible(),
        Err(e) => panic!("invalid query: {e}"),
    }
}

/// Bitwise answer comparison: users, POIs, and the exact bit pattern of
/// the objective. `f64::to_bits` makes "equal up to rounding" failures
/// impossible to paper over.
pub fn assert_bit_identical(a: Option<&GpSsnAnswer>, b: Option<&GpSsnAnswer>, what: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.users, y.users, "{what}: user groups differ");
            assert_eq!(x.pois, y.pois, "{what}: POI sets differ");
            assert_eq!(
                x.maxdist.to_bits(),
                y.maxdist.to_bits(),
                "{what}: maxdist bits differ ({} vs {})",
                x.maxdist,
                y.maxdist
            );
        }
        _ => panic!(
            "{what}: feasibility differs ({:?} vs {:?})",
            a.map(|x| x.maxdist),
            b.map(|x| x.maxdist)
        ),
    }
}

/// The parameter-grid query corpus shared by the equivalence-style
/// suites: τ ∈ {1,2,3} × γ ∈ {0.2,0.5,0.8} × θ ∈ {0.2,0.6} ×
/// r ∈ {1,2,3}, with the query user derived from `seed` and the grid
/// position — feasible and infeasible cases both.
pub fn corpus(ssn: &SpatialSocialNetwork, seed: u64) -> Vec<GpSsnQuery> {
    let m = ssn.social().num_users() as u32;
    let mut qs = Vec::new();
    for (qi, &tau) in [1usize, 2, 3].iter().enumerate() {
        for (gi, &gamma) in [0.2, 0.5, 0.8].iter().enumerate() {
            for &theta in &[0.2, 0.6] {
                for &radius in &[1.0, 2.0, 3.0] {
                    let user = (seed as u32 + qi as u32 * 7 + gi as u32 * 3) % m;
                    qs.push(GpSsnQuery {
                        user,
                        tau,
                        gamma,
                        theta,
                        radius,
                    });
                }
            }
        }
    }
    qs
}
