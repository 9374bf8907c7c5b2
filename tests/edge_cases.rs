//! Failure injection and boundary conditions: degenerate networks,
//! unreachable road components, boundary parameter values — each checked
//! against the brute-force Baseline oracle where one exists.

mod common;
use common::query;
use gpssn::core::{
    exact_baseline, Completion, EngineConfig, GpSsnEngine, GpSsnError, GpSsnQuery, QueryBudget,
};
use gpssn::index::{PivotSelectConfig, SocialIndexConfig};
use gpssn::road::{NetworkPoint, Poi, PoiSet, RoadNetwork};
use gpssn::social::{InterestVector, SocialNetwork};
use gpssn::spatial::Point;
use gpssn::ssn::{read_ssn, synthetic, write_ssn, SpatialSocialNetwork, SyntheticConfig};

fn tiny_engine_cfg() -> EngineConfig {
    EngineConfig {
        num_road_pivots: 1,
        num_social_pivots: 1,
        social_index: SocialIndexConfig {
            leaf_size: 4,
            fanout: 2,
        },
        pivot_select: PivotSelectConfig {
            sample_pairs: 8,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Two-component road network: a west segment and an east segment with
/// no connection between them.
fn split_world() -> SpatialSocialNetwork {
    let locs = vec![
        Point::new(0.0, 0.0),
        Point::new(2.0, 0.0),
        Point::new(50.0, 0.0),
        Point::new(52.0, 0.0),
    ];
    let road = RoadNetwork::from_euclidean_edges(locs, &[(0, 1), (2, 3)]);
    let pois = PoiSet::new(
        &road,
        vec![
            Poi::new(NetworkPoint::new(&road, 0, 1.0), vec![0, 1]), // west
            Poi::new(NetworkPoint::new(&road, 1, 1.0), vec![0, 1]), // east
        ],
    );
    let iv = |w: [f64; 2]| InterestVector::new(w.to_vec());
    let social = SocialNetwork::new(
        vec![iv([0.9, 0.5]), iv([0.8, 0.6]), iv([0.7, 0.7])],
        &[(0, 1), (1, 2)],
    );
    let homes = vec![
        NetworkPoint::new(&road, 0, 0.0), // west
        NetworkPoint::new(&road, 0, 2.0), // west
        NetworkPoint::new(&road, 1, 0.0), // east!
    ];
    SpatialSocialNetwork::new(road, pois, social, homes)
}

#[test]
fn disconnected_road_components_do_not_panic() {
    let ssn = split_world();
    let engine = GpSsnEngine::build(&ssn, tiny_engine_cfg());
    // Users 0 and 1 live west: a west POI works; user 2 lives east and
    // can never reach west POIs (infinite maxdist), so groups including
    // user 2 are never optimal.
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.5,
        theta: 0.5,
        radius: 2.0,
    };
    let out = query(&engine, &q, &Default::default());
    let ans = out.answer().expect("west pair is feasible");
    assert_eq!(ans.users, vec![0, 1]);
    assert!(ans.maxdist.is_finite());
}

#[test]
fn group_forced_across_components_is_infeasible_in_practice() {
    let ssn = split_world();
    let engine = GpSsnEngine::build(&ssn, tiny_engine_cfg());
    // tau = 3 forces user 2 (east) into the group: every candidate ball
    // is unreachable for someone, so maxdist is infinite for all centers
    // and no finite answer should be produced.
    let q = GpSsnQuery {
        user: 0,
        tau: 3,
        gamma: 0.2,
        theta: 0.2,
        radius: 2.0,
    };
    if let Some(ans) = query(&engine, &q, &Default::default()).answers.pop() {
        assert!(
            !ans.maxdist.is_finite() || ans.maxdist > 1e9,
            "cross-component group got finite maxdist {}",
            ans.maxdist
        );
    }
}

#[test]
fn tau_larger_than_population_returns_none() {
    let ssn = split_world();
    let engine = GpSsnEngine::build(&ssn, tiny_engine_cfg());
    let q = GpSsnQuery {
        user: 0,
        tau: 10,
        gamma: 0.0,
        theta: 0.0,
        radius: 2.0,
    };
    assert!(query(&engine, &q, &Default::default()).answers.is_empty());
}

#[test]
fn tau_one_is_a_solo_trip() {
    let ssn = split_world();
    let engine = GpSsnEngine::build(&ssn, tiny_engine_cfg());
    let q = GpSsnQuery {
        user: 2,
        tau: 1,
        gamma: 9.0,
        theta: 0.5,
        radius: 2.0,
    };
    let out = query(&engine, &q, &Default::default());
    let ans = out.answer().expect("solo trip east");
    assert_eq!(ans.users, vec![2]);
    assert!(ans.maxdist.is_finite());
}

#[test]
fn friendless_user_with_tau_two_returns_none() {
    let locs = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
    let road = RoadNetwork::from_euclidean_edges(locs, &[(0, 1)]);
    let pois = PoiSet::new(
        &road,
        vec![Poi::new(NetworkPoint::new(&road, 0, 0.5), vec![0])],
    );
    let social = SocialNetwork::new(
        vec![
            InterestVector::new(vec![1.0]),
            InterestVector::new(vec![1.0]),
        ],
        &[], // no friendships at all
    );
    let homes = vec![
        NetworkPoint::new(&road, 0, 0.0),
        NetworkPoint::new(&road, 0, 1.0),
    ];
    let ssn = SpatialSocialNetwork::new(road, pois, social, homes);
    let engine = GpSsnEngine::build(&ssn, tiny_engine_cfg());
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.0,
        theta: 0.0,
        radius: 1.0,
    };
    assert!(query(&engine, &q, &Default::default()).answers.is_empty());
}

#[test]
fn boundary_radii_are_accepted() {
    let ssn = split_world();
    let engine = GpSsnEngine::build(&ssn, tiny_engine_cfg());
    let cfg = gpssn::index::RoadIndexConfig::default();
    for radius in [cfg.r_min, cfg.r_max] {
        let q = GpSsnQuery {
            user: 0,
            tau: 1,
            gamma: 0.0,
            theta: 0.0,
            radius,
        };
        let _ = query(&engine, &q, &Default::default()); // must not panic
    }
}

#[test]
fn statically_infeasible_queries_return_typed_errors() {
    let ssn = split_world(); // 3 users; user layout in `split_world`
    let engine = GpSsnEngine::build(&ssn, tiny_engine_cfg());
    let unlimited = QueryBudget::unlimited();

    // τ above the population: detectable before any traversal.
    let q = GpSsnQuery {
        user: 0,
        tau: 10,
        gamma: 0.0,
        theta: 0.0,
        radius: 2.0,
    };
    assert!(matches!(
        engine.try_query(&q, &Default::default(), &unlimited),
        Err(GpSsnError::Infeasible { .. })
    ));
    // The oracle agrees there is nothing to find.
    assert!(exact_baseline(&ssn, &q).is_none());

    // Friendless query user with τ >= 2: no connected group can exist.
    let locs = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
    let road = RoadNetwork::from_euclidean_edges(locs, &[(0, 1)]);
    let pois = PoiSet::new(
        &road,
        vec![Poi::new(NetworkPoint::new(&road, 0, 0.5), vec![0])],
    );
    let social = SocialNetwork::new(
        vec![
            InterestVector::new(vec![1.0]),
            InterestVector::new(vec![1.0]),
        ],
        &[],
    );
    let homes = vec![
        NetworkPoint::new(&road, 0, 0.0),
        NetworkPoint::new(&road, 0, 1.0),
    ];
    let lonely = SpatialSocialNetwork::new(road, pois, social, homes);
    let lonely_engine = GpSsnEngine::build(&lonely, tiny_engine_cfg());
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.0,
        theta: 0.0,
        radius: 1.0,
    };
    assert!(matches!(
        lonely_engine.try_query(&q, &Default::default(), &unlimited),
        Err(GpSsnError::Infeasible { .. })
    ));
    assert!(exact_baseline(&lonely, &q).is_none());
}

#[test]
fn unachievable_gamma_is_exactly_none_like_brute_force() {
    // γ above any attainable pairwise interest score is only discovered
    // during the search, so it is an exact empty answer, not an error.
    let ssn = split_world();
    let engine = GpSsnEngine::build(&ssn, tiny_engine_cfg());
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 100.0,
        theta: 0.0,
        radius: 2.0,
    };
    let out = engine
        .try_query(&q, &Default::default(), &QueryBudget::unlimited())
        .expect("valid, just empty");
    assert!(out.answers.is_empty());
    assert!(matches!(out.completion, Completion::Exact));
    assert!(exact_baseline(&ssn, &q).is_none());
}

#[test]
fn boundary_radii_match_brute_force() {
    // r exactly at the index's r_min / r_max is *inside* the supported
    // range: no RadiusOutOfIndexRange, and the answer matches the oracle.
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.008), 23);
    let engine = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            num_road_pivots: 3,
            num_social_pivots: 3,
            social_index: SocialIndexConfig {
                leaf_size: 16,
                fanout: 4,
            },
            ..Default::default()
        },
    );
    let cfg = gpssn::index::RoadIndexConfig::default();
    for radius in [cfg.r_min, cfg.r_max] {
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.3,
            theta: 0.2,
            radius,
        };
        let out = engine
            .try_query(&q, &Default::default(), &QueryBudget::unlimited())
            .expect("boundary radius is valid");
        assert!(matches!(out.completion, Completion::Exact));
        let oracle = exact_baseline(&ssn, &q);
        match (out.answer(), &oracle) {
            (Some(a), Some(b)) => assert!(
                (a.maxdist - b.maxdist).abs() < 1e-9,
                "engine {} vs oracle {} at r = {radius}",
                a.maxdist,
                b.maxdist
            ),
            (None, None) => {}
            other => panic!("engine and oracle disagree at r = {radius}: {other:?}"),
        }
    }
    // One epsilon outside either end is a typed radius error.
    for radius in [cfg.r_min * 0.99, cfg.r_max * 1.01] {
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.3,
            theta: 0.2,
            radius,
        };
        assert!(matches!(
            engine.try_query(&q, &Default::default(), &QueryBudget::unlimited()),
            Err(GpSsnError::RadiusOutOfIndexRange { .. })
        ));
    }
}

#[test]
fn empty_poi_set_yields_none() {
    let locs = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
    let road = RoadNetwork::from_euclidean_edges(locs, &[(0, 1)]);
    let pois = PoiSet::new(&road, vec![]);
    let social = SocialNetwork::new(
        vec![
            InterestVector::new(vec![1.0]),
            InterestVector::new(vec![1.0]),
        ],
        &[(0, 1)],
    );
    let homes = vec![
        NetworkPoint::new(&road, 0, 0.0),
        NetworkPoint::new(&road, 0, 1.0),
    ];
    let ssn = SpatialSocialNetwork::new(road, pois, social, homes);
    let engine = GpSsnEngine::build(&ssn, tiny_engine_cfg());
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.0,
        theta: 0.0,
        radius: 1.0,
    };
    assert!(query(&engine, &q, &Default::default()).answers.is_empty());
}

#[test]
fn colocated_users_and_pois_work() {
    // Everyone lives on the same spot; all POIs stacked on one point.
    let locs = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
    let road = RoadNetwork::from_euclidean_edges(locs, &[(0, 1)]);
    let spot = NetworkPoint::new(&road, 0, 0.5);
    let pois = PoiSet::new(
        &road,
        vec![Poi::new(spot, vec![0]), Poi::new(spot, vec![0])],
    );
    let social = SocialNetwork::new(
        vec![
            InterestVector::new(vec![1.0]),
            InterestVector::new(vec![1.0]),
        ],
        &[(0, 1)],
    );
    let homes = vec![spot, spot];
    let ssn = SpatialSocialNetwork::new(road, pois, social, homes);
    let engine = GpSsnEngine::build(&ssn, tiny_engine_cfg());
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.5,
        theta: 0.5,
        radius: 0.5,
    };
    let out = query(&engine, &q, &Default::default());
    let ans = out.answer().expect("trivially feasible");
    assert_eq!(ans.maxdist, 0.0);
}

#[test]
fn two_vertex_network_builds_with_default_config() {
    // Fewer road vertices and users than the default pivot counts.
    let locs = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
    let road = RoadNetwork::from_euclidean_edges(locs, &[(0, 1)]);
    let pois = PoiSet::new(
        &road,
        vec![Poi::new(NetworkPoint::new(&road, 0, 0.5), vec![0])],
    );
    let social = SocialNetwork::new(
        vec![
            InterestVector::new(vec![1.0]),
            InterestVector::new(vec![1.0]),
        ],
        &[(0, 1)],
    );
    let homes = vec![
        NetworkPoint::new(&road, 0, 0.0),
        NetworkPoint::new(&road, 0, 1.0),
    ];
    let mut bytes = Vec::new();
    write_ssn(
        &SpatialSocialNetwork::new(road, pois, social, homes),
        &mut bytes,
    )
    .expect("in-memory write");
    let ssn = read_ssn(&bytes[..]).expect("a valid .ssn");
    let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.5,
        theta: 0.5,
        radius: 1.0,
    };
    let out = engine
        .try_query(&q, &Default::default(), &QueryBudget::unlimited())
        .expect("a valid query");
    assert_eq!(out.completion, Completion::Exact);
    let ans = out.answer().expect("both users reach the POI");
    assert_eq!((ans.users.as_slice(), ans.maxdist), (&[0, 1][..], 0.5));
}
