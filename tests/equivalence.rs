//! The central correctness property of the reproduction: the indexed
//! GP-SSN engine (Algorithm 2 + all pruning) returns exactly the same
//! optimum as the exhaustive Baseline on randomized small spatial-social
//! networks, across a grid of query parameters.

mod common;
use common::query;
use gpssn::core::algorithm::{EngineConfig, QueryOptions};
use gpssn::core::query::check_answer;
use gpssn::core::{exact_baseline, GpSsnEngine, GpSsnQuery};
use gpssn::index::{PivotSelectConfig, SocialIndexConfig};
use gpssn::ssn::{synthetic, SyntheticConfig};

fn small_cfg(seed: u64) -> EngineConfig {
    EngineConfig {
        num_road_pivots: 3,
        num_social_pivots: 3,
        social_index: SocialIndexConfig {
            leaf_size: 8,
            fanout: 3,
            ..Default::default()
        },
        pivot_select: PivotSelectConfig {
            seed,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn engine_matches_brute_force_across_seeds_and_parameters() {
    let taus = [1usize, 2, 3];
    let gammas = [0.2, 0.5, 0.8];
    let thetas = [0.2, 0.6];
    let radii = [1.0, 3.0];
    let mut checked = 0usize;
    let mut answered = 0usize;
    for seed in 0..6u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), seed);
        let engine = GpSsnEngine::build(&ssn, small_cfg(seed));
        let m = ssn.social().num_users() as u32;
        for (qi, &tau) in taus.iter().enumerate() {
            for (gi, &gamma) in gammas.iter().enumerate() {
                for &theta in &thetas {
                    for &radius in &radii {
                        let user = ((seed as u32 + qi as u32 * 7 + gi as u32 * 3) % m) as u32;
                        let q = GpSsnQuery {
                            user,
                            tau,
                            gamma,
                            theta,
                            radius,
                        };
                        let expected = exact_baseline(&ssn, &q);
                        let got = query(&engine, &q, &Default::default()).answers.pop();
                        checked += 1;
                        match (&expected, &got) {
                            (None, None) => {}
                            (Some(e), Some(g)) => {
                                answered += 1;
                                check_answer(&ssn, &q, g).expect("engine answer invalid");
                                assert!(
                                    (e.maxdist - g.maxdist).abs() < 1e-6,
                                    "objective mismatch seed={seed} q={q:?}: \
                                     baseline {} vs engine {}",
                                    e.maxdist,
                                    g.maxdist
                                );
                            }
                            (e, g) => panic!(
                                "feasibility mismatch seed={seed} q={q:?}: baseline {:?} engine {:?}",
                                e.as_ref().map(|a| a.maxdist),
                                g.as_ref().map(|a| a.maxdist)
                            ),
                        }
                    }
                }
            }
        }
    }
    assert!(checked >= 200, "grid too small: {checked}");
    assert!(
        answered >= 10,
        "too few feasible cases exercised: {answered}"
    );
}

#[test]
fn engine_matches_brute_force_on_zipf_data() {
    for seed in 20..24u64 {
        let ssn = synthetic(&SyntheticConfig::zipf().scaled(0.004), seed);
        let engine = GpSsnEngine::build(&ssn, small_cfg(seed));
        let q = GpSsnQuery {
            user: 1,
            tau: 2,
            gamma: 0.4,
            theta: 0.4,
            radius: 2.0,
        };
        let expected = exact_baseline(&ssn, &q);
        let got = query(&engine, &q, &Default::default()).answers.pop();
        match (expected, got) {
            (None, None) => {}
            (Some(e), Some(g)) => assert!((e.maxdist - g.maxdist).abs() < 1e-6),
            other => panic!("mismatch on seed {seed}: {other:?}"),
        }
    }
}

#[test]
fn every_pruning_subset_is_exact() {
    // Toggling pruning families off must never change the answer.
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.005), 77);
    let engine = GpSsnEngine::build(&ssn, small_cfg(77));
    let q = GpSsnQuery {
        user: 3,
        tau: 2,
        gamma: 0.4,
        theta: 0.3,
        radius: 2.5,
    };
    let reference = query(&engine, &q, &Default::default()).answers.pop();
    for mask in 0..16u32 {
        let opts = QueryOptions {
            collect_stats: false,
            use_interest_pruning: mask & 1 != 0,
            use_social_distance_pruning: mask & 2 != 0,
            use_matching_pruning: mask & 4 != 0,
            use_delta_pruning: mask & 8 != 0,
            use_tight_mbr_test: false,
            ..Default::default()
        };
        let got = query(&engine, &q, &opts).answers.pop();
        match (&reference, &got) {
            (None, None) => {}
            (Some(a), Some(b)) => assert!(
                (a.maxdist - b.maxdist).abs() < 1e-6,
                "mask {mask}: {} vs {}",
                a.maxdist,
                b.maxdist
            ),
            other => panic!("mask {mask} changed feasibility: {other:?}"),
        }
    }
}
