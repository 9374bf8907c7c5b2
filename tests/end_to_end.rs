//! End-to-end runs over realistically shaped (scaled-down) datasets:
//! answers validate against Definition 5, metrics behave sanely, the
//! pruning powers land in plausible ranges, and the center loop searches
//! no center the optimum rules out.

mod common;
use common::{corpus, query};
use gpssn::core::algorithm::{EngineConfig, QueryOptions};
use gpssn::core::query::check_answer;
use gpssn::core::{Counter, GpSsnEngine, GpSsnQuery};
use gpssn::index::{PivotSelectConfig, SocialIndexConfig};
use gpssn::road::dist_rn;
use gpssn::ssn::{
    match_score_keywords, synthetic, DatasetKind, SpatialSocialNetwork, SyntheticConfig,
};

fn engine_for(ssn: &SpatialSocialNetwork, seed: u64) -> GpSsnEngine<'_> {
    GpSsnEngine::build(
        ssn,
        EngineConfig {
            num_road_pivots: 4,
            num_social_pivots: 4,
            social_index: SocialIndexConfig {
                leaf_size: 32,
                fanout: 6,
            },
            pivot_select: PivotSelectConfig {
                seed,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

#[test]
fn all_four_datasets_answer_and_validate() {
    for kind in DatasetKind::all() {
        let ssn = kind.build(0.02, 5);
        let engine = engine_for(&ssn, 5);
        let mut answered = 0;
        for user in [1u32, 7, 19] {
            let q = GpSsnQuery {
                user,
                tau: 3,
                gamma: 0.4,
                theta: 0.3,
                radius: 3.0,
            };
            let out = query(&engine, &q, &Default::default());
            assert!(
                out.metrics.counters[Counter::IoPages] > 0,
                "{}: no pages touched",
                kind.name()
            );
            if let Some(ans) = out.answer() {
                answered += 1;
                check_answer(&ssn, &q, ans)
                    .unwrap_or_else(|e| panic!("{}: invalid answer: {e}", kind.name()));
                assert!(ans.users.contains(&user));
                assert_eq!(ans.users.len(), 3);
            }
        }
        // At least one of the three query users should find a group on
        // every dataset at these relaxed thresholds.
        assert!(answered >= 1, "{}: no query answered", kind.name());
    }
}

#[test]
fn pruning_powers_are_plausible() {
    let ssn = DatasetKind::Uni.build(0.03, 9);
    let engine = engine_for(&ssn, 9);
    let q = GpSsnQuery {
        user: 3,
        tau: 5,
        gamma: 0.5,
        theta: 0.5,
        radius: 2.0,
    };
    let out = query(
        &engine,
        &q,
        &QueryOptions {
            collect_stats: true,
            ..Default::default()
        },
    );
    let s = &out.metrics.counters;
    // The paper reports very high combined pruning power; at minimum the
    // rules must fire and never exceed 100%.
    for p in [
        s.social_index_power(),
        s.social_object_power(),
        s.road_index_power(),
        s.road_object_power(),
        s.social_distance_power(),
        s.interest_power(),
        s.road_distance_power(),
        s.matching_power(),
        s.pair_power(q.tau),
    ] {
        assert!((0.0..=1.0).contains(&p), "power out of range: {p}");
    }
    let combined_social = (s[Counter::UsersPrunedIndex] + s[Counter::UsersPrunedObject]) as f64
        / s[Counter::UsersTotal] as f64;
    assert!(
        combined_social > 0.2,
        "social pruning suspiciously weak: {combined_social}"
    );
    assert!(
        s.pair_power(q.tau) > 0.99,
        "pair pruning power too weak: {}",
        s.pair_power(q.tau)
    );
}

#[test]
fn io_cost_scales_sublinearly_with_pois() {
    // Doubling the dataset should not double the traversal I/O (the
    // index prunes); allow generous slack for variance.
    let small = DatasetKind::Uni.build(0.02, 3);
    let large = DatasetKind::Uni.build(0.06, 3);
    let es = engine_for(&small, 3);
    let el = engine_for(&large, 3);
    let q = GpSsnQuery {
        user: 2,
        tau: 3,
        gamma: 0.5,
        theta: 0.5,
        radius: 2.0,
    };
    let io_s = query(&es, &q, &Default::default()).metrics.counters[Counter::IoPages] as f64;
    let io_l = query(&el, &q, &Default::default()).metrics.counters[Counter::IoPages] as f64;
    assert!(
        io_l < io_s * 6.0,
        "I/O grew superlinearly: {io_s} -> {io_l}"
    );
}

#[test]
fn larger_tau_is_harder_or_equal() {
    let ssn = DatasetKind::Uni.build(0.03, 13);
    let engine = engine_for(&ssn, 13);
    let small = GpSsnQuery {
        user: 2,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 3.0,
    };
    let large = GpSsnQuery {
        tau: 6,
        ..small.clone()
    };
    let a = query(&engine, &small, &Default::default());
    let b = query(&engine, &large, &Default::default());
    if let (Some(sa), Some(sb)) = (a.answer(), b.answer()) {
        // A bigger group can never achieve a *smaller* optimal maxdist
        // when it must contain the smaller group's requirements... not
        // strictly true in general, but the objective is monotone in the
        // group for a fixed R-center set; allow equality with slack.
        assert!(
            sb.maxdist + 1e-9 >= sa.maxdist * 0.5,
            "unexpected objective collapse"
        );
    }
}

/// Every group contains `u_q`, so the center loop keys a center by
/// `max(lb, c(u_q))` and stops at the optimum `F`: it searches no center
/// whose `c(u_q)` is above `F`. Brute force counts the POIs whose ball
/// passes `u_q`'s θ test with `c(u_q) ≤ F`; `CentersSearched` never
/// exceeds that count. (Keyed by `lb` alone, the loop also searched
/// centers whose `c(u_q)` was above `F` until the incumbent fell.)
#[test]
fn searched_centers_never_exceed_those_the_optimum_admits() {
    let mut searched = 0;
    let mut answered = 0;
    for (config, seeds) in [
        (SyntheticConfig::uni(), 0..6),
        (SyntheticConfig::zipf(), 20..24),
    ] {
        for seed in seeds {
            let ssn = synthetic(&config.clone().scaled(0.004), seed);
            let engine = engine_for(&ssn, seed);
            let (road, pois) = (ssn.road(), ssn.pois());
            for q in corpus(&ssn, seed) {
                let out = query(&engine, &q, &Default::default());
                let Some(f) = out.answer().map(|a| a.maxdist) else {
                    continue;
                };
                let home = ssn.home(q.user);
                let admitted = (0..pois.len() as u32)
                    .filter(|&o| {
                        let ball = pois.network_ball(road, &pois.get(o).position, q.radius);
                        let ids: Vec<u32> = ball.iter().map(|&(p, _)| p).collect();
                        let cq = ids
                            .iter()
                            .map(|&p| dist_rn(road, &home, &pois.get(p).position))
                            .fold(0.0f64, f64::max);
                        let union = pois.keyword_union(&ids);
                        cq <= f
                            && match_score_keywords(ssn.social().interest(q.user), &union)
                                >= q.theta
                    })
                    .count() as u64;
                let got = out.metrics.counters[Counter::CentersSearched];
                assert!(
                    got <= admitted,
                    "seed {seed} {q:?}: {got} centers searched, {admitted} admitted by F = {f}"
                );
                searched += got;
                answered += 1;
            }
        }
    }
    assert!(
        answered >= 50 && searched > 0,
        "{answered} answered, {searched} searched"
    );
}
