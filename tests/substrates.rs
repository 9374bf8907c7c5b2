//! Cross-crate substrate integration: index bounds versus exact oracles
//! on full spatial-social networks (the glue the per-crate unit tests
//! cannot see).

use gpssn::index::{RoadIndex, RoadIndexConfig, SocialIndex, SocialIndexConfig};
use gpssn::road::{dist_rn, lb_dist_via_pivots, ub_dist_via_pivots, RoadPivots};
use gpssn::social::SocialPivots;
use gpssn::ssn::{synthetic, SyntheticConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn road_index_pivot_bounds_sandwich_user_poi_distances() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.008), 3);
    let pivots = RoadPivots::new(ssn.road(), vec![0, 7, 23]);
    let index = RoadIndex::build(ssn.road(), ssn.pois(), pivots, RoadIndexConfig::default());
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..30 {
        let u = rng.gen_range(0..ssn.social().num_users()) as u32;
        let o = rng.gen_range(0..ssn.pois().len()) as u32;
        let exact = ssn.user_poi_distance(u, o);
        let ud = index.pivots().point_dists(ssn.road(), &ssn.home(u));
        let od = &index.poi(o).pivot_dists;
        let lb = lb_dist_via_pivots(&ud, od);
        let ub = ub_dist_via_pivots(&ud, od);
        assert!(lb <= exact + 1e-9, "lb {lb} > exact {exact}");
        assert!(ub + 1e-9 >= exact, "ub {ub} < exact {exact}");
    }
}

#[test]
fn social_index_hop_bounds_are_sound() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.008), 4);
    let sp = SocialPivots::new(ssn.social(), vec![0, 3, 9]);
    let rp = RoadPivots::new(ssn.road(), vec![0, 5]);
    let idx = SocialIndex::build(
        &ssn,
        sp,
        &rp,
        &SocialIndexConfig {
            leaf_size: 16,
            fanout: 4,
        },
    );
    let mut rng = StdRng::seed_from_u64(2);
    let m = ssn.social().num_users();
    for _ in 0..30 {
        let a = rng.gen_range(0..m) as u32;
        let b = rng.gen_range(0..m) as u32;
        let exact = gpssn::social::hops::dist_sn(ssn.social(), a, b);
        let lb = gpssn::core::pruning::social_distance::lb_dist_sn_users(
            idx.user_sn_dists(a),
            idx.user_sn_dists(b),
        );
        if exact != gpssn::social::UNREACHABLE_HOPS {
            assert!(lb <= exact, "lb {lb} > exact {exact} for ({a},{b})");
        }
    }
}

#[test]
fn road_index_sup_k_covers_every_query_radius_ball() {
    // For any radius r in [r_min, r_max], the keyword union of the
    // radius-r ball around a POI must be contained in its sup_K (the
    // invariant that makes Lemma 1/6 pruning safe).
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.006), 5);
    let cfg = RoadIndexConfig {
        r_min: 0.5,
        r_max: 3.0,
        ..Default::default()
    };
    let pivots = RoadPivots::new(ssn.road(), vec![1]);
    let index = RoadIndex::build(ssn.road(), ssn.pois(), pivots, cfg);
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..12 {
        let o = rng.gen_range(0..ssn.pois().len()) as u32;
        let r = rng.gen_range(0.5..3.0);
        let center = ssn.pois().get(o).position;
        let ball: Vec<u32> = ssn
            .pois()
            .network_ball(ssn.road(), &center, r)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let union = ssn.pois().keyword_union(&ball);
        let sup = &index.poi(o).sup_keywords;
        for k in union {
            assert!(
                sup.contains(&k),
                "sup_K of poi {o} misses keyword {k} at r={r}"
            );
        }
        // And sub_K is contained in the ball's union (lower-bound side).
        let ball_union = ssn.pois().keyword_union(
            &ssn.pois()
                .network_ball(ssn.road(), &center, r)
                .into_iter()
                .map(|(id, _)| id)
                .collect::<Vec<_>>(),
        );
        for &k in &index.poi(o).sub_keywords {
            assert!(
                ball_union.contains(&k),
                "sub_K of poi {o} not ⊆ ball union at r={r}"
            );
        }
    }
}

#[test]
fn network_ball_matches_linear_scan() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.006), 8);
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..10 {
        let o = rng.gen_range(0..ssn.pois().len()) as u32;
        let r = rng.gen_range(0.5..4.0);
        let center = ssn.pois().get(o).position;
        let mut got: Vec<u32> = ssn
            .pois()
            .network_ball(ssn.road(), &center, r)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<u32> = (0..ssn.pois().len() as u32)
            .filter(|&i| dist_rn(ssn.road(), &center, &ssn.pois().get(i).position) <= r)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected, "ball mismatch at poi {o} r {r}");
    }
}
