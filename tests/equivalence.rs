//! The central correctness property of the reproduction: the indexed
//! GP-SSN engine (Algorithm 2 + all pruning) returns exactly the same
//! optimum as the exhaustive Baseline on randomized small spatial-social
//! networks, across a grid of query parameters.

mod common;
use common::{assert_bit_identical, query};
use gpssn::core::algorithm::{EngineConfig, QueryMode, QueryOptions};
use gpssn::core::query::check_answer;
use gpssn::core::{
    exact_baseline, exact_baseline_top_k, Completion, DistanceCacheConfig, GpSsnEngine, GpSsnError,
    GpSsnQuery, QueryBudget, QueryOutcome,
};
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
                                assert_eq!(
                                    e.maxdist.to_bits(),
                                    g.maxdist.to_bits(),
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
    // τ up to 6, where refinement costs only the users within τ − 1
    // hops of u_q: the optimum must match the Baseline and be bitwise
    // the same with the cache on or off.
    let mut answered = 0usize;
    for seed in 20..24u64 {
        let ssn = synthetic(&SyntheticConfig::zipf().scaled(0.004), seed);
        let plain = GpSsnEngine::build(&ssn, small_cfg(seed));
        let cached = GpSsnEngine::build(
            &ssn,
            EngineConfig {
                distance_cache: Some(DistanceCacheConfig::default()),
                ..small_cfg(seed)
            },
        );
        for tau in 2..=6 {
            let q = GpSsnQuery {
                user: 1,
                tau,
                gamma: 0.4,
                theta: 0.4,
                radius: 2.0,
            };
            let expected = exact_baseline(&ssn, &q);
            let got = query(&plain, &q, &Default::default());
            assert!(got.completion.is_exact(), "seed {seed} τ={tau}");
            match (&expected, got.answer()) {
                (None, None) => {}
                (Some(e), Some(g)) => {
                    answered += 1;
                    assert_eq!(
                        e.maxdist.to_bits(),
                        g.maxdist.to_bits(),
                        "seed {seed} τ={tau}"
                    );
                }
                other => panic!("mismatch on seed {seed} τ={tau}: {other:?}"),
            }
            let other = query(&cached, &q, &Default::default());
            assert_bit_identical(got.answer(), other.answer(), "cache vs plain");
        }
    }
    assert!(answered >= 10, "too few feasible cases: {answered}");
}

#[test]
fn tiny_group_budget_never_claims_exact() {
    // A feasibility probe cut by the group budget proves nothing, so a
    // query whose budget runs out mid-enumeration must come back
    // truncated with a sound gap (or exact and optimal), never exact and
    // wrong. 60 admission checks cut most probes at τ 3–6; 5 also cut
    // the "does any group exist" pre-check; 200 lets many top-3 searches
    // finish (they pay for the same pre-check as Exact). The top-3 arm
    // holds the shared center loop to the same contract against the
    // exhaustive top-k oracle (the true 3rd value lies within the
    // reported gap) at τ 3–4, where that oracle is cheap enough for a
    // debug build.
    const K: usize = 3;
    let mut truncated = 0usize;
    let mut exact = 0usize;
    let mut top_truncated = 0usize;
    let mut top_exact = 0usize;
    for seed in 0..4u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.004), seed);
        let engine = GpSsnEngine::build(&ssn, small_cfg(seed));
        let m = ssn.social().num_users() as u32;
        for tau in 3..=6 {
            for user in (0..m).step_by(26) {
                let q = GpSsnQuery {
                    user,
                    tau,
                    gamma: 0.2,
                    theta: 0.2,
                    radius: 3.0,
                };
                let opt = exact_baseline(&ssn, &q).map(|a| a.maxdist);
                let oracle: Vec<f64> = if tau <= 4 {
                    let top = exact_baseline_top_k(&ssn, &q, K);
                    top.iter().map(|a| a.maxdist).collect()
                } else {
                    Vec::new()
                };
                for groups in [5, 60, 200] {
                    let budget = QueryBudget {
                        max_groups_enumerated: Some(groups),
                        ..Default::default()
                    };
                    let run = |mode| {
                        let opts = QueryOptions {
                            mode,
                            ..Default::default()
                        };
                        match engine.try_query(&q, &opts, &budget) {
                            Ok(out) => out,
                            Err(GpSsnError::Infeasible { .. }) => QueryOutcome::infeasible(),
                            Err(e) => panic!("invalid query: {e}"),
                        }
                    };
                    let out = run(QueryMode::Exact);
                    let got = out.answer().map(|a| a.maxdist);
                    let what = format!("seed {seed} budget {groups} {q:?}");
                    match (&out.completion, got, opt) {
                        (Completion::Exact, None, None) => exact += 1,
                        (Completion::Exact, Some(g), Some(o)) => {
                            exact += 1;
                            assert_eq!(g.to_bits(), o.to_bits(), "{what}: {g} vs {o}");
                        }
                        (Completion::TruncatedWithGap(gap), Some(g), Some(o)) => {
                            truncated += 1;
                            assert!(g - gap <= o + 1e-9, "{what}: gap {gap} unsound");
                        }
                        (Completion::Failed(_), None, _) => {}
                        other => panic!("{what}: {other:?} (optimum {opt:?})"),
                    }

                    if tau > 4 {
                        continue;
                    }
                    let out = run(QueryMode::TopK(K));
                    let got: Vec<f64> = out.answers.iter().map(|a| a.maxdist).collect();
                    let what = format!("{what} top-{K}: {got:?} vs oracle {oracle:?}");
                    match out.completion {
                        Completion::Exact => {
                            top_exact += 1;
                            assert_eq!(got.len(), oracle.len(), "{what}");
                            for (g, o) in got.iter().zip(&oracle) {
                                assert_eq!(g.to_bits(), o.to_bits(), "{what}");
                            }
                        }
                        Completion::TruncatedWithGap(gap) => {
                            top_truncated += 1;
                            let oracle_kth = oracle.get(K - 1).copied().unwrap_or(f64::INFINITY);
                            match got.get(K - 1) {
                                Some(kth) => {
                                    assert!(kth - gap <= oracle_kth + 1e-9, "{what}: gap {gap}")
                                }
                                None => assert_eq!(gap, f64::INFINITY, "{what}"),
                            }
                        }
                        Completion::Failed(_) => assert!(got.is_empty(), "{what}"),
                        other => panic!("{what}: {other:?}"),
                    }
                }
            }
        }
    }
    assert!(
        truncated > 0 && exact > 0,
        "truncated {truncated}, exact {exact}"
    );
    assert!(
        top_truncated > 0 && top_exact > 0,
        "top-{K}: truncated {top_truncated}, exact {top_exact}"
    );
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
            (Some(a), Some(b)) => assert_eq!(
                a.maxdist.to_bits(),
                b.maxdist.to_bits(),
                "mask {mask}: {} vs {}",
                a.maxdist,
                b.maxdist
            ),
            other => panic!("mask {mask} changed feasibility: {other:?}"),
        }
    }
}
