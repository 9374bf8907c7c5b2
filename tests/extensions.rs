//! Tests for the extension features beyond the paper's core algorithm:
//! approximate refinement by subset sampling (the paper's stated future
//! work) and top-k GP-SSN answers.

mod common;
use common::{assert_bit_identical, query, small_engine};
use gpssn::core::query::check_answer;
use gpssn::core::{GpSsnQuery, QueryMode, QueryOptions};
use gpssn::ssn::{synthetic, SyntheticConfig};

fn mode(mode: QueryMode) -> QueryOptions {
    QueryOptions {
        mode,
        ..Default::default()
    }
}

#[test]
fn approximate_answers_validate_and_bound_exact() {
    for seed in 0..5u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.008), seed);
        let eng = small_engine(&ssn);
        let q = GpSsnQuery {
            user: 1,
            tau: 2,
            gamma: 0.3,
            theta: 0.3,
            radius: 2.5,
        };
        let exact = query(&eng, &q, &Default::default()).answers.pop();
        let sampled = mode(QueryMode::Approximate { samples: 32, seed });
        let approx = query(&eng, &q, &sampled).answers.pop();
        let again = query(&eng, &q, &sampled).answers.pop();
        assert_eq!(approx, again, "same seed, different approximate answer");
        if let Some(a) = &approx {
            check_answer(&ssn, &q, a).expect("approximate answer violates Definition 5");
            if let Some(e) = &exact {
                assert!(
                    a.maxdist + 1e-9 >= e.maxdist,
                    "approximate ({}) beat exact ({})",
                    a.maxdist,
                    e.maxdist
                );
            } else {
                panic!("approximate found an answer where exact found none");
            }
        }
    }
}

#[test]
fn approximate_usually_finds_feasible_queries() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.02), 4);
    let eng = small_engine(&ssn);
    let mut exact_hits = 0;
    let mut approx_hits = 0;
    for user in [1u32, 5, 9, 13, 21] {
        let q = GpSsnQuery {
            user,
            tau: 3,
            gamma: 0.3,
            theta: 0.3,
            radius: 2.5,
        };
        if query(&eng, &q, &Default::default()).answer().is_some() {
            exact_hits += 1;
            let (samples, seed) = (64, 7);
            let sampled = mode(QueryMode::Approximate { samples, seed });
            if query(&eng, &q, &sampled).answer().is_some() {
                approx_hits += 1;
            }
        }
    }
    assert!(exact_hits > 0, "fixture produced no feasible queries");
    assert!(
        approx_hits * 2 >= exact_hits,
        "sampling missed too often: {approx_hits}/{exact_hits}"
    );
}

#[test]
fn top_k_is_sorted_valid_and_starts_at_the_optimum() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.015), 11);
    let eng = small_engine(&ssn);
    let q = GpSsnQuery {
        user: 2,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 2.5,
    };
    let single = query(&eng, &q, &Default::default()).answers.pop();
    let top = query(&eng, &q, &mode(QueryMode::TopK(5))).answers;
    if let Some(best) = &single {
        assert!(!top.is_empty());
        assert_eq!(
            top[0].maxdist.to_bits(),
            best.maxdist.to_bits(),
            "top-1 ({}) differs from the optimum ({})",
            top[0].maxdist,
            best.maxdist
        );
    }
    for w in top.windows(2) {
        assert!(w[0].maxdist <= w[1].maxdist + 1e-9, "top-k not sorted");
    }
    for ans in &top {
        check_answer(&ssn, &q, ans).expect("top-k answer violates Definition 5");
    }
    // Distinct (S, R) pairs.
    for i in 0..top.len() {
        for j in (i + 1)..top.len() {
            assert!(
                top[i].users != top[j].users || top[i].pois != top[j].pois,
                "duplicate answers in top-k"
            );
        }
    }
}

#[test]
fn top_k_matches_exhaustive_oracle() {
    // Top-K runs the δ cut and re-examines the deferred items below the
    // k-th bound; with the cut off the traversal reads every node. The
    // two must rank the same answers bit for bit, and match the oracle's
    // values bitwise. (The oracle's groups are not compared: it breaks
    // ties between distinct balls in another order.) Users 0–11 include queries
    // whose later answers lie under a δ-cut subtree on every seed.
    use gpssn::core::exact_baseline_top_k;
    for seed in 60..64u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.006), seed);
        let eng = small_engine(&ssn);
        for user in 0..12 {
            let q = GpSsnQuery {
                user,
                tau: 2,
                gamma: 0.3,
                theta: 0.3,
                radius: 2.0,
            };
            let what = format!("seed {seed} user {user}");
            let expected = exact_baseline_top_k(&ssn, &q, 4);
            let [cut, uncut] = [true, false].map(|use_delta_pruning| {
                let opts = QueryOptions {
                    use_delta_pruning,
                    ..mode(QueryMode::TopK(4))
                };
                query(&eng, &q, &opts).answers
            });
            assert_eq!(cut.len(), uncut.len(), "{what}: δ on/off counts differ");
            for (rank, (a, b)) in cut.iter().zip(&uncut).enumerate() {
                assert_bit_identical(Some(a), Some(b), &format!("{what} rank {rank}"));
            }
            assert_eq!(expected.len(), cut.len(), "{what}: answer counts differ");
            for (e, g) in expected.iter().zip(&cut) {
                assert_eq!(
                    e.maxdist.to_bits(),
                    g.maxdist.to_bits(),
                    "{what}: objective ranks differ: {} vs {}",
                    e.maxdist,
                    g.maxdist
                );
            }
        }
    }
}

#[test]
fn top_1_matches_query_across_seeds() {
    for seed in 30..34u64 {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.008), seed);
        let eng = small_engine(&ssn);
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.35,
            theta: 0.3,
            radius: 2.0,
        };
        let single = query(&eng, &q, &Default::default()).answers;
        let top = query(&eng, &q, &mode(QueryMode::TopK(1))).answers;
        assert_eq!(single.len(), top.len(), "seed {seed}: feasibility mismatch");
        assert_bit_identical(
            single.first(),
            top.first(),
            &format!("seed {seed}: TopK(1)"),
        );
    }
}
