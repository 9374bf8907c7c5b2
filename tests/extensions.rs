//! Tests for the extension features beyond the paper's core algorithm:
//! approximate refinement by subset sampling (the paper's stated future
//! work) and top-k GP-SSN answers.

mod common;
use common::{query, small_engine};
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
