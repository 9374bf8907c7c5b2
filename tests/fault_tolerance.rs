//! Fault-tolerant serving: typed errors, panic-isolated batches, and
//! budgeted anytime answers, exercised through the `try_*` API.
//!
//! The fault-injection tests arm a global hook
//! ([`gpssn::core::refinement::test_hooks::PANIC_ON_USER`]); they
//! serialize on a local mutex and only ever poison user ids 5 and 7, so
//! every other test in this binary must stick to users `<= 3`.

mod common;
use common::{small_cfg, small_engine};
use gpssn::core::query::check_answer;
use gpssn::core::refinement::test_hooks;
use gpssn::core::{
    try_exact_baseline, Completion, Counter, DegradationPolicy, EngineConfig, GpSsnEngine,
    GpSsnError, GpSsnQuery, QueryBudget, QueryMode, QueryOptions,
};
use gpssn::ssn::{synthetic, SyntheticConfig};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes the tests that arm the global fault-injection hook.
static HOOK_LOCK: Mutex<()> = Mutex::new(());

/// Disarms the hook on drop, even when an assertion fails mid-test.
struct HookGuard;

impl HookGuard {
    fn arm(user: u32) -> Self {
        test_hooks::PANIC_ON_USER.store(user, Ordering::SeqCst);
        HookGuard
    }
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        test_hooks::PANIC_ON_USER.store(u32::MAX, Ordering::SeqCst);
    }
}

#[test]
fn typed_errors_for_invalid_inputs() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
    let engine = small_engine(&ssn);
    let (opts, unlimited) = (QueryOptions::default(), QueryBudget::unlimited());
    let ok = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 3.0,
    };

    let bad_tau = GpSsnQuery {
        tau: 0,
        ..ok.clone()
    };
    assert!(matches!(
        engine.try_query(&bad_tau, &opts, &unlimited),
        Err(GpSsnError::InvalidQuery(_))
    ));

    let bad_user = GpSsnQuery {
        user: u32::MAX - 1,
        ..ok.clone()
    };
    assert!(matches!(
        engine.try_query(&bad_user, &opts, &unlimited),
        Err(GpSsnError::UnknownUser { .. })
    ));

    let bad_radius = GpSsnQuery {
        radius: 1e9,
        ..ok.clone()
    };
    match engine.try_query(&bad_radius, &opts, &unlimited) {
        Err(GpSsnError::RadiusOutOfIndexRange {
            radius,
            r_min,
            r_max,
        }) => {
            assert_eq!(radius, 1e9);
            assert!(r_min <= r_max);
        }
        other => panic!("expected RadiusOutOfIndexRange, got {other:?}"),
    }

    let bad_tau_pop = GpSsnQuery {
        tau: ssn.social().num_users() + 1,
        ..ok.clone()
    };
    assert!(matches!(
        engine.try_query(&bad_tau_pop, &opts, &unlimited),
        Err(GpSsnError::Infeasible { .. })
    ));

    // Errors display as a single line (the CLI prints them on stderr).
    for err in [
        engine.try_query(&bad_tau, &opts, &unlimited).unwrap_err(),
        engine
            .try_query(&bad_radius, &opts, &unlimited)
            .unwrap_err(),
    ] {
        assert!(!format!("{err}").contains('\n'));
    }

    // A valid query still succeeds exactly.
    let out = engine
        .try_query(&ok, &opts, &unlimited)
        .expect("valid query");
    assert!(matches!(out.completion, Completion::Exact));
}

#[test]
fn poisoned_query_is_isolated_in_batch() {
    let _serial = HOOK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 41);
    let engine = small_engine(&ssn);
    let mk = |u: u32| GpSsnQuery {
        user: u,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 2.5,
    };
    let queries: Vec<GpSsnQuery> = [0u32, 1, 5, 2, 5, 3].into_iter().map(mk).collect();
    let unlimited = QueryBudget::unlimited();

    // Ground truth with the hook disarmed; the poisoned user's own query
    // must reach refinement, otherwise the injected fault never fires.
    let clean = engine.try_query_batch(&queries, 2, &Default::default(), &unlimited);
    assert!(clean.iter().all(|r| r.is_ok()));
    assert!(
        clean[2].as_ref().unwrap().answer().is_some(),
        "fixture: user 5 must have an answer so refinement runs"
    );

    let _guard = HookGuard::arm(5);
    for threads in [0usize, 1, 3] {
        let poisoned = engine.try_query_batch(&queries, threads, &Default::default(), &unlimited);
        assert_eq!(poisoned.len(), queries.len());
        for (i, (slot, truth)) in poisoned.iter().zip(clean.iter()).enumerate() {
            if queries[i].user == 5 {
                match slot {
                    Err(GpSsnError::Internal(msg)) => {
                        assert!(msg.contains("test hook"), "unexpected payload: {msg}")
                    }
                    other => panic!("slot {i} should be Err(Internal), got {other:?}"),
                }
            } else {
                let (got, want) = (slot.as_ref().unwrap(), truth.as_ref().unwrap());
                assert_eq!(
                    got.answer().map(|a| (a.users.clone(), a.pois.clone())),
                    want.answer().map(|a| (a.users.clone(), a.pois.clone())),
                    "healthy slot {i} diverged next to a poisoned one"
                );
            }
        }
    }
}

#[test]
fn page_cache_survives_poisoned_batch() {
    let _serial = HOOK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 41);
    let cfg = EngineConfig {
        page_cache_capacity: Some(64),
        ..small_cfg()
    };
    let engine = GpSsnEngine::build(&ssn, cfg);
    let mk = |u: u32| GpSsnQuery {
        user: u,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 2.5,
    };
    let queries: Vec<GpSsnQuery> = [7u32, 0, 7, 1].into_iter().map(mk).collect();
    {
        let _guard = HookGuard::arm(7);
        let results =
            engine.try_query_batch(&queries, 2, &Default::default(), &QueryBudget::unlimited());
        assert!(results[1].is_ok() && results[3].is_ok());
    }
    // The engine must keep serving after the injected faults (no poisoned
    // page-cache lock cascading into later queries).
    let after = engine
        .try_query(&mk(0), &Default::default(), &QueryBudget::unlimited())
        .expect("engine still serves");
    assert!(matches!(after.completion, Completion::Exact));
}

#[test]
fn batch_thread_ergonomics() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 41);
    let engine = small_engine(&ssn);
    let queries: Vec<GpSsnQuery> = (0..3u32)
        .map(|u| GpSsnQuery {
            user: u,
            tau: 2,
            gamma: 0.3,
            theta: 0.3,
            radius: 2.5,
        })
        .collect();
    let unlimited = QueryBudget::unlimited();
    let batch =
        |qs: &[GpSsnQuery], t| engine.try_query_batch(qs, t, &Default::default(), &unlimited);
    let sequential = batch(&queries, 1);
    // threads = 0 (auto) and an oversized pool are both clamped, not a
    // panic; answers are identical in input order.
    for threads in [0usize, 64] {
        let got = batch(&queries, threads);
        assert_eq!(got.len(), sequential.len());
        for (s, p) in sequential.iter().zip(got.iter()) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(
                s.answer().map(|a| (a.users.clone(), a.pois.clone())),
                p.answer().map(|a| (a.users.clone(), a.pois.clone()))
            );
        }
    }
    assert!(batch(&[], 0).is_empty());
}

#[test]
fn budget_trip_degrades_to_anytime_answer() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
    let engine = small_engine(&ssn);
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 3.0,
    };
    let unlimited = engine
        .try_query(&q, &Default::default(), &QueryBudget::unlimited())
        .unwrap();
    assert!(matches!(unlimited.completion, Completion::Exact));
    let exact = unlimited
        .answer()
        .expect("fixture query must have an answer");
    let total_groups = unlimited.metrics.counters[Counter::GroupsEnumerated];
    assert!(
        total_groups > 2,
        "fixture too small to truncate meaningfully"
    );

    let mut saw_truncated = false;
    let mut saw_failed = false;
    for max_groups in 1..=total_groups {
        let budget = QueryBudget {
            max_groups_enumerated: Some(max_groups),
            ..Default::default()
        };
        let out = engine
            .try_query(&q, &Default::default(), &budget)
            .expect("budgeted queries still return Ok");
        match out.completion {
            Completion::Exact => {
                let ans = out.answer().expect("exact completion must match unlimited");
                assert!(
                    (ans.maxdist - exact.maxdist).abs() < 1e-9,
                    "exact-under-budget diverged: {} vs {}",
                    ans.maxdist,
                    exact.maxdist
                );
            }
            Completion::TruncatedWithGap(gap) => {
                saw_truncated = true;
                assert!(gap >= 0.0 && !gap.is_nan());
                let ans = out
                    .answer()
                    .expect("truncated completion carries an answer");
                check_answer(&ssn, &q, ans).expect("anytime answer violates Definition 5");
                // The answer is verified, so it cannot beat the optimum…
                assert!(ans.maxdist + 1e-9 >= exact.maxdist);
                // …and the gap bound must contain the optimum.
                assert!(
                    exact.maxdist >= ans.maxdist - gap - 1e-9,
                    "optimum {} below the gap window [{}, {}]",
                    exact.maxdist,
                    ans.maxdist - gap,
                    ans.maxdist
                );
            }
            Completion::Failed(err) => {
                saw_failed = true;
                assert!(out.answers.is_empty());
                assert!(matches!(
                    err,
                    GpSsnError::BudgetExhausted { .. } | GpSsnError::DeadlineExceeded
                ));
            }
            Completion::DegradedSampling => {
                panic!("sampling rescue requires the Ladder policy, not the default")
            }
        }
    }
    assert!(saw_failed, "a 1-group budget should fail");
    assert!(
        saw_truncated,
        "sweep never produced an anytime answer with a gap"
    );
}

#[test]
fn pops_budget_of_one_fails_cleanly() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
    let engine = small_engine(&ssn);
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 3.0,
    };
    let budget = QueryBudget {
        max_heap_pops: Some(1),
        ..Default::default()
    };
    let out = engine
        .try_query(&q, &Default::default(), &budget)
        .expect("trips degrade, never Err");
    match out.completion {
        Completion::Failed(GpSsnError::BudgetExhausted { resource, .. }) => {
            assert_eq!(resource, "heap pops")
        }
        other => panic!("expected a heap-pop budget failure, got {other:?}"),
    }
    assert!(out.answers.is_empty());
    assert!(out.metrics.counters[Counter::HeapPops] <= 1);
}

#[test]
fn sampling_rescue_work_counts_toward_the_query() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
    let engine = small_engine(&ssn);
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 3.0,
    };
    let opts = QueryOptions {
        degradation: DegradationPolicy::Ladder,
        ..Default::default()
    };
    let budget = QueryBudget {
        max_heap_pops: Some(1),
        ..Default::default()
    };
    let out = engine
        .try_query(&q, &opts, &budget)
        .expect("trips degrade, never Err");
    assert!(
        matches!(out.completion, Completion::DegradedSampling),
        "a one-pop budget under the ladder should end on the sampling rung, got {:?}",
        out.completion
    );
    let ans = out.answer().expect("the sampling rung carries an answer");
    check_answer(&ssn, &q, ans).expect("rescued answer violates Definition 5");
    // The rescue ran its own traversal and sampler under its own budget;
    // those pops and settles read the pages the query reports, so they
    // count toward the query too.
    let c = &out.metrics.counters;
    assert!(
        c[Counter::HeapPops] > 1,
        "rescue pops missing from the query's counters: {c:?}"
    );
    assert!(
        c.total_settles() > 0,
        "rescue settles missing from the query's counters: {c:?}"
    );
}

#[test]
fn zero_deadline_trips_without_panicking() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
    let engine = small_engine(&ssn);
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 3.0,
    };
    let out = engine
        .try_query(
            &q,
            &Default::default(),
            &QueryBudget::with_deadline(Duration::ZERO),
        )
        .expect("deadline trips degrade, never Err");
    match out.completion {
        Completion::Exact => {} // finished inside the first check period
        Completion::TruncatedWithGap(gap) => assert!(gap >= 0.0),
        Completion::Failed(err) => {
            assert!(matches!(err, GpSsnError::DeadlineExceeded));
            assert!(out.answers.is_empty());
        }
        Completion::DegradedSampling => {
            panic!("sampling rescue requires the Ladder policy, not the default")
        }
    }
}

#[test]
fn budgeted_baseline_returns_typed_error() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 3.0,
    };
    let budget = QueryBudget {
        max_groups_enumerated: Some(1),
        ..Default::default()
    };
    assert!(matches!(
        try_exact_baseline(&ssn, &q, &budget),
        Err(GpSsnError::BudgetExhausted { .. })
    ));
    assert!(try_exact_baseline(&ssn, &q, &QueryBudget::unlimited()).is_ok());
}

#[test]
fn top_k_under_budget_reports_completion() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
    let engine = small_engine(&ssn);
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 3.0,
    };
    let top = |k| QueryOptions {
        mode: QueryMode::TopK(k),
        ..Default::default()
    };
    let full = engine
        .try_query(&q, &top(3), &QueryBudget::unlimited())
        .unwrap();
    assert!(matches!(full.completion, Completion::Exact));
    let starved = engine
        .try_query(
            &q,
            &top(3),
            &QueryBudget {
                max_heap_pops: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
    match starved.completion {
        Completion::Exact => panic!("one pop cannot complete a top-k traversal"),
        Completion::TruncatedWithGap(_) | Completion::Failed(_) => {}
        Completion::DegradedSampling => {
            panic!("top-k has no sampling rung")
        }
    }
    assert!(matches!(
        engine.try_query(&q, &top(0), &QueryBudget::unlimited()),
        Err(GpSsnError::InvalidQuery(_))
    ));
}
