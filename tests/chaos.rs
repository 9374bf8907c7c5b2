//! Chaos suite: deterministic fault schedules against batch serving.
//!
//! Only compiled with the `failpoints` feature (`cargo test --features
//! failpoints`). Each schedule installs a seeded [`FaultPlan`] that makes
//! every registered fail-point site fire pseudo-randomly — spurious
//! cache misses, poisoned cache shards, CH panics mid-sweep, refinement
//! panics — then pushes a batch of queries through
//! `try_query_batch` under the degradation ladder and holds
//! the serving contract:
//!
//! * no panic escapes the batch boundary (every slot is `Ok`),
//! * `Exact` answers are bitwise-equal to the fault-free run,
//! * degraded answers (`TruncatedWithGap`, `DegradedSampling`) still
//!   satisfy Definition 5 exactly and never beat the true optimum,
//! * `Failed` slots carry no answer.
//!
//! The fault plan is process-global, so the whole sweep lives in one
//! test function — schedules run strictly one after another.
#![cfg(feature = "failpoints")]

use gpssn::core::query::check_answer;
use gpssn::core::{
    Completion, Counter, DegradationPolicy, EngineConfig, GpSsnEngine, GpSsnQuery, QueryBudget,
    QueryOptions,
};
use gpssn::failpoint::{install, FaultPlan};
use gpssn::ssn::{synthetic, SyntheticConfig};
use std::sync::Mutex;

const SCHEDULES: u64 = 120;
const FAULT_PROB: f64 = 0.02;

/// The installed fault plan is process-global: the tests in this binary
/// must never overlap, so each takes this lock for its whole run.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn seeded_fault_schedules_preserve_the_serving_contract() {
    let _serial = PLAN_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
    let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
    let opts = QueryOptions {
        degradation: DegradationPolicy::Ladder,
        ..Default::default()
    };
    let budget = QueryBudget::unlimited();

    // Fixture queries: keep only those whose fault-free run is exact
    // with an answer, so every schedule has a ground truth to hold
    // degraded answers against.
    let queries: Vec<GpSsnQuery> = (0..10)
        .map(|user| GpSsnQuery {
            user,
            tau: 2,
            gamma: 0.3,
            theta: 0.3,
            radius: 3.0,
        })
        .filter(|q| {
            matches!(
                engine.try_query(q, &Default::default(), &budget),
                Ok(out) if matches!(out.completion, Completion::Exact) && out.answer().is_some()
            )
        })
        .collect();
    assert!(
        queries.len() >= 4,
        "fixture too small: only {} exact queries",
        queries.len()
    );

    // Fault-free ground truth (bitwise): maxdist bits, group, POIs.
    let truth: Vec<(u64, Vec<u32>, Vec<u32>)> = engine
        .try_query_batch(&queries, 2, &opts, &budget)
        .into_iter()
        .map(|r| {
            let out = r.expect("fault-free batch is Ok");
            let ans = out.answer().expect("answer");
            (ans.maxdist.to_bits(), ans.users.clone(), ans.pois.clone())
        })
        .collect();

    let mut degraded = 0u64;
    let mut failed = 0u64;
    for seed in 0..SCHEDULES {
        let _guard = install(FaultPlan::uniform(seed, FAULT_PROB));
        let results = engine.try_query_batch(&queries, 2, &opts, &budget);
        for (i, res) in results.into_iter().enumerate() {
            let out = res.unwrap_or_else(|e| {
                panic!("schedule {seed} query {i}: panic/error escaped the ladder: {e}")
            });
            let (truth_bits, truth_users, truth_pois) = &truth[i];
            let truth_maxdist = f64::from_bits(*truth_bits);
            match out.completion {
                Completion::Exact => {
                    let ans = out.answer().expect("exact answers are present");
                    assert_eq!(
                        ans.maxdist.to_bits(),
                        *truth_bits,
                        "schedule {seed} query {i}: exact answer diverged under faults"
                    );
                    assert_eq!(&ans.users, truth_users, "schedule {seed} query {i}");
                    assert_eq!(&ans.pois, truth_pois, "schedule {seed} query {i}");
                }
                Completion::TruncatedWithGap(gap) => {
                    degraded += 1;
                    assert!(gap >= 0.0 && !gap.is_nan());
                    if let Some(ans) = out.answer() {
                        check_answer(&ssn, &queries[i], ans)
                            .expect("truncated answer violates Definition 5");
                        assert!(
                            ans.maxdist + 1e-9 >= truth_maxdist,
                            "schedule {seed} query {i}: degraded answer beats the optimum"
                        );
                    }
                }
                Completion::DegradedSampling => {
                    degraded += 1;
                    let ans = out.answer().expect("sampling rung carries an answer");
                    check_answer(&ssn, &queries[i], ans)
                        .expect("sampled answer violates Definition 5");
                    assert!(
                        ans.maxdist + 1e-9 >= truth_maxdist,
                        "schedule {seed} query {i}: sampled answer beats the optimum"
                    );
                }
                Completion::Failed(_) => {
                    failed += 1;
                    assert!(out.answers.is_empty(), "failed completions carry no answer");
                }
            }
        }
    }
    // With 120 schedules at p=0.02 across thousands of fail-point hits,
    // a sweep where nothing ever degraded means the injection is dead.
    assert!(
        degraded + failed > 0,
        "no schedule produced a degraded or failed completion — fault injection inert?"
    );
}

/// The breaker keeps serving bit-identical answers when the CH oracle
/// panics on *every* batch: all distance work rides the Dijkstra
/// fallback, so queries stay exact.
#[test]
fn always_firing_ch_faults_stay_exact_via_the_breaker() {
    use gpssn::failpoint::FireRule;

    let _serial = PLAN_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
    // No distance cache: the baseline query must not warm a cache that
    // would absorb every CH dispatch before a fault can fire.
    let engine = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            distance_cache: None,
            ..Default::default()
        },
    );
    let opts = QueryOptions {
        degradation: DegradationPolicy::Ladder,
        ..Default::default()
    };
    let budget = QueryBudget::unlimited();
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 3.0,
    };
    let baseline = engine.try_query(&q, &Default::default(), &budget).unwrap();
    let truth = baseline.answer().expect("fixture query has an answer");

    let plan = FaultPlan::new(99).with_site("ch::settle_exhaustion", FireRule::Always);
    let _guard = install(plan);
    for _ in 0..4 {
        let out = engine
            .try_query(&q, &opts, &budget)
            .expect("CH faults are absorbed by the Dijkstra fallback");
        assert!(matches!(out.completion, Completion::Exact));
        let ans = out.answer().expect("answer survives CH faults");
        assert_eq!(ans.maxdist.to_bits(), truth.maxdist.to_bits());
        assert_eq!(ans.users, truth.users);
        assert_eq!(ans.pois, truth.pois);
    }
    assert_ne!(
        engine.ch_breaker().state(),
        gpssn::core::BreakerState::Closed,
        "CH fail-points never reached the breaker"
    );
}

/// The ladder's sampling rescue verifies centers as every mode does, CH
/// oracle included: with the oracle panicking on every batch, a query
/// whose own budget trips at its first pop is still rescued, every
/// distance re-served from the Dijkstra fallback.
#[test]
fn sampling_rescue_rides_the_dijkstra_fallback_under_ch_faults() {
    use gpssn::failpoint::FireRule;

    let _serial = PLAN_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
    let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
    let opts = QueryOptions {
        degradation: DegradationPolicy::Ladder,
        ..Default::default()
    };
    let budget = QueryBudget {
        max_heap_pops: Some(1),
        ..Default::default()
    };
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 3.0,
    };
    let plan = FaultPlan::new(99).with_site("ch::settle_exhaustion", FireRule::Always);
    let _guard = install(plan);
    let out = engine
        .try_query(&q, &opts, &budget)
        .expect("trips and CH faults degrade, never Err");
    assert!(
        matches!(out.completion, Completion::DegradedSampling),
        "expected the sampling rung, got {:?}",
        out.completion
    );
    let ans = out.answer().expect("the sampling rung carries an answer");
    check_answer(&ssn, &q, ans).expect("rescued answer violates Definition 5");
    let c = &out.metrics.counters;
    assert!(
        c[Counter::ChFaults] > 0,
        "the rescue never tried the CH oracle: {c:?}"
    );
}

/// A verifier defect that fires at every center is not rescued: the
/// ladder's sampling rung verifies centers through the same
/// `verify_center`, so its centers fault too and the query ends
/// `Failed` with the absorbed faults named, no panic escaping. Once the
/// fault is gone the same engine answers exactly, bit for bit as a
/// freshly built one.
#[test]
fn persistent_verifier_fault_fails_the_ladder_and_leaves_the_engine_sound() {
    use gpssn::core::GpSsnError;
    use gpssn::failpoint::FireRule;

    let _serial = PLAN_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
    let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
    let opts = QueryOptions {
        degradation: DegradationPolicy::Ladder,
        ..Default::default()
    };
    let budget = QueryBudget::unlimited();
    let q = GpSsnQuery {
        user: 0,
        tau: 2,
        gamma: 0.3,
        theta: 0.3,
        radius: 3.0,
    };

    let plan = FaultPlan::new(99).with_site("refine::verify_center", FireRule::Always);
    let guard = install(plan);
    let out = engine
        .try_query(&q, &opts, &budget)
        .expect("verifier faults are absorbed per center, never Err");
    drop(guard);
    let Completion::Failed(GpSsnError::Internal(msg)) = &out.completion else {
        panic!("expected Failed(Internal), got {:?}", out.completion);
    };
    assert!(out.answers.is_empty(), "failed completions carry no answer");
    // The message counts the exact pass's faults; the counter adds the
    // rescue's faulted centers.
    let exact_faults: u64 = msg
        .strip_suffix(" refinement fault(s) absorbed with no verified answer")
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("message does not name the absorbed faults: {msg}"));
    assert!(exact_faults > 0, "{msg}");
    assert!(
        out.metrics.counters[Counter::RefineFaults] > exact_faults,
        "RefineFaults {} does not count the rescue's centers beyond the exact pass's {exact_faults}",
        out.metrics.counters[Counter::RefineFaults]
    );

    let after = engine
        .try_query(&q, &opts, &budget)
        .expect("fault-free run");
    assert!(matches!(after.completion, Completion::Exact));
    let ans = after.answer().expect("fixture query has an answer");
    let fresh = GpSsnEngine::build(&ssn, EngineConfig::default())
        .try_query(&q, &opts, &budget)
        .expect("fault-free run");
    let truth = fresh.answer().expect("fixture query has an answer");
    assert_eq!(ans.maxdist.to_bits(), truth.maxdist.to_bits());
    assert_eq!(ans.users, truth.users);
    assert_eq!(ans.pois, truth.pois);
}
