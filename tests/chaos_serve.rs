//! Chaos through the serving layer: a seeded fault plan fires across
//! every registered fail-point site — including the serve layer's own
//! `serve::queue_full` admission fault — while a request stream runs
//! through `serve` under the degradation ladder. The serving contract:
//!
//! * every submission gets exactly one response, in submission order,
//! * no panic escapes the serve loop,
//! * fault-shed requests carry the typed `Overloaded` error,
//! * `Exact` answers are bitwise-equal to the fault-free run.
//!
//! The fault plan is process-global, so this lives in its own
//! integration-test file with a single test function.
#![cfg(feature = "failpoints")]

mod common;
use gpssn::core::{
    serve, Completion, DegradationPolicy, EngineConfig, GpSsnEngine, GpSsnError, GpSsnQuery,
    OverloadPolicy, QueryBudget, QueryOptions, ServeConfig, ServeRequest, Submission,
};
use gpssn::failpoint::{install, FaultPlan};
use gpssn::ssn::{synthetic, SyntheticConfig};
use std::sync::Mutex;

#[test]
fn chaos_stream_through_serve_holds_the_contract() {
    let ssn = synthetic(&SyntheticConfig::uni().scaled(0.02), 42);
    let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
    let num_users = ssn.social().num_users() as u32;
    let queries: Vec<GpSsnQuery> = (0..32u32)
        .map(|i| {
            let mut q = GpSsnQuery::with_defaults(i * 13 % num_users);
            q.radius = if i % 7 == 0 { 3.0 } else { 0.8 };
            q
        })
        .collect();
    let opts = QueryOptions {
        degradation: DegradationPolicy::Ladder,
        ..Default::default()
    };
    let budget = QueryBudget::unlimited();
    let fault_free: Vec<_> = queries
        .iter()
        .map(|q| engine.try_query(q, &opts, &budget))
        .collect();

    // Shedding policy: under the default blocking policy a full queue
    // (real or injected) only delays the submitter.
    let cfg = ServeConfig {
        threads: 2,
        options: opts,
        overload: OverloadPolicy::Shed,
        ..Default::default()
    };
    for seed in [7u64, 1234, 999_983] {
        let _plan = install(FaultPlan::uniform(seed, 0.05));
        let responses = Mutex::new(Vec::new());
        let stats = serve(
            &engine,
            &cfg,
            queries.iter().enumerate().map(|(i, q)| {
                Submission::Request(ServeRequest {
                    id: i as u64,
                    query: q.clone(),
                    budget: QueryBudget::unlimited(),
                })
            }),
            |resp| responses.lock().unwrap().push(resp),
        );
        let responses = responses.into_inner().unwrap();
        assert_eq!(responses.len(), 32, "seed {seed}: a response per request");
        assert_eq!(stats.submitted, 32);
        assert_eq!(
            stats.served + stats.shed_overloaded + stats.shed_expired,
            32,
            "seed {seed}: every request accounted for"
        );
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.id, i as u64, "seed {seed}: order violated at {i}");
            match &resp.result {
                Ok(out) => {
                    if let (Completion::Exact, Ok(base)) = (&out.completion, &fault_free[i]) {
                        if matches!(base.completion, Completion::Exact) {
                            let what = format!("seed {seed} slot {i}: exact answer under faults");
                            common::assert_bit_identical(out.answer(), base.answer(), &what);
                        }
                    }
                }
                // The admission fault sheds with the typed error; the
                // ladder keeps everything else out of Err.
                Err(GpSsnError::Overloaded { .. }) => {}
                Err(other) => {
                    panic!("seed {seed} slot {i}: unexpected error {other}")
                }
            }
        }
    }
}
