//! Serving-layer contract tests: the serve loop preserves submission
//! order, admission control sheds expired and overloaded requests
//! *without engine work* (in a batch too), and the JSONL front-end
//! turns malformed, hostile and non-UTF-8 lines into in-order error
//! records instead of aborting the stream. That a batch and a JSONL
//! stream answer bit-identically to `try_query` is checked by
//! `tests/differential.rs`.

mod common;
use gpssn::core::{
    serve, serve_jsonl, Completion, EngineConfig, GpSsnEngine, GpSsnError, GpSsnQuery,
    OverloadPolicy, QueryBudget, QueryOptions, QueryOutcome, ServeConfig, ServeRequest, Submission,
};
use gpssn::obs::{json, Obs};
use gpssn::ssn::{synthetic, SpatialSocialNetwork, SyntheticConfig};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn dataset() -> SpatialSocialNetwork {
    synthetic(&SyntheticConfig::uni().scaled(0.02), 42)
}

/// A cost-skewed workload: a few large-radius, large-group queries among
/// cheap small-radius ones — the distribution that makes static
/// chunking strand a worker.
fn skewed_queries(num_users: u32, n: usize) -> Vec<GpSsnQuery> {
    (0..n as u32)
        .map(|i| {
            let mut q = GpSsnQuery::with_defaults(i * 13 % num_users);
            if i % 7 == 0 {
                q.radius = 3.5;
                q.tau = 4;
            } else {
                q.radius = 0.8;
                q.tau = 2;
            }
            q
        })
        .collect()
}

fn assert_same_outcome(
    a: &Result<QueryOutcome, GpSsnError>,
    b: &Result<QueryOutcome, GpSsnError>,
    what: &str,
) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(
                x.completion.rung(),
                y.completion.rung(),
                "{what}: completion class differs"
            );
            if let (Completion::TruncatedWithGap(gx), Completion::TruncatedWithGap(gy)) =
                (&x.completion, &y.completion)
            {
                assert_eq!(gx.to_bits(), gy.to_bits(), "{what}: gap differs");
            }
            common::assert_bit_identical(x.answer(), y.answer(), what);
        }
        (Err(x), Err(y)) => {
            assert_eq!(x.to_string(), y.to_string(), "{what}: errors differ")
        }
        _ => panic!("{what}: Ok on one side, Err on the other"),
    }
}

/// `serve` delivers every response in submission order, streaming, with
/// answers bit-identical to the sequential engine.
#[test]
fn serve_preserves_submission_order_and_answers() {
    let ssn = dataset();
    let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
    let queries = skewed_queries(ssn.social().num_users() as u32, 16);
    let opts = QueryOptions::default();
    let budget = QueryBudget::unlimited();
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| engine.try_query(q, &opts, &budget))
        .collect();

    let cfg = ServeConfig {
        threads: 4,
        queue_capacity: 2, // exercise backpressure on the submitter
        ..Default::default()
    };
    let responses = Mutex::new(Vec::new());
    let stats = serve(
        &engine,
        &cfg,
        queries.iter().enumerate().map(|(i, q)| {
            Submission::Request(ServeRequest {
                id: 100 + i as u64,
                query: q.clone(),
                budget: QueryBudget::unlimited(),
            })
        }),
        |resp| responses.lock().unwrap().push(resp),
    );
    let responses = responses.into_inner().unwrap();
    assert_eq!(stats.submitted, 16);
    assert_eq!(stats.served, 16);
    assert_eq!(responses.len(), 16);
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(
            resp.id,
            100 + i as u64,
            "response {i} out of submission order"
        );
        assert_same_outcome(&resp.result, &sequential[i], &format!("serve slot {i}"));
    }
}

/// Requests whose deadline is already spent are shed before any engine
/// work: the typed `DeadlineExpired` comes back, the shed is metered,
/// and the engine's own counters stay at zero. A batch's deadline
/// counts from submission too, so a zero deadline sheds its slot.
#[test]
fn expired_deadlines_shed_without_engine_work() {
    let ssn = dataset();
    let obs = Arc::new(Obs::with_metrics());
    let engine = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            obs: Some(Arc::clone(&obs)),
            ..Default::default()
        },
    );
    let cfg = ServeConfig {
        threads: 2,
        ..Default::default()
    };
    let responses = Mutex::new(Vec::new());
    let stats = serve(
        &engine,
        &cfg,
        (0..5u64).map(|i| {
            Submission::Request(ServeRequest {
                id: i,
                query: GpSsnQuery::with_defaults(3),
                budget: QueryBudget {
                    deadline: Some(Duration::ZERO),
                    ..QueryBudget::unlimited()
                },
            })
        }),
        |resp| responses.lock().unwrap().push(resp),
    );
    let responses = responses.into_inner().unwrap();
    assert_eq!(responses.len(), 5);
    for resp in &responses {
        assert!(
            matches!(resp.result, Err(GpSsnError::DeadlineExpired)),
            "expected DeadlineExpired, got {:?}",
            resp.result
        );
    }
    assert_eq!(stats.shed_expired, 5);
    assert_eq!(stats.served, 0, "no request may reach the engine");
    let dead = QueryBudget::with_deadline(Duration::ZERO);
    let shed = engine.try_query_batch(
        &[GpSsnQuery::with_defaults(3)],
        2,
        &QueryOptions::default(),
        &dead,
    );
    assert!(
        matches!(shed[..], [Err(GpSsnError::DeadlineExpired)]),
        "{shed:?}"
    );

    let snap = obs.base_registry().snapshot();
    assert_eq!(
        snap.counter("gpssn_serve_shed_total", &[("reason", "expired")]),
        6,
        "five served sheds and one batch shed"
    );
    assert_eq!(snap.counter("gpssn_serve_served_total", &[]), 0);
    assert_eq!(
        snap.counter("gpssn_users_scanned_total", &[]),
        0,
        "engine pruning counters must stay untouched by shed requests"
    );
}

/// With a zero-capacity queue under the shedding policy every request
/// is rejected with the typed `Overloaded` error carrying the observed
/// depth and capacity.
#[test]
fn overloaded_queue_sheds_with_typed_error() {
    let ssn = dataset();
    let obs = Arc::new(Obs::with_metrics());
    let engine = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            obs: Some(Arc::clone(&obs)),
            ..Default::default()
        },
    );
    let cfg = ServeConfig {
        threads: 1,
        queue_capacity: 0,
        overload: OverloadPolicy::Shed,
        ..Default::default()
    };
    let responses = Mutex::new(Vec::new());
    let stats = serve(
        &engine,
        &cfg,
        (0..4u64).map(|i| {
            Submission::Request(ServeRequest {
                id: i,
                query: GpSsnQuery::with_defaults(1),
                budget: QueryBudget::unlimited(),
            })
        }),
        |resp| responses.lock().unwrap().push(resp),
    );
    let responses = responses.into_inner().unwrap();
    assert_eq!(responses.len(), 4);
    for resp in &responses {
        match &resp.result {
            Err(GpSsnError::Overloaded { depth, capacity }) => {
                assert_eq!((*depth, *capacity), (0, 0));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
    assert_eq!(stats.shed_overloaded, 4);
    assert_eq!(stats.served, 0);
    assert_eq!(
        obs.base_registry()
            .snapshot()
            .counter("gpssn_serve_shed_total", &[("reason", "overloaded")]),
        4
    );
}

/// The JSONL front-end: one response line per input line, in input
/// order; malformed lines become `invalid_query` error records
/// mid-stream and later lines still run. So do hostile lines: nesting
/// deep enough to overflow a recursive parser, bytes that are not
/// UTF-8, an empty line.
#[test]
fn serve_jsonl_streams_and_survives_malformed_lines() {
    let ssn = dataset();
    let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
    let cfg = ServeConfig {
        threads: 2,
        ..Default::default()
    };
    let input = concat!(
        "{\"id\":10,\"user\":3,\"r\":1.5}\n",
        "this is not json\n",
        "{\"user\":5}\n",          // id defaults to line number (3)
        "{\"id\":13,\"tau\":2}\n", // missing required user
        "{\"id\":14,\"user\":7,\"timeout_ms\":0}\n", // dead on arrival
    );
    let mut input = input.as_bytes().to_vec();
    input.resize(input.len() + 1_000_000, b'[');
    input.extend_from_slice(b"\n{\"user\":\xff\xfe}\n\n{\"id\":19,\"user\":8}\n");
    let mut out = Vec::new();
    let stats = serve_jsonl(&engine, &cfg, &input[..], &mut out).expect("no I/O errors");
    assert_eq!(stats.submitted, 9);
    assert_eq!(stats.rejected, 5, "two malformed and three hostile lines");
    assert_eq!(stats.shed_expired, 1);
    assert_eq!(stats.served, 3);

    let text = String::from_utf8(out).expect("output is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 9, "one response line per input line");
    let parsed: Vec<json::Value> = lines
        .iter()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("bad response line {l:?}: {e}")))
        .collect();
    let field = |i: usize, key: &str| -> String {
        parsed[i]
            .get(key)
            .and_then(|v| {
                v.as_str()
                    .map(str::to_string)
                    .or_else(|| v.as_f64().map(|n| n.to_string()))
            })
            .unwrap_or_else(|| panic!("line {i} missing {key}: {}", lines[i]))
    };
    assert_eq!(field(0, "id"), "10");
    assert_eq!(field(0, "status"), "ok");
    assert_eq!(field(1, "id"), "2");
    assert_eq!(field(1, "code"), "invalid_query");
    assert_eq!(field(2, "id"), "3", "id defaults to the line number");
    assert_eq!(field(2, "status"), "ok");
    assert_eq!(field(3, "code"), "invalid_query");
    assert_eq!(field(4, "id"), "14");
    assert_eq!(field(4, "code"), "deadline_expired");
    for (i, id) in [(5, "6"), (6, "7"), (7, "8")] {
        assert_eq!(
            (field(i, "id"), field(i, "code")),
            (id.into(), "invalid_query".into())
        );
    }
    assert_eq!(
        (field(8, "id"), field(8, "status")),
        ("19".into(), "ok".into())
    );
}
