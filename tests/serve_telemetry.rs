//! Continuous-observability contract tests for the serve path: the
//! live HTTP telemetry endpoint answers all four routes while traffic
//! is in flight, tail-based trace sampling keeps every interesting
//! trace and exactly the configured head rate of the boring rest, a
//! trickling client cannot hold the listener, and the queue-depth gauge
//! returns to zero after every drain. That observability never perturbs
//! answers is checked bitwise by `tests/differential.rs`.

use gpssn::core::{
    serve, serve_jsonl, EngineConfig, GpSsnEngine, GpSsnError, GpSsnQuery, OverloadPolicy,
    QueryBudget, ServeConfig, ServeObs, ServeObsConfig, ServeRequest, Submission,
};
use gpssn::obs::{json, FlightConfig, Obs, ObsConfig, TailConfig};
use gpssn::ssn::{synthetic, SpatialSocialNetwork, SyntheticConfig};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::{Duration, Instant};

fn dataset() -> SpatialSocialNetwork {
    synthetic(&SyntheticConfig::uni().scaled(0.02), 42)
}

/// The shared engine for tests that don't need their own `Obs`:
/// building one per proptest case would dominate the suite's runtime.
fn shared_engine() -> &'static GpSsnEngine<'static> {
    static SSN: OnceLock<SpatialSocialNetwork> = OnceLock::new();
    static ENGINE: OnceLock<GpSsnEngine<'static>> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let ssn = SSN.get_or_init(dataset);
        GpSsnEngine::build(ssn, EngineConfig::default())
    })
}

fn request(id: u64, user: u32) -> Submission {
    Submission::Request(ServeRequest {
        id,
        query: GpSsnQuery::with_defaults(user),
        budget: QueryBudget::unlimited(),
    })
}

/// A minimal HTTP/1.1 client: one GET, connection closed, returns
/// (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    http_request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn http_request(addr: SocketAddr, head: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(head.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status = raw.lines().next().unwrap_or("").to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The tentpole integration check: with `telemetry_addr` set, all four
/// routes answer — correctly — while the serve call is still running
/// and has traffic behind it, and unknown routes / non-GET methods get
/// proper error statuses.
#[test]
fn telemetry_endpoint_serves_all_routes_during_traffic() {
    let ssn = dataset();
    let obs = std::sync::Arc::new(Obs::with_metrics());
    let engine = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            obs: Some(obs.clone()),
            ..Default::default()
        },
    );
    let tele = std::sync::Arc::new(ServeObs::default());
    let cfg = ServeConfig {
        threads: 2,
        telemetry: tele.clone(),
        telemetry_addr: Some("127.0.0.1:0".into()),
        ..Default::default()
    };

    // The submission iterator blocks on a channel after the first
    // batch, holding the serve call (and its listener) open while the
    // main thread scrapes.
    let (tx, rx) = mpsc::channel::<Submission>();
    let responses = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let serve_handle = scope.spawn(|| {
            serve(&engine, &cfg, rx, |resp| {
                responses.lock().unwrap().push(resp.id)
            })
        });
        for i in 0..8u64 {
            tx.send(request(i, (i as u32 * 3) % 40)).unwrap();
        }
        // Wait for the listener to bind and the batch to drain.
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Some(a) = tele.telemetry_addr() {
                break a;
            }
            assert!(Instant::now() < deadline, "listener never bound");
            std::thread::sleep(Duration::from_millis(5));
        };
        while responses.lock().unwrap().len() < 8 {
            assert!(Instant::now() < deadline, "first batch never drained");
            std::thread::sleep(Duration::from_millis(5));
        }

        let (status, body) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "metrics: {status}");
        assert!(
            body.contains("# TYPE gpssn_slo_attainment gauge"),
            "metrics body lacks SLO gauges:\n{body}"
        );
        assert!(body.contains("gpssn_serve_queue_depth"));
        // Every non-comment line must be `name{labels} value`.
        for line in body
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (_, value) = line.rsplit_once(' ').expect("prometheus line has a value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("non-numeric sample {line:?}"));
        }

        let (status, body) = http_get(addr, "/health");
        assert!(status.contains("200"), "health: {status}");
        let health = json::parse(body.trim()).expect("health is valid JSON");
        assert_eq!(
            health.get("status").and_then(|v| v.as_str()),
            Some("ok"),
            "healthy service reports ok: {body}"
        );
        assert_eq!(health.get("workers").and_then(|v| v.as_f64()), Some(2.0));

        let (status, body) = http_get(addr, "/slo");
        assert!(status.contains("200"), "slo: {status}");
        let slo = json::parse(body.trim()).expect("slo is valid JSON");
        assert_eq!(slo.get("total").and_then(|v| v.as_f64()), Some(8.0));

        let (status, body) = http_get(addr, "/flight");
        assert!(status.contains("200"), "flight: {status}");
        let flight = json::parse(body.trim()).expect("flight is valid JSON");
        let records = flight
            .get("records")
            .and_then(|v| v.as_array())
            .expect("flight has a records array");
        assert_eq!(records.len(), 8, "one flight record per served request");

        let (status, _) = http_get(addr, "/nope");
        assert!(status.contains("404"), "unknown route: {status}");
        let (status, _) = http_request(addr, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(status.contains("405"), "non-GET: {status}");

        // More traffic after the scrape: the endpoint never wedges the
        // drain.
        for i in 8..12u64 {
            tx.send(request(i, (i as u32 * 3) % 40)).unwrap();
        }
        drop(tx);
        let stats = serve_handle.join().unwrap();
        assert_eq!(stats.submitted, 12);
        assert_eq!(stats.served, 12);
    });
    assert_eq!(responses.into_inner().unwrap().len(), 12);
    assert!(tele.listener_error().is_none());
    assert_eq!(tele.flight().len(), 12);
}

/// A telemetry address that cannot bind degrades to a warning surfaced
/// via [`ServeObs::listener_error`]; serving is unaffected.
#[test]
fn listener_bind_failure_is_surfaced_not_fatal() {
    let engine = shared_engine();
    let tele = std::sync::Arc::new(ServeObs::default());
    let cfg = ServeConfig {
        threads: 1,
        telemetry: tele.clone(),
        telemetry_addr: Some("definitely-not-an-address".into()),
        ..Default::default()
    };
    let served = Mutex::new(0u32);
    let stats = serve(
        engine,
        &cfg,
        (0..3u64).map(|i| request(i, i as u32)),
        |_| *served.lock().unwrap() += 1,
    );
    assert_eq!(stats.served, 3);
    assert_eq!(*served.lock().unwrap(), 3);
    let err = tele.listener_error().expect("bind failure is recorded");
    assert!(err.contains("definitely-not-an-address"), "{err}");
    assert!(tele.telemetry_addr().is_none());
}

/// The tail-sampling contract (the issue's acceptance bar): 100% of
/// interesting traces (errored requests here) survive, and *exactly*
/// one in `head_rate` of the boring rest — deterministically, whatever
/// the worker interleaving.
#[test]
fn tail_sampling_keeps_interesting_plus_exact_head_rate() {
    let ssn = dataset();
    let num_users = ssn.social().num_users() as u32;
    let obs = std::sync::Arc::new(Obs::new(ObsConfig {
        metrics: false,
        tracing: true,
        trace_capacity: 1 << 14,
    }));
    let engine = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            obs: Some(obs.clone()),
            ..Default::default()
        },
    );
    let tele = std::sync::Arc::new(ServeObs::new(&ServeObsConfig {
        tail: TailConfig {
            // No query is "slow": only outcome and head sampling act.
            latency_threshold: Some(Duration::from_secs(3600)),
            head_rate: 5,
            seed: 0,
        },
        ..Default::default()
    }));
    let cfg = ServeConfig {
        threads: 3,
        telemetry: tele.clone(),
        ..Default::default()
    };
    // 20 boring successes interleaved with 5 unknown-user errors.
    let stats = serve(
        &engine,
        &cfg,
        (0..25u64).map(|i| {
            let user = if i % 5 == 4 {
                num_users + 1_000 // unknown → error → interesting
            } else {
                (i as u32 * 7) % num_users
            };
            request(i, user)
        }),
        |_| {},
    );
    assert_eq!(stats.served, 25);

    let (kept_outcome, kept_slow, kept_head, dropped) = tele.tail().stats();
    assert_eq!(kept_outcome, 5, "every errored trace is kept");
    assert_eq!(kept_slow, 0, "nothing beats a one-hour threshold");
    assert_eq!(
        kept_head, 4,
        "exactly 1-in-5 of the 20 boring queries survive"
    );
    assert_eq!(dropped, 16);

    // The committed traces — and only those — reached the trace sink.
    let roots = obs
        .tracer()
        .records()
        .iter()
        .filter(|r| r.name == "serve_request")
        .count();
    assert_eq!(roots, 9, "5 outcome-kept + 4 head-kept root spans");

    // The flight recorder saw everything regardless of sampling, and
    // flags which records kept their trace.
    assert_eq!(tele.flight().len(), 25);
    let records = tele.flight().records();
    assert_eq!(records.iter().filter(|r| r.class == "error").count(), 5);
    assert_eq!(records.iter().filter(|r| r.trace_committed).count(), 9);
    for r in records.iter().filter(|r| r.class == "error") {
        assert!(r.trace_committed, "interesting record lost its trace");
        assert_eq!(r.code, "unknown_user");
    }
}

/// The flight record is a projection of the outcome: an engine-served
/// record's `(key, value)` counter pairs are exactly its response's
/// `QueryCounters`, and shed or rejected records carry no counters.
#[test]
fn flight_record_counters_are_the_outcomes_counters() {
    let engine = shared_engine();
    let num_users = engine.ssn().social().num_users() as u32;
    let tele = std::sync::Arc::new(ServeObs::default());
    let cfg = ServeConfig {
        threads: 2,
        telemetry: tele.clone(),
        ..Default::default()
    };
    let submissions = (0..8u64).map(|i| match i {
        3 => Submission::Rejected {
            id: i,
            error: GpSsnError::InvalidQuery("malformed line".into()),
        },
        5 => Submission::Request(ServeRequest {
            id: i,
            query: GpSsnQuery::with_defaults(1),
            budget: QueryBudget::with_deadline(Duration::ZERO),
        }),
        _ => request(i, (i as u32 * 7) % num_users),
    });
    let mut responses = Vec::new();
    serve(engine, &cfg, submissions, |r| responses.push(r));

    let records = tele.flight().records();
    assert_eq!(records.len(), 8);
    let mut engine_served = 0;
    for r in &records {
        let resp = &responses[r.seq as usize];
        assert_eq!(resp.id, r.seq);
        match &resp.result {
            Ok(out) => {
                let expected: Vec<(&str, u64)> = out
                    .metrics
                    .counters
                    .iter()
                    .map(|(c, v)| (c.key(), v))
                    .collect();
                assert_eq!(r.counters, expected, "record {} diverges", r.seq);
                engine_served += 1;
            }
            Err(e) => assert!(
                r.counters.is_empty(),
                "{e:?} record {} carries counters",
                r.seq
            ),
        }
    }
    assert_eq!(engine_served, 6, "six requests reach the engine");
    assert!(records.iter().any(|r| r.class == "shed"));
}

/// With a zero latency threshold every request is "slow" and every
/// trace survives — the recorder-side view of "keep 100%".
#[test]
fn zero_latency_threshold_keeps_every_trace() {
    let ssn = dataset();
    let obs = std::sync::Arc::new(Obs::new(ObsConfig {
        metrics: false,
        tracing: true,
        trace_capacity: 1 << 14,
    }));
    let engine = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            obs: Some(obs.clone()),
            ..Default::default()
        },
    );
    let tele = std::sync::Arc::new(ServeObs::new(&ServeObsConfig {
        tail: TailConfig {
            latency_threshold: Some(Duration::ZERO),
            head_rate: 0,
            seed: 9,
        },
        flight: FlightConfig { capacity: 8 },
        ..Default::default()
    }));
    let cfg = ServeConfig {
        threads: 2,
        telemetry: tele.clone(),
        ..Default::default()
    };
    serve(
        &engine,
        &cfg,
        (0..10u64).map(|i| request(i, (i as u32 * 3) % 40)),
        |_| {},
    );
    let (kept_outcome, kept_slow, kept_head, dropped) = tele.tail().stats();
    assert_eq!(kept_outcome + kept_slow, 10);
    assert_eq!((kept_head, dropped), (0, 0));
    // A tiny flight ring under churn: capacity respected, eviction
    // metered.
    assert_eq!(tele.flight().len(), 8);
    assert_eq!(tele.flight().dropped(), 2);
}

/// In-stream control lines return the same dumps as the HTTP routes,
/// immediately, without counting as submissions.
#[test]
fn control_lines_dump_telemetry_in_stream() {
    let engine = shared_engine();
    let tele = std::sync::Arc::new(ServeObs::default());
    let cfg = ServeConfig {
        threads: 1,
        telemetry: tele,
        ..Default::default()
    };
    let input = "{\"id\":1,\"user\":3}\n\
                 {\"control\":\"slo\"}\n\
                 {\"control\":\"flight\"}\n\
                 {\"control\":\"metrics\"}\n\
                 {\"control\":\"bogus\"}\n";
    let mut out = Vec::new();
    let stats = serve_jsonl(engine, &cfg, input.as_bytes(), &mut out).unwrap();
    assert_eq!(stats.submitted, 1, "control lines are not submissions");
    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 5);
    let slo = json::parse(
        lines
            .iter()
            .find(|l| l.starts_with("{\"control\":\"slo\""))
            .expect("slo control reply"),
    )
    .unwrap();
    assert!(slo.get("data").is_some());
    let flight = json::parse(
        lines
            .iter()
            .find(|l| l.starts_with("{\"control\":\"flight\""))
            .expect("flight control reply"),
    )
    .unwrap();
    assert!(flight
        .get("data")
        .and_then(|d| d.get("records"))
        .and_then(|r| r.as_array())
        .is_some());
    assert!(lines
        .iter()
        .any(|l| l.starts_with("{\"control\":\"metrics\"")));
    assert!(lines
        .iter()
        .any(|l| l.starts_with("{\"control\":\"bogus\"") && l.contains("unknown control")));
    assert!(lines.iter().any(|l| l.contains("\"id\":1")));
}

/// A client that trickles its request head one byte at a time holds
/// the single listener thread only until the head deadline (it gets
/// 400), so a scrape queued behind it is answered, and `serve` returns
/// soon after input EOF while such a client is connected. Two serve
/// calls run at once so that both waits share one deadline.
#[test]
fn trickling_client_cannot_hold_the_listener() {
    let engine = shared_engine();
    // Sends an unfinished request head, one byte per 100 ms, for at
    // most 5 s or until the server hangs up.
    let trickle = |mut client: TcpStream| {
        let head = b"GET /health HTTP/1.1\r\nX: "
            .iter()
            .chain(std::iter::repeat(&b'y'));
        for b in head.take(50) {
            if client.write_all(&[*b]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    };
    std::thread::scope(|scope| {
        let [(tx_a, addr_a, serve_a), (tx_b, _, serve_b)] = [(); 2].map(|()| {
            let tele = std::sync::Arc::new(ServeObs::default());
            let cfg = ServeConfig {
                threads: 1,
                telemetry: tele.clone(),
                telemetry_addr: Some("127.0.0.1:0".into()),
                ..Default::default()
            };
            let (tx, rx) = mpsc::channel::<Submission>();
            let handle = scope.spawn(move || serve(engine, &cfg, rx, |_| {}));
            let deadline = Instant::now() + Duration::from_secs(30);
            let addr = loop {
                if let Some(a) = tele.telemetry_addr() {
                    break a;
                }
                assert!(Instant::now() < deadline, "listener never bound");
                std::thread::sleep(Duration::from_millis(5));
            };
            let client = TcpStream::connect(addr).expect("connect trickler");
            scope.spawn(move || trickle(client));
            (tx, addr, handle)
        });
        let eof = Instant::now();
        drop(tx_b);
        let (status, _) = http_get(addr_a, "/health");
        assert!(status.contains("200"), "scrape behind a trickler: {status}");
        serve_b.join().expect("serve returns");
        let waited = eof.elapsed();
        assert!(
            waited < Duration::from_secs(3),
            "serve returned {waited:?} after input EOF"
        );
        drop(tx_a);
        serve_a.join().expect("serve returns");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The queue-depth gauge's invariant (the issue's audit): whatever
    /// the mix of served / expired / shed / invalid submissions, the
    /// policy, and the queue bound, depth returns to exactly 0 once
    /// the stream drains.
    #[test]
    fn queue_depth_drains_to_zero(
        threads in 1usize..4,
        queue_cap in 0usize..4,
        shed in (0u8..2).prop_map(|b| b == 1),
        kinds in proptest::collection::vec(0u8..4, 1..24),
    ) {
        let engine = shared_engine();
        let tele = std::sync::Arc::new(ServeObs::default());
        let cfg = ServeConfig {
            threads,
            queue_capacity: queue_cap,
            overload: if shed { OverloadPolicy::Shed } else { OverloadPolicy::Block },
            telemetry: tele.clone(),
            ..Default::default()
        };
        let n = kinds.len();
        let responses = Mutex::new(0usize);
        serve(
            engine,
            &cfg,
            kinds.iter().enumerate().map(|(i, kind)| match kind {
                0 => request(i as u64, (i as u32 * 5) % 40),
                1 => Submission::Request(ServeRequest {
                    id: i as u64,
                    query: GpSsnQuery::with_defaults(i as u32 % 40),
                    budget: QueryBudget {
                        deadline: Some(Duration::ZERO), // shed at submission
                        ..QueryBudget::unlimited()
                    },
                }),
                2 => request(i as u64, 1_000_000), // unknown user → error
                _ => Submission::Rejected {
                    id: i as u64,
                    error: gpssn::core::GpSsnError::InvalidQuery("bad line".into()),
                },
            }),
            |_| *responses.lock().unwrap() += 1,
        );
        prop_assert_eq!(*responses.lock().unwrap(), n, "every submission answered");
        prop_assert_eq!(tele.queue_depth(), 0, "queue depth must drain to zero");
        // Flight + SLO saw every submission exactly once.
        let slo = tele.slo().snapshot(tele.slo().now_ns());
        prop_assert_eq!(slo.total, n as u64);
    }
}
