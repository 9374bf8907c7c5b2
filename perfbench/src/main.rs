//! `perfbench`: the end-to-end GP-SSN serving benchmark (see README.md).
//!
//! ```text
//! perfbench --workload <uni-default|gowcol-replan|serve-light> \
//!           --seed N --seconds S --trace <0|1>
//! ```
//!
//! One run generates the workload's dataset, builds the engine several
//! times (`setup_s` is the median build), warms the distance cache with
//! a disjoint stream, then drives the seeded request stream through
//! `serve_jsonl` for `S` seconds and checks every response. With
//! `--trace 1` it then rebuilds the engine with tracing on, replays the
//! same requests, requires the same answers, and reports per-layer
//! metrics instead of end-to-end ones. The last stdout line is the
//! result object; the line before it records the run. Any incorrect
//! answer or unexpected error code exits non-zero without metrics.

mod drive;
mod layers;
mod stats;
mod verify;
mod workload;

use drive::{drive, Run, Stop};
use gpssn_core::{EngineConfig, GpSsnEngine, ServeConfig, ServeObs, ServeObsConfig};
use gpssn_obs::{json, FlightConfig, Obs, ObsConfig, TailConfig};
use gpssn_ssn::{DatasetStats, SpatialSocialNetwork};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use verify::{verify, Verdict};
use workload::{Discipline, Line, Name};

const USAGE: &str =
    "usage: perfbench --workload <uni-default|gowcol-replan|serve-light> --seed N --seconds S --trace <0|1>";

/// Every end-to-end metric with its unit, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("io_pages_per_query", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Engine builds per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 21;
/// Closed-loop lines generated per second of window: far more than the
/// engine answers, so the window and not the stream ends a run.
const CLOSED_LINES_PER_SECOND: u64 = 2_000;
/// Warm-up gives up on steady cache occupancy after this many rounds.
const WARMUP_MAX_ROUNDS: usize = 40;
/// Span ring of the traced replay; a run whose spans overflow it fails.
const TRACE_CAPACITY: usize = 1 << 23;

struct Args {
    workload: Name,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, not {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Name::parse(&value).ok_or(bad("a workload name"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or(bad("a positive integer"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((record, result)) => {
            println!("{record}");
            println!("{result}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What warming the distance cache took.
struct Warmup {
    seconds: f64,
    requests: usize,
    cache_entries: usize,
}

/// Feeds the warm-up stream in rounds until the distance cache's
/// occupancy stops moving (within 1% of its capacity) or fills.
fn warm_up(
    engine: &GpSsnEngine<'_>,
    cfg: &ServeConfig,
    ssn: &SpatialSocialNetwork,
    name: Name,
    seed: u64,
    nproc: usize,
) -> Result<Warmup, String> {
    let t = Instant::now();
    let round = name.warmup_round(nproc);
    let lines = name.warmup_stream(ssn, seed, nproc, round * WARMUP_MAX_ROUNDS);
    let cache = engine
        .distance_cache()
        .ok_or("the engine has no distance cache")?;
    let capacity: usize = cache
        .dist_shard_occupancy()
        .iter()
        .chain(&cache.ball_shard_occupancy())
        .map(|s| s.capacity)
        .sum();
    let occupancy = || cache.dist_entries() + cache.ball_entries();
    let (mut last, mut requests) = (occupancy(), 0);
    for (i, chunk) in lines.chunks(round).enumerate() {
        let text: String = chunk.iter().map(|l| format!("{}\n", l.text)).collect();
        gpssn_core::serve_jsonl(engine, cfg, text.as_bytes(), std::io::sink())
            .map_err(|e| format!("warm-up: {e}"))?;
        requests += chunk.len();
        let now = occupancy();
        let steady = now >= capacity || (i >= 1 && now.abs_diff(last) * 100 <= capacity);
        last = now;
        if steady {
            break;
        }
    }
    Ok(Warmup {
        seconds: t.elapsed().as_secs_f64(),
        requests,
        cache_entries: last,
    })
}

fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        threads: workers,
        ..ServeConfig::default()
    }
}

fn require_correct(what: &str, v: &Verdict) -> Result<(), String> {
    if v.failed == 0 {
        return Ok(());
    }
    Err(format!(
        "{what}: {} response(s) differ from their design:\n  {}",
        v.failed,
        v.failures.join("\n  ")
    ))
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics of the untraced timed run. Latency
/// percentiles are medians over the run's windows of 200 consecutive
/// requests (`stats::windows`; one burst on `serve-light`): a host
/// stall or a rare heavy query that slows some windows leaves them
/// alone, a change that slows every request moves them.
fn end_to_end(run: &Run, v: &Verdict, setup_s: f64) -> Result<BTreeMap<&'static str, f64>, String> {
    let (mut p50, mut p95) = (Vec::new(), Vec::new());
    for w in stats::windows(run.len()) {
        let lat = stats::sorted(
            w.clone()
                .map(|k| run.latency(k).as_secs_f64() * 1e3)
                .collect(),
        );
        let pct = |q: f64| {
            stats::percentile(&lat, q).ok_or(format!(
                "{} requests are too few for p{}: at least {} must lie beyond it",
                lat.len(),
                q * 100.0,
                stats::MIN_BEYOND
            ))
        };
        p50.push(pct(0.5)?);
        p95.push(pct(0.95)?);
    }
    let mut m = BTreeMap::new();
    m.insert("throughput_qps", run.throughput());
    m.insert("latency_p50_ms", stats::median(&p50));
    m.insert("latency_p95_ms", stats::median(&p95));
    m.insert(
        "io_pages_per_query",
        v.io_pages as f64 / v.served.max(1) as f64,
    );
    m.insert("peak_rss_mb", peak_rss_mb()?);
    m.insert("setup_s", setup_s);
    Ok(m)
}

/// Renders `values` for exactly the `declared` metrics, in order.
fn render_metrics(
    declared: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut out = Vec::new();
    for (name, unit) in declared {
        let v = values
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        out.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", out.join(", ")))
}

fn run(a: &Args) -> Result<(String, String), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let name = a.workload;
    let discipline = name.discipline(nproc);
    let workers = name.workers(nproc);

    let t = Instant::now();
    let ssn = name.dataset();
    let datagen_s = t.elapsed().as_secs_f64();

    let mut builds = Vec::with_capacity(SETUP_BUILDS);
    let mut engine = None;
    for _ in 0..SETUP_BUILDS {
        drop(engine.take());
        let t = Instant::now();
        engine = Some(GpSsnEngine::build(&ssn, EngineConfig::default()));
        builds.push(t.elapsed().as_secs_f64());
    }
    let engine = engine.ok_or("no engine was built")?;
    let setup_s = stats::median(&builds);

    let cfg = serve_config(workers);
    let warm = warm_up(&engine, &cfg, &ssn, name, a.seed, nproc)?;
    let len = match discipline {
        Discipline::Closed { .. } => CLOSED_LINES_PER_SECOND * a.seconds,
        Discipline::Open { rate, .. } => (rate * a.seconds as f64).ceil() as u64,
    };
    let lines = name.stream(&ssn, a.seed, nproc, len as usize);
    let timed = drive(
        &engine,
        &cfg,
        &lines,
        discipline,
        Stop::After(Duration::from_secs(a.seconds)),
    )?;
    drop(engine);
    let verdict = verify(&ssn, &lines, &timed.responses);
    require_correct("timed run", &verdict)?;
    let e2e = end_to_end(&timed, &verdict, setup_s)?;
    let cache_cfg = gpssn_core::DistanceCacheConfig::default();

    let metrics = if a.trace {
        let layer = traced(
            name, &ssn, nproc, a.seed, &lines, &timed, &verdict, datagen_s,
        )?;
        for (claim, holds) in layers::confirmations(name.as_str(), &layer) {
            eprintln!(
                "workload claim {}: {claim}",
                if holds { "holds" } else { "DOES NOT HOLD" }
            );
        }
        render_metrics(&layers::PER_LAYER, &layer)?
    } else {
        render_metrics(&END_TO_END, &e2e)?
    };
    for (n, v) in &e2e {
        eprintln!("{n:>20} {v:.4}");
    }

    let ds = DatasetStats::of(&ssn);
    let (clients, rate, burst) = match discipline {
        Discipline::Closed { clients } => (clients.to_string(), "null".into(), "null".into()),
        Discipline::Open { rate, burst } => ("null".into(), rate.to_string(), burst.to_string()),
    };
    let record = format!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"workers\": {workers}, \"clients\": {clients}, \"rate_per_s\": {rate}, \"burst\": {burst}, \
         \"dataset\": {{\"kind\": \"{}\", \"scale\": {}, \"seed\": {}, \"users\": {}, \"avg_social_degree\": {:.2}, \
         \"road_vertices\": {}, \"pois\": {}}}, \
         \"dist_cache_capacity\": {}, \"ball_cache_capacity\": {}, \"datagen_s\": {datagen_s}, \
         \"setup_builds_s\": {:?}, \"warmup_s\": {}, \"warmup_requests\": {}, \"warmup_cache_entries\": {}, \
         \"requests\": {}, \"served\": {}, \"digest\": \"{:016x}\"}}}}",
        name.as_str(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        json::escape(name.dataset_kind().name()),
        workload::SCALE,
        workload::DATASET_SEED,
        ds.users,
        ds.avg_social_degree,
        ds.road_vertices,
        ds.pois,
        cache_cfg.dist_capacity,
        cache_cfg.ball_capacity,
        builds,
        warm.seconds,
        warm.requests,
        warm.cache_entries,
        timed.len(),
        verdict.served,
        verdict.digest,
    );
    let result = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {metrics}}}",
        timed.len()
    );
    Ok((record, result))
}

/// Rebuilds the engine with tracing on, replays the timed run's lines
/// under the same discipline, requires the same answers, and derives
/// the per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced(
    name: Name,
    ssn: &SpatialSocialNetwork,
    nproc: usize,
    seed: u64,
    lines: &[Line],
    timed: &Run,
    timed_verdict: &Verdict,
    datagen_s: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let n = timed.len();
    let obs = Arc::new(Obs::new(ObsConfig {
        metrics: true,
        tracing: true,
        trace_capacity: TRACE_CAPACITY,
    }));
    let engine = GpSsnEngine::build(
        ssn,
        EngineConfig {
            obs: Some(Arc::clone(&obs)),
            ..EngineConfig::default()
        },
    );
    // Warm up dormant, so the registry and span ring hold the replay only
    // (plus the build-stage histograms just recorded).
    obs.set_metrics(false);
    obs.set_tracing(false);
    let warm = warm_up(
        &engine,
        &serve_config(name.workers(nproc)),
        ssn,
        name,
        seed,
        nproc,
    )?;
    obs.tracer().clear();
    obs.set_metrics(true);
    obs.set_tracing(true);

    // Keep every trace: no latency trigger, head-sample 1 in 1.
    let tele = Arc::new(ServeObs::new(&ServeObsConfig {
        flight: FlightConfig { capacity: n },
        tail: TailConfig {
            latency_threshold: None,
            head_rate: 1,
            seed: 0,
        },
        ..ServeObsConfig::default()
    }));
    let cfg = ServeConfig {
        telemetry: Arc::clone(&tele),
        ..serve_config(name.workers(nproc))
    };
    let cache = engine
        .distance_cache()
        .ok_or("the engine has no distance cache")?;
    let cache_before = cache.lifetime_stats();
    let replay = drive(&engine, &cfg, &lines[..n], timed.discipline, Stop::Lines(n))?;
    let cache_after = cache.lifetime_stats();
    obs.set_tracing(false);
    obs.set_metrics(false);

    let verdict = verify(ssn, lines, &replay.responses);
    require_correct("traced replay", &verdict)?;
    if verdict.digest != timed_verdict.digest || replay.len() != n {
        return Err(format!(
            "the traced replay answered differently: digest {:016x} over {} lines vs {:016x} over {n}",
            verdict.digest,
            replay.len(),
            timed_verdict.digest
        ));
    }
    let dropped_spans = obs.tracer().dropped();
    let (_, _, _, dropped_traces) = tele.tail().stats();
    let dropped_flight = tele.flight().dropped();
    if dropped_spans + dropped_traces + dropped_flight > 0 {
        return Err(format!(
            "the traced replay lost data: {dropped_spans} spans overflowed the ring, \
             {dropped_traces} traces were not kept, {dropped_flight} flight records were evicted"
        ));
    }
    let spans = obs.tracer().records();
    let registry = obs.base_registry().snapshot();
    let flight = tele.flight().records();
    layers::per_layer(&layers::Traced {
        lines,
        timed,
        replay: &replay,
        verdict: &verdict,
        spans: &spans,
        registry: &registry,
        flight: &flight,
        cache_before,
        cache_after,
        datagen_s,
        warmup_s: warm.seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpssn_obs::json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let b = benchmark_json();
        assert_eq!(declared(&b, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&b, "per_layer"), owned(&layers::PER_LAYER));
        // `gowcol-replan` runs on demand but is left out of the file
        // (see README.md), so the file's workloads are a subset.
        let workloads = b
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads");
        assert!(workloads.len() >= 2);
        for w in workloads {
            let name = w.get("name").and_then(Value::as_str).expect("name");
            assert!(Name::parse(name).is_some(), "{name}");
        }
    }

    #[test]
    fn rendered_metrics_are_exactly_the_declared_ones() {
        let mut values = BTreeMap::new();
        for (i, (n, _)) in END_TO_END.iter().enumerate() {
            values.insert(*n, 1.5 + i as f64);
        }
        let text = render_metrics(&END_TO_END, &values).unwrap();
        let v = json::parse(&text).unwrap();
        assert_eq!(
            v.get("setup_s")
                .and_then(|m| m.get("unit"))
                .and_then(Value::as_str),
            Some("s")
        );
        values.remove("setup_s");
        assert!(render_metrics(&END_TO_END, &values).is_err());
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve-light --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Name::ServeLight, 3, 10, true)
        );
        assert!(parse("--workload serve-light --seed 3 --seconds 10").is_err());
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload serve-light --seed 3 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload serve-light --seed 3 --seconds 10 --trace 2").is_err());
    }
}
