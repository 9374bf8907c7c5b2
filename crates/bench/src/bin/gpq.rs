//! GP-SSN query CLI: loads a `.ssn` dataset (see `datagen`), builds the
//! indexes, and answers queries from the command line.
//!
//! ```text
//! cargo run --release -p gpssn-bench --bin gpq -- \
//!     --data city.ssn --user 11 --tau 4 --gamma 0.3 --theta 0.4 --r 2 \
//!     [--top-k 3] [--approx 64] [--tune 0.7] \
//!     [--timeout-ms N] [--max-pops N] [--max-groups N] [--max-settles N] \
//!     [--trace-out FILE] [--metrics-out FILE] [--log jsonl]
//! ```
//!
//! Telemetry flags:
//!
//! * `--trace-out FILE` — write a Chrome `trace_event` JSON of the
//!   query's phase spans (load in `chrome://tracing` or Perfetto).
//! * `--metrics-out FILE` — write a Prometheus text-format exposition
//!   of the run's counters and phase-duration histograms.
//! * `--log jsonl` — print one structured JSON log line per query to
//!   stdout (parameters, completion class, phase durations, cache
//!   hit rate).
//!
//! Every error prints a single line on stderr and maps to a stable exit
//! code so scripts can dispatch on the failure class:
//!
//! | code | class                          |
//! |------|--------------------------------|
//! | 2    | usage / invalid query          |
//! | 3    | unknown user                   |
//! | 4    | radius outside index range     |
//! | 5    | infeasible query               |
//! | 6    | deadline exceeded              |
//! | 7    | resource budget exhausted      |
//! | 8    | answer degraded (sampling)     |
//! | 9    | deadline expired before start  |
//! | 65   | persisted index corrupt        |
//! | 66   | dataset unreadable             |
//! | 69   | service overloaded (shed)      |
//! | 70   | internal error                 |
//!
//! A *tripped budget with an answer in hand* is not an error: the answer
//! is printed with its optimality-gap bound and the exit code is 0. An
//! answer rescued by the sampling rung of the degradation ladder *is*
//! flagged (exit 8 plus a stderr line): it is feasible but carries no
//! optimality bound, and scripts must be able to tell.
//!
//! Chaos testing: when built with `--features failpoints`, `--chaos-seed N`
//! installs a deterministic fault plan (every registered fail-point site
//! fires pseudo-randomly, seeded by `N`) and enables the degradation
//! ladder, so injected faults downgrade answers instead of failing them.
//!
//! ## Serving mode
//!
//! `gpq serve --data FILE [--queries FILE]` builds the indexes once and
//! answers a stream of JSONL requests — from `--queries FILE` or stdin —
//! writing one JSONL response line per request to stdout, in request
//! order, flushed as each completes. File and stdin mode share one
//! incremental line reader: input is never slurped, and a malformed line
//! yields an in-order `"status":"error"` record instead of aborting the
//! stream. Request lines look like:
//!
//! ```json
//! {"id":7,"user":11,"tau":4,"gamma":0.3,"theta":0.4,"r":2.0,"timeout_ms":250}
//! ```
//!
//! In both modes `--build-threads N` sizes the index-build worker pool
//! (`0` = all cores, the default); the built indexes are bit-identical
//! for every value, so the knob trades build wall clock only.
//!
//! Only `user` is required. `--threads N` sizes the worker pool,
//! `--queue-cap N` bounds the submission queue, and `--shed` rejects on a
//! full queue (`"code":"overloaded"`) instead of applying backpressure.
//! Budget flags set the default budget for requests that carry none.
//! Exit is 0 once the stream drains, regardless of per-request failures;
//! 74 signals an I/O error on the stream itself.
//!
//! Serving-mode observability:
//!
//! * `--telemetry-addr ADDR` — bind a live HTTP endpoint for the
//!   duration of the stream: `GET /metrics` (Prometheus), `/health`,
//!   `/slo`, and `/flight` (see `gpssn_core::telemetry`).
//! * `--metrics-out FILE`, `--slo-out FILE`, `--trace-out FILE` — dump
//!   the final metric snapshot, rolling SLO window, and tail-sampled
//!   Chrome trace when the stream ends. The dumps are written on *every*
//!   exit path — clean EOF and stream I/O error (exit 74) alike.
//! * `--slow-ms N` / `--head-rate N` — tail-sampling policy: traces of
//!   errored/shed/degraded queries are always kept, queries at least
//!   `N` ms slow are kept (`0` disables), and 1-in-`head-rate` of the
//!   boring rest survive (`0` keeps none).
//! * `--flight-cap N` — flight-recorder ring size (default 256).
//!
//! A request line `{"control":"metrics"|"slo"|"flight"}` returns the
//! same telemetry inline on stdout instead of running a query.

use gpssn_bench::cli;
use gpssn_core::{
    serve_jsonl, suggest_parameters, Completion, Counter, DegradationPolicy, EngineConfig,
    GpSsnEngine, GpSsnError, GpSsnQuery, OverloadPolicy, QueryBudget, QueryMode, QueryOptions,
    QueryOutcome, ServeConfig, ServeObs, ServeObsConfig,
};
use gpssn_obs::{FlightConfig, Obs, ObsConfig, Registry, TailConfig};
use gpssn_ssn::{load_ssn, DatasetStats, SpatialSocialNetwork};
use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: gpq --data FILE [--user N] [--tau N] [--gamma F] [--theta F] \
     [--r F] [--top-k N] [--approx SAMPLES] [--tune PCTL] [--build-threads N] \
     [--timeout-ms N] [--max-pops N] [--max-groups N] [--max-settles N] \
     [--trace-out FILE] [--metrics-out FILE] [--log jsonl] [--chaos-seed N]\n\
       gpq serve --data FILE [--queries FILE] [--threads N] [--queue-cap N] [--shed] \
     [--build-threads N] [--timeout-ms N] [--max-pops N] [--max-groups N] [--max-settles N] \
     [--telemetry-addr ADDR] [--metrics-out FILE] [--slo-out FILE] [--trace-out FILE] \
     [--slow-ms N] [--head-rate N] [--flight-cap N] [--chaos-seed N]";

fn die_usage(msg: &str) -> ! {
    cli::die_usage(&format!("gpq: {msg}"), USAGE)
}

fn exit_code(e: &GpSsnError) -> i32 {
    match e {
        GpSsnError::InvalidQuery(_) => 2,
        GpSsnError::UnknownUser { .. } => 3,
        GpSsnError::RadiusOutOfIndexRange { .. } => 4,
        GpSsnError::Infeasible { .. } => 5,
        GpSsnError::DeadlineExceeded => 6,
        GpSsnError::BudgetExhausted { .. } => 7,
        GpSsnError::DeadlineExpired => 9,
        GpSsnError::IndexCorrupt { .. } => 65,
        GpSsnError::Overloaded { .. } => 69,
        GpSsnError::Internal(_) => 70,
    }
}

/// Exit code for an answer that was degraded to the sampling baseline:
/// the result is feasible but carries no optimality bound.
const EXIT_DEGRADED: i32 = 8;

fn fail(e: &GpSsnError) -> ! {
    eprintln!("gpq: {e}");
    std::process::exit(exit_code(e));
}

/// Parses the value following flag `name`, exiting with usage on errors.
fn take<T: std::str::FromStr>(args: &[String], i: &mut usize, name: &str, what: &str) -> T {
    cli::take(args, i, name, what).unwrap_or_else(|e| die_usage(&e))
}

/// Loads the dataset (exit 66 on failure), narrating progress on
/// stderr — shared by single-query and serve mode.
fn load_dataset(data: &str) -> SpatialSocialNetwork {
    eprintln!("loading {data}...");
    let ssn = load_ssn(data).unwrap_or_else(|e| {
        eprintln!("gpq: cannot load {data}: {e}");
        std::process::exit(66);
    });
    eprintln!("  {}", DatasetStats::of(&ssn));
    ssn
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        serve_main(&args[1..]);
    }
    let mut data = String::from("dataset.ssn");
    let mut q = GpSsnQuery::with_defaults(0);
    let mut top_k = 1usize;
    let mut approx: Option<usize> = None;
    let mut tune: Option<f64> = None;
    let mut budget = QueryBudget::unlimited();
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut log_jsonl = false;
    let mut chaos_seed: Option<u64> = None;
    let mut build_threads = 0usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--data" => data = take(&args, &mut i, "--data", "a file path"),
            "--user" => q.user = take(&args, &mut i, "--user", "an id"),
            "--tau" => q.tau = take(&args, &mut i, "--tau", "an integer"),
            "--gamma" => q.gamma = take(&args, &mut i, "--gamma", "a float"),
            "--theta" => q.theta = take(&args, &mut i, "--theta", "a float"),
            "--r" => q.radius = take(&args, &mut i, "--r", "a float"),
            "--top-k" => top_k = take(&args, &mut i, "--top-k", "an integer"),
            "--approx" => approx = Some(take(&args, &mut i, "--approx", "a sample count")),
            "--tune" => tune = Some(take(&args, &mut i, "--tune", "a percentile in [0,1]")),
            "--build-threads" => {
                build_threads = take(&args, &mut i, "--build-threads", "a count (0 = all cores)")
            }
            "--timeout-ms" => {
                budget.deadline = Some(Duration::from_millis(take(
                    &args,
                    &mut i,
                    "--timeout-ms",
                    "milliseconds",
                )))
            }
            "--max-pops" => {
                budget.max_heap_pops = Some(take(&args, &mut i, "--max-pops", "a count"))
            }
            "--max-groups" => {
                budget.max_groups_enumerated = Some(take(&args, &mut i, "--max-groups", "a count"))
            }
            "--max-settles" => {
                budget.max_dijkstra_settles = Some(take(&args, &mut i, "--max-settles", "a count"))
            }
            "--trace-out" => trace_out = Some(take(&args, &mut i, "--trace-out", "a file path")),
            "--metrics-out" => {
                metrics_out = Some(take(&args, &mut i, "--metrics-out", "a file path"))
            }
            "--chaos-seed" => chaos_seed = Some(take(&args, &mut i, "--chaos-seed", "a seed")),
            "--log" => {
                let fmt: String = take(&args, &mut i, "--log", "a format (jsonl)");
                match fmt.as_str() {
                    "jsonl" => log_jsonl = true,
                    other => die_usage(&format!("--log supports jsonl, got {other:?}")),
                }
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => die_usage(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }

    let ssn = load_dataset(&data);

    if let Some(pctl) = tune {
        let tuned = suggest_parameters(&ssn, &[], pctl, 512, 7);
        q.gamma = tuned.gamma;
        q.theta = tuned.theta;
        eprintln!(
            "tuned from data distributions (pctl {pctl}): gamma={:.3} theta={:.3}",
            q.gamma, q.theta
        );
    }

    let obs = (trace_out.is_some() || metrics_out.is_some() || log_jsonl).then(|| {
        Arc::new(Obs::new(ObsConfig {
            metrics: true,
            tracing: trace_out.is_some(),
            trace_capacity: 1 << 16,
        }))
    });

    eprintln!("building indexes...");
    let engine = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            obs: obs.clone(),
            ..Default::default()
        }
        .with_build_threads(build_threads),
    );
    eprintln!(
        "  I_R {} pages, I_S {} pages",
        engine.road_index().num_pages(),
        engine.social_index().num_pages()
    );
    eprintln!("query: {q:?}");

    // Chaos: arm the fault plan only now, for the serving phase, so
    // injected faults exercise the degradation ladder rather than
    // dataset loading or index construction. The ladder is enabled so
    // faults downgrade answers instead of failing queries outright.
    let mut opts = QueryOptions::default();
    if chaos_seed.is_some() {
        opts.degradation = DegradationPolicy::Ladder;
    }
    #[cfg(feature = "failpoints")]
    let _chaos = chaos_seed.map(|seed| {
        eprintln!("chaos: fault plan armed (seed {seed}, p=0.05 per fail-point hit)");
        gpssn_failpoint::install(gpssn_failpoint::FaultPlan::uniform(seed, 0.05))
    });
    #[cfg(not(feature = "failpoints"))]
    if let Some(seed) = chaos_seed {
        eprintln!(
            "gpq: --chaos-seed {seed} has no fault plan to install: this binary was built \
             without the `failpoints` feature (rebuild with `--features failpoints`)"
        );
    }

    let sinks = TelemetrySinks {
        obs,
        trace_out,
        metrics_out,
        log_jsonl,
    };
    let path = if let Some(samples) = approx {
        opts.mode = QueryMode::Approximate { samples, seed: 7 };
        "approximate"
    } else if top_k > 1 {
        opts.mode = QueryMode::TopK(top_k);
        "top_k"
    } else {
        "exact"
    };
    let out = match engine.try_query(&q, &opts, &budget) {
        Ok(out) => out,
        Err(e) => {
            // Failed queries are when the trace matters most —
            // flush before the error exit.
            emit_telemetry(&sinks, &engine, &q, path, None);
            fail(&e)
        }
    };
    emit_telemetry(&sinks, &engine, &q, path, Some(&out));
    let code = report_completion(&out.completion);
    if let QueryMode::TopK(_) = opts.mode {
        if out.answers.is_empty() {
            println!("no feasible answers");
        }
        for (rank, ans) in out.answers.iter().enumerate() {
            println!(
                "#{}: maxdist={:.4} S={:?} R={:?}",
                rank + 1,
                ans.maxdist,
                ans.users,
                ans.pois
            );
        }
        std::process::exit(code);
    }
    let mode = match (opts.mode, &out.completion) {
        (QueryMode::Approximate { .. }, _) => "approximate",
        (_, Completion::Exact) => "exact",
        (_, Completion::DegradedSampling) => "degraded",
        _ => "anytime",
    };
    report(
        mode,
        out.answer(),
        out.metrics.counters[Counter::IoPages],
        out.metrics.cpu,
    );
    std::process::exit(code);
}

/// Where this run's telemetry goes, if anywhere.
struct TelemetrySinks {
    obs: Option<Arc<Obs>>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    log_jsonl: bool,
}

/// Flushes telemetry after the query: the cache gauges are published,
/// then the Chrome trace / Prometheus exposition files are written and
/// the JSONL log line printed. File-write failures are warnings — the
/// query result has already been computed and still gets reported.
fn emit_telemetry(
    sinks: &TelemetrySinks,
    engine: &GpSsnEngine,
    q: &GpSsnQuery,
    path: &str,
    out: Option<&QueryOutcome>,
) {
    let Some(obs) = &sinks.obs else {
        return;
    };
    engine.publish_cache_metrics();
    let snap = obs.base_registry().snapshot();
    if sinks.log_jsonl {
        println!("{}", jsonl_line(&snap, q, path, out));
    }
    if let Some(p) = &sinks.metrics_out {
        if let Err(e) = std::fs::write(p, snap.to_prometheus()) {
            eprintln!("gpq: cannot write {p}: {e}");
        } else {
            eprintln!("metrics written to {p}");
        }
    }
    if let Some(p) = &sinks.trace_out {
        let records = obs.tracer().records();
        if let Err(e) = std::fs::write(p, gpssn_obs::chrome_trace_json(&records)) {
            eprintln!("gpq: cannot write {p}: {e}");
        } else {
            eprintln!(
                "trace with {} spans written to {p} (open in chrome://tracing or Perfetto)",
                records.len()
            );
        }
    }
}

/// One structured log line: query parameters, outcome, per-phase
/// durations pulled from the registry's histograms, and cache tallies.
fn jsonl_line(
    snap: &gpssn_obs::Snapshot,
    q: &GpSsnQuery,
    path: &str,
    out: Option<&QueryOutcome>,
) -> String {
    let mut line = format!(
        "{{\"event\":\"query\",\"path\":\"{path}\",\"user\":{},\"tau\":{},\
         \"gamma\":{},\"theta\":{},\"r\":{}",
        q.user, q.tau, q.gamma, q.theta, q.radius
    );
    if let Some(out) = out {
        let class = out.completion.rung();
        line.push_str(&format!(
            ",\"completion\":\"{class}\",\"cpu_us\":{},\"io_pages\":{},\
             \"heap_pops\":{},\"dijkstra_settles\":{},\"ch_settles\":{},\
             \"cache_hit_rate\":{:.4}",
            out.metrics.cpu.as_micros(),
            out.metrics.counters[Counter::IoPages],
            out.metrics.counters[Counter::HeapPops],
            out.metrics.counters[Counter::DijkstraSettles],
            out.metrics.counters[Counter::ChSettles],
            out.metrics.counters.hit_rate(),
        ));
        match out.answer() {
            Some(ans) => line.push_str(&format!(
                ",\"maxdist\":{},\"group_size\":{},\"pois\":{}",
                ans.maxdist,
                ans.users.len(),
                ans.pois.len()
            )),
            None => line.push_str(",\"maxdist\":null"),
        }
    }
    line.push_str(",\"phases\":{");
    let mut first = true;
    for phase in [
        "prune_social",
        "prune_road",
        "refine",
        "refine_fallback",
        "sample",
    ] {
        if let Some(h) = snap.histogram("gpssn_phase_duration_ns", &[("phase", phase)]) {
            if !first {
                line.push(',');
            }
            first = false;
            line.push_str(&format!(
                "\"{phase}\":{{\"ns\":{},\"count\":{}}}",
                h.sum, h.count
            ));
        }
    }
    line.push_str("}}");
    line
}

/// A `Failed` completion is a hard error (the budget tripped before any
/// answer was verified); a truncation with an answer is reported as a
/// success carrying its optimality-gap bound. A sampling-degraded answer
/// is flagged on stderr and maps the whole run to [`EXIT_DEGRADED`] so
/// scripts can distinguish it from a bounded result. Returns the exit
/// code the run should finish with once the answer has been printed.
fn report_completion(c: &Completion) -> i32 {
    match c {
        Completion::Exact => 0,
        Completion::TruncatedWithGap(gap) => {
            println!("completion: truncated (optimum within {gap:.4} below reported maxdist)");
            0
        }
        Completion::DegradedSampling => {
            eprintln!(
                "gpq: degraded answer: exact refinement failed and the sampling baseline \
                 rescued a feasible group (no optimality bound)"
            );
            EXIT_DEGRADED
        }
        Completion::Failed(e) => fail(e),
    }
}

/// `gpq serve`: build once, answer a JSONL request stream. Never
/// returns.
fn serve_main(args: &[String]) -> ! {
    let mut data = String::from("dataset.ssn");
    let mut queries: Option<String> = None;
    let mut threads = 0usize;
    let mut queue_cap = 256usize;
    let mut shed = false;
    let mut budget = QueryBudget::unlimited();
    let mut metrics_out: Option<String> = None;
    let mut slo_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut telemetry_addr: Option<String> = None;
    let mut slow_ms: Option<u64> = None;
    let mut head_rate: Option<u64> = None;
    let mut flight_cap: Option<usize> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut build_threads = 0usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--data" => data = take(args, &mut i, "--data", "a file path"),
            "--queries" => queries = Some(take(args, &mut i, "--queries", "a file path")),
            "--threads" => threads = take(args, &mut i, "--threads", "a count (0 = all cores)"),
            "--build-threads" => {
                build_threads = take(args, &mut i, "--build-threads", "a count (0 = all cores)")
            }
            "--queue-cap" => queue_cap = take(args, &mut i, "--queue-cap", "a count"),
            "--shed" => shed = true,
            "--timeout-ms" => {
                budget.deadline = Some(Duration::from_millis(take(
                    args,
                    &mut i,
                    "--timeout-ms",
                    "milliseconds",
                )))
            }
            "--max-pops" => {
                budget.max_heap_pops = Some(take(args, &mut i, "--max-pops", "a count"))
            }
            "--max-groups" => {
                budget.max_groups_enumerated = Some(take(args, &mut i, "--max-groups", "a count"))
            }
            "--max-settles" => {
                budget.max_dijkstra_settles = Some(take(args, &mut i, "--max-settles", "a count"))
            }
            "--metrics-out" => {
                metrics_out = Some(take(args, &mut i, "--metrics-out", "a file path"))
            }
            "--slo-out" => slo_out = Some(take(args, &mut i, "--slo-out", "a file path")),
            "--trace-out" => trace_out = Some(take(args, &mut i, "--trace-out", "a file path")),
            "--telemetry-addr" => {
                telemetry_addr = Some(take(
                    args,
                    &mut i,
                    "--telemetry-addr",
                    "a bind address (host:port)",
                ))
            }
            "--slow-ms" => {
                slow_ms = Some(take(
                    args,
                    &mut i,
                    "--slow-ms",
                    "milliseconds (0 disables the slow-trace trigger)",
                ))
            }
            "--head-rate" => {
                head_rate = Some(take(
                    args,
                    &mut i,
                    "--head-rate",
                    "a 1-in-N rate (0 keeps no boring traces)",
                ))
            }
            "--flight-cap" => {
                flight_cap = Some(take(args, &mut i, "--flight-cap", "a record count"))
            }
            "--chaos-seed" => chaos_seed = Some(take(args, &mut i, "--chaos-seed", "a seed")),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => die_usage(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }

    let ssn = load_dataset(&data);
    // Tail sampling buffers spans per query, so `--trace-out` needs the
    // tracer on even without a metrics sink.
    let obs = (metrics_out.is_some() || trace_out.is_some()).then(|| {
        Arc::new(Obs::new(ObsConfig {
            metrics: metrics_out.is_some() || telemetry_addr.is_some(),
            tracing: trace_out.is_some(),
            trace_capacity: if trace_out.is_some() { 1 << 16 } else { 0 },
        }))
    });
    eprintln!("building indexes...");
    let engine = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            obs: obs.clone(),
            ..Default::default()
        }
        .with_build_threads(build_threads),
    );
    eprintln!(
        "  I_R {} pages, I_S {} pages",
        engine.road_index().num_pages(),
        engine.social_index().num_pages()
    );

    let mut options = QueryOptions::default();
    if chaos_seed.is_some() {
        // Same posture as single-query chaos: the ladder downgrades
        // fault-hit requests instead of failing them.
        options.degradation = DegradationPolicy::Ladder;
    }
    #[cfg(feature = "failpoints")]
    let _chaos = chaos_seed.map(|seed| {
        eprintln!("chaos: fault plan armed (seed {seed}, p=0.05 per fail-point hit)");
        gpssn_failpoint::install(gpssn_failpoint::FaultPlan::uniform(seed, 0.05))
    });
    #[cfg(not(feature = "failpoints"))]
    if let Some(seed) = chaos_seed {
        eprintln!(
            "gpq: --chaos-seed {seed} has no fault plan to install: this binary was built \
             without the `failpoints` feature (rebuild with `--features failpoints`)"
        );
    }

    let defaults = TailConfig::default();
    let obs_cfg = ServeObsConfig {
        flight: FlightConfig {
            capacity: flight_cap.unwrap_or_else(|| FlightConfig::default().capacity),
        },
        tail: TailConfig {
            latency_threshold: match slow_ms {
                Some(0) => None,
                Some(ms) => Some(Duration::from_millis(ms)),
                None => defaults.latency_threshold,
            },
            head_rate: head_rate.unwrap_or(defaults.head_rate),
            seed: chaos_seed.unwrap_or(defaults.seed),
        },
        ..Default::default()
    };
    let tele = Arc::new(ServeObs::new(&obs_cfg));
    let cfg = ServeConfig {
        threads,
        queue_capacity: queue_cap,
        default_budget: budget,
        options,
        overload: if shed {
            OverloadPolicy::Shed
        } else {
            OverloadPolicy::Block
        },
        telemetry: Arc::clone(&tele),
        telemetry_addr: telemetry_addr.clone(),
    };
    // One incremental line reader serves both modes: a request file and
    // stdin are the same stream to `serve_jsonl`.
    let reader: Box<dyn BufRead> = match &queries {
        Some(path) => {
            let f = std::fs::File::open(path).unwrap_or_else(|e| {
                eprintln!("gpq: cannot open {path}: {e}");
                std::process::exit(66);
            });
            Box::new(std::io::BufReader::new(f))
        }
        None => {
            eprintln!("serving: reading JSONL requests from stdin (one object per line)");
            Box::new(std::io::stdin().lock())
        }
    };
    // Announce the bound telemetry address (resolved inside `serve`,
    // useful with a `:0` port) or the bind failure, from a detached
    // poller so the serve loop itself stays print-free.
    if telemetry_addr.is_some() {
        let tele = Arc::clone(&tele);
        std::thread::spawn(move || {
            for _ in 0..500 {
                if let Some(addr) = tele.telemetry_addr() {
                    eprintln!(
                        "telemetry: listening on http://{addr} (/metrics /health /slo /flight)"
                    );
                    return;
                }
                if let Some(e) = tele.listener_error() {
                    eprintln!("gpq: telemetry listener never started: {e}");
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
    }
    let sinks = ServeSinks {
        metrics_out,
        slo_out,
        trace_out,
    };
    let stats = match serve_jsonl(&engine, &cfg, reader, std::io::stdout()) {
        Ok(stats) => stats,
        Err(e) => {
            // A broken stream must not lose the telemetry already
            // gathered: flush everything before the 74 exit.
            eprintln!("gpq: serve stream I/O error: {e}");
            flush_serve_telemetry(&sinks, &engine, &obs, &tele);
            std::process::exit(74);
        }
    };
    eprintln!(
        "served: {} submitted, {} ran, {} shed expired, {} shed overloaded, {} malformed",
        stats.submitted, stats.served, stats.shed_expired, stats.shed_overloaded, stats.rejected
    );
    flush_serve_telemetry(&sinks, &engine, &obs, &tele);
    std::process::exit(0);
}

/// Where `gpq serve` dumps its telemetry when the stream ends — cleanly
/// or not.
struct ServeSinks {
    metrics_out: Option<String>,
    slo_out: Option<String>,
    trace_out: Option<String>,
}

/// Writes every requested telemetry artifact. Called on *all* serve
/// exits (clean EOF and stream I/O error alike): partial telemetry from
/// a crashed stream is exactly what the post-mortem needs. Write
/// failures are warnings — the exit code belongs to the stream.
fn flush_serve_telemetry(
    sinks: &ServeSinks,
    engine: &GpSsnEngine,
    obs: &Option<Arc<Obs>>,
    tele: &ServeObs,
) {
    if let Some(p) = &sinks.metrics_out {
        // Same snapshot the /metrics route serves: the engine registry
        // refreshed with cache + serve-layer series when a sink is
        // attached, else a scratch registry with just the serve layer.
        let snap = match obs {
            Some(obs) => {
                engine.publish_cache_metrics();
                tele.publish(obs.base_registry());
                obs.base_registry().snapshot()
            }
            None => {
                let reg = Registry::new();
                tele.publish(&reg);
                reg.snapshot()
            }
        };
        if let Err(e) = std::fs::write(p, snap.to_prometheus()) {
            eprintln!("gpq: cannot write {p}: {e}");
        } else {
            eprintln!("metrics written to {p}");
        }
    }
    if let Some(p) = &sinks.slo_out {
        let line = format!("{}\n", tele.slo().to_json(tele.slo().now_ns()));
        if let Err(e) = std::fs::write(p, line) {
            eprintln!("gpq: cannot write {p}: {e}");
        } else {
            eprintln!("SLO window written to {p}");
        }
    }
    if let Some(p) = &sinks.trace_out {
        let records = obs
            .as_ref()
            .map(|o| o.tracer().records())
            .unwrap_or_default();
        if let Err(e) = std::fs::write(p, gpssn_obs::chrome_trace_json(&records)) {
            eprintln!("gpq: cannot write {p}: {e}");
        } else {
            let (outcome, slow, head, dropped) = tele.tail().stats();
            eprintln!(
                "trace with {} spans written to {p} (tail sampling kept \
                 {outcome} by outcome, {slow} slow, {head} head; dropped {dropped})",
                records.len()
            );
        }
    }
}

fn report(mode: &str, answer: Option<&gpssn_core::GpSsnAnswer>, io: u64, cpu: std::time::Duration) {
    match answer {
        Some(ans) => println!(
            "{mode} answer: maxdist={:.4} S={:?} R={:?}",
            ans.maxdist, ans.users, ans.pois
        ),
        None => println!("{mode}: no feasible answer"),
    }
    println!("cost: {cpu:.2?}, {io} page accesses");
}
