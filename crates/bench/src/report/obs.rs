//! Telemetry-overhead report distilled into `BENCH_obs.json`: wall
//! time of a ≥200-query corpus under the four `Obs` configurations
//! (absent, attached-but-disabled, metrics-only, metrics+tracing),
//! plus the relative overhead of each against the no-`Obs` baseline.
//!
//! A fifth configuration, `flight_tail`, measures the always-on
//! continuous serve layer: the disabled-`Obs` engine plus exactly the
//! per-request work a serve worker adds — one clock read, a rolling SLO
//! window record, a tail-sampling decision, and a flight-recorder ring
//! push. Its `vs_disabled_pct` is the cost of the always-on recorder
//! over the PR-4 disabled baseline, and `GPSSN_OBS_ASSERT=1` turns the
//! 1% budget on both `disabled` and `flight_tail` into hard assertions.
//!
//! Passes are interleaved round-robin across the configurations and
//! the per-config minimum is kept, so slow machine drift cancels out
//! of the overhead ratios.
//!
//! ```text
//! report obs [--scale F] [--seed N] [--reps N] [--out BENCH_obs.json]
//! ```

use super::{median_secs, write_json};
use gpssn_bench::cli::{parse_flags, take};
use gpssn_bench::run_query;
use gpssn_core::{EngineConfig, GpSsnEngine, GpSsnQuery, QueryOptions, QueryOutcome};
use gpssn_obs::{
    FlightConfig, FlightRecord, FlightRecorder, Obs, ObsConfig, ServeClass, SloConfig, SloMonitor,
    TailConfig, TailSampler, WindowConfig,
};
use gpssn_ssn::{DatasetKind, SpatialSocialNetwork};
use std::sync::Arc;

/// A named timed pass over the corpus.
type Pass<'a> = (&'a str, Box<dyn Fn() + 'a>);

/// The ≥200-query corpus: the refinement suite's parameter grid over
/// four seeds (3 group sizes x 3 gammas x 2 thetas x 3 radii x 4).
fn corpus(ssn: &SpatialSocialNetwork) -> Vec<GpSsnQuery> {
    let m = ssn.social().num_users() as u32;
    let mut qs = Vec::new();
    for seed in 0..4u32 {
        for (qi, &tau) in [1usize, 2, 3].iter().enumerate() {
            for (gi, &gamma) in [0.2, 0.5, 0.8].iter().enumerate() {
                for &theta in &[0.2, 0.6] {
                    for &radius in &[1.0, 2.0, 3.0] {
                        let user = (seed + qi as u32 * 7 + gi as u32 * 3) % m;
                        qs.push(GpSsnQuery {
                            user,
                            tau,
                            gamma,
                            theta,
                            radius,
                        });
                    }
                }
            }
        }
    }
    qs
}

fn run_corpus(eng: &GpSsnEngine, queries: &[GpSsnQuery]) {
    for q in queries {
        std::hint::black_box(run_query(eng, q, &QueryOptions::default()));
    }
}

/// The always-on continuous layer a serve worker threads around each
/// request, shared by the `flight_tail` configuration's passes.
struct Continuous {
    flight: FlightRecorder,
    tail: TailSampler,
    slo: SloMonitor,
}

impl Continuous {
    fn new() -> Self {
        Continuous {
            flight: FlightRecorder::new(&FlightConfig::default()),
            tail: TailSampler::new(&TailConfig::default()),
            slo: SloMonitor::new(&WindowConfig::default(), SloConfig::default()),
        }
    }

    /// Exactly the per-request bookkeeping `serve`'s `record_completion`
    /// does for a successful query: clock read, SLO record, tail
    /// decision, flight push.
    fn record(&self, seq: u64, out: &QueryOutcome) {
        let m = &out.metrics;
        let latency_ns = m.cpu.as_nanos().min(u64::MAX as u128) as u64;
        let now_ns = self.slo.now_ns();
        self.slo.record(now_ns, latency_ns, 0, ServeClass::Ok);
        let decision = self.tail.decide(latency_ns, false);
        self.flight.record(FlightRecord {
            id: 0, // reassigned by the recorder
            seq,
            class: "ok",
            completion: "exact",
            code: "",
            backend: "",
            end_ns: now_ns,
            total_ns: latency_ns,
            queue_wait_ns: 0,
            counters: m.counters.iter().map(|(c, v)| (c.key(), v)).collect(),
            phases: Vec::new(),
            trace_committed: decision.keep(),
        });
    }
}

fn run_recorded(eng: &GpSsnEngine, queries: &[GpSsnQuery], cont: &Continuous) {
    for (i, q) in queries.iter().enumerate() {
        let out = std::hint::black_box(run_query(eng, q, &QueryOptions::default()));
        cont.record(i as u64, &out);
    }
}

const USAGE: &str = "usage: report obs [--scale F] [--seed N] [--reps N] [--out FILE]";

pub fn run(args: &[String]) {
    let mut scale = 0.05f64;
    let mut seed = 42u64;
    let mut reps = 9usize;
    let mut out = String::from("BENCH_obs.json");
    parse_flags(args, USAGE, |flag, i| {
        match flag {
            "--scale" => scale = take(args, i, flag, "a float")?,
            "--seed" => seed = take(args, i, flag, "an integer")?,
            "--reps" => reps = take(args, i, flag, "an integer")?,
            "--out" => out = take(args, i, flag, "a file path")?,
            _ => return Ok(false),
        }
        Ok(true)
    });

    let ssn = DatasetKind::Uni.build(scale, seed);
    let queries = corpus(&ssn);
    eprintln!(
        "dataset Uni scale {scale}: {} users, {} POIs; corpus {} queries",
        ssn.social().num_users(),
        ssn.pois().len(),
        queries.len()
    );

    let configs: [(&str, Option<Arc<Obs>>); 4] = [
        ("none", None),
        ("disabled", Some(Arc::new(Obs::disabled()))),
        ("metrics", Some(Arc::new(Obs::with_metrics()))),
        (
            "full",
            Some(Arc::new(Obs::new(ObsConfig {
                metrics: true,
                tracing: true,
                trace_capacity: 1 << 16,
            }))),
        ),
    ];
    let engines: Vec<(&str, GpSsnEngine<'_>)> = configs
        .into_iter()
        .map(|(name, obs)| {
            let eng = GpSsnEngine::build(
                &ssn,
                EngineConfig {
                    obs,
                    ..Default::default()
                },
            );
            run_corpus(&eng, &queries); // warm the cross-query cache
            (name, eng)
        })
        .collect();
    // The continuous-layer configuration rides on the disabled engine
    // (PR-4's attached-but-off baseline) plus the serve worker's
    // per-request recording.
    let cont = Continuous::new();
    let disabled_eng = &engines[1].1;
    let queries = &queries;
    let passes: Vec<Pass<'_>> = engines
        .iter()
        .map(|(name, eng)| {
            let f: Box<dyn Fn() + '_> = Box::new(move || run_corpus(eng, queries));
            (*name, f)
        })
        .chain(std::iter::once((
            "flight_tail",
            Box::new(|| run_recorded(disabled_eng, queries, &cont)) as Box<dyn Fn() + '_>,
        )))
        .collect();
    // Interleave passes round-robin across configurations so slow
    // machine drift (thermal, co-tenant noise) hits every config
    // equally, and keep the per-config minimum — the least-perturbed
    // pass, the standard noise-robust estimator for overhead ratios.
    let mut best = vec![f64::INFINITY; passes.len()];
    for _ in 0..reps {
        for (i, (_, pass)) in passes.iter().enumerate() {
            best[i] = best[i].min(median_secs(1, pass));
        }
    }
    let mut secs = Vec::new();
    for ((name, _), t) in passes.iter().zip(best) {
        eprintln!("{name:>11}: {t:.4}s");
        secs.push((*name, t));
    }
    let base = secs[0].1;
    let disabled = secs[1].1;
    let mut fields = String::new();
    for (name, t) in &secs {
        fields.push_str(&format!(
            "  \"{name}\": {{\"secs\": {t:.6}, \"overhead_pct\": {:.3}}},\n",
            (t / base - 1.0) * 100.0
        ));
    }
    // The recorder's own cost: always-on continuous layer (the last
    // pass) over the disabled baseline it wraps.
    let flight_tail = secs[4].1;
    let recorder_pct = (flight_tail / disabled - 1.0) * 100.0;
    let json = format!(
        "{{\n  \"dataset\": {{\"kind\": \"Uni\", \"scale\": {scale}, \"seed\": {seed}, \
         \"queries\": {}}},\n{fields}  \"flight_tail_vs_disabled_pct\": {recorder_pct:.3},\n  \
         \"budget\": {{\"disabled_overhead_limit_pct\": 1.0, \
         \"flight_tail_vs_disabled_limit_pct\": 1.0}}\n}}\n",
        queries.len()
    );
    write_json(&out, &json);
    if std::env::var_os("GPSSN_OBS_ASSERT").is_some() {
        let disabled_pct = (disabled / base - 1.0) * 100.0;
        assert!(
            disabled_pct < 1.0,
            "disabled Obs overhead {disabled_pct:.3}% breaches the 1% budget"
        );
        assert!(
            recorder_pct < 1.0,
            "flight recorder + tail sampler overhead {recorder_pct:.3}% over the \
             disabled baseline breaches the 1% budget"
        );
        eprintln!(
            "asserted: disabled {disabled_pct:.3}% < 1%, flight_tail vs disabled \
             {recorder_pct:.3}% < 1%"
        );
    }
}
