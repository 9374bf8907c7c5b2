//! The engine's measurement artifacts, one subcommand each:
//!
//! | subcommand | artifact | gate checked before any number is written |
//! |---|---|---|
//! | `report ch` | `BENCH_ch.json` | CH answers bitwise equal to Dijkstra, and symmetric |
//! | `report obs` | `BENCH_obs.json` | `GPSSN_OBS_ASSERT=1`: the 1% telemetry budget |
//! | `report serve` | `BENCH_serve.json` | the batch bit-identical to sequential |
//! | `report build` | `BENCH_build.json` | the index bytes identical at every thread count |
//!
//! ```text
//! cargo run --release -p gpssn-bench --bin report -- <ch|obs|serve|build> [FLAGS]
//! ```
//!
//! `report <sub> --help` prints a subcommand's flags. Every flag takes
//! one value and `--out FILE` names the JSON artifact.

mod build;
mod ch;
mod obs;
mod serve;

use gpssn_bench::cli;
use std::time::Instant;

const USAGE: &str =
    "usage: report <ch|obs|serve|build> [FLAGS]  (report <sub> --help lists its flags)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("ch") => ch::run(rest),
        Some("obs") => obs::run(rest),
        Some("serve") => serve::run(rest),
        Some("build") => build::run(rest),
        Some("--help" | "-h") => eprintln!("{USAGE}"),
        Some(other) => cli::die_usage(&format!("unknown subcommand {other:?}"), USAGE),
        None => cli::die_usage("missing subcommand", USAGE),
    }
}

/// Median wall-clock seconds of `reps` runs of `f` (the first run
/// discarded as warm-up when `reps > 1`); `reps = 1` times one pass.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    if times.len() > 1 {
        times.remove(0);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// This machine's core count, as the artifacts record it.
fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Writes a finished artifact to `out`.
fn write_json(out: &str, json: &str) {
    std::fs::write(out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("wrote {out}");
}
