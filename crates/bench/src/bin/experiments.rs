//! Experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p gpssn-bench --bin experiments -- all
//! cargo run --release -p gpssn-bench --bin experiments -- fig8 fig9 --scale 0.2
//! ```
//!
//! Flags: `--scale <f64>` (dataset scale, default 0.1), `--seed <u64>`,
//! `--queries <n>` (queries averaged per point, default 5).

use gpssn_bench::cli;
use gpssn_bench::experiments::{fig7, fig8, sweeps, tables};
use gpssn_bench::runner::ExperimentContext;

const ALL: &[&str] = &[
    "table1",
    "table2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "appP-theta",
    "appP-r",
    "appP-gamma",
    "appP-pivots",
    "appP-vs",
    "cache",
];

fn die_usage(msg: &str) -> ! {
    let usage =
        format!("usage: experiments [IDS...] [--scale F] [--seed N] [--queries N]  (ids: {ALL:?})");
    cli::die_usage(&format!("experiments: {msg}"), &usage)
}

/// Parses the value following flag `name`, exiting with usage on errors.
fn take<T: std::str::FromStr>(args: &[String], i: &mut usize, name: &str, what: &str) -> T {
    cli::take(args, i, name, what).unwrap_or_else(|e| die_usage(&e))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = ExperimentContext::default();
    if let Ok(s) = std::env::var("GPSSN_SCALE") {
        ctx.scale = s
            .parse()
            .unwrap_or_else(|_| die_usage(&format!("GPSSN_SCALE must be a float, got {s:?}")));
    }
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => ctx.scale = take(&args, &mut i, "--scale", "a float"),
            "--seed" => ctx.seed = take(&args, &mut i, "--seed", "an integer"),
            "--queries" => ctx.queries_per_point = take(&args, &mut i, "--queries", "an integer"),
            flag if flag.starts_with("--") => die_usage(&format!("unknown flag {flag:?}")),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() || ids.iter().any(|s| s == "all") {
        ids = ALL.iter().map(|s| s.to_string()).collect();
    }
    println!(
        "GP-SSN experiment harness  (scale {}, seed {}, {} queries/point)",
        ctx.scale, ctx.seed, ctx.queries_per_point
    );
    for id in &ids {
        run(id, &ctx);
    }
}

fn run(id: &str, ctx: &ExperimentContext) {
    match id {
        "table1" => {
            for t in tables::table1() {
                t.print();
            }
        }
        "table2" => tables::table2(ctx).print(),
        "fig7" | "fig7a" | "fig7b" | "fig7c" | "fig7d" => {
            for t in fig7::fig7(ctx) {
                t.print();
            }
        }
        "fig8" => fig8::fig8(ctx).print(),
        "fig9" => sweeps::fig9(ctx).print(),
        "fig10" => sweeps::fig10(ctx).print(),
        "fig11" => sweeps::fig11(ctx).print(),
        "appP-theta" => sweeps::app_p_theta(ctx).print(),
        "appP-r" => sweeps::app_p_r(ctx).print(),
        "appP-gamma" => sweeps::app_p_gamma(ctx).print(),
        "appP-pivots" => sweeps::app_p_pivots(ctx).print(),
        "appP-vs" => sweeps::app_p_vs(ctx).print(),
        "cache" => sweeps::cache_sweep(ctx).print(),
        other => die_usage(&format!("unknown experiment id: {other}")),
    }
}
