//! Batch-scheduling report distilled into `BENCH_serve.json`: how the
//! work-pulling batch (`GpSsnEngine::try_query_batch`, which runs on the
//! `serve()` worker pool) compares to static chunking on a skewed
//! 64-query batch.
//!
//! The batch front-loads a handful of expensive large-radius queries
//! into the first contiguous chunk — the adversarial case for static
//! chunking, where one worker inherits every heavy query while the
//! rest go idle. The report records, per thread count:
//!
//! * **measured wall-clock** of the batch (honest numbers — not a
//!   speedup when the machine has fewer cores than workers);
//! * **simulated makespan** from the *measured per-query sequential
//!   costs*: static chunking's makespan is the largest per-chunk cost
//!   sum, work pulling's is greedy list scheduling in submission order
//!   (each next query goes to the earliest-free worker — the shared
//!   queue's discipline). On a machine with ≥`threads` real cores the
//!   simulated makespan *is* the wall-clock, so this is the
//!   apples-to-apples comparison a small machine cannot measure
//!   directly. Static chunking is simulated only; no code path runs it.
//!
//! Every batch is asserted bit-identical to the sequential run before
//! any number is reported.
//!
//! ```text
//! report serve [--scale F] [--seed N] [--out BENCH_serve.json]
//! ```

use super::{cores, median_secs, write_json};
use gpssn_bench::cli::{parse_flags, take};
use gpssn_core::{EngineConfig, GpSsnEngine, GpSsnQuery, QueryBudget, QueryOptions, QueryOutcome};
use gpssn_ssn::DatasetKind;

/// The skewed 64-query batch: `HEAVY` large-radius queries first (all
/// land in worker 0's chunk under static chunking), then cheap
/// small-radius ones.
const BATCH: usize = 64;
const HEAVY: usize = 4;

fn skewed_batch(num_users: u32) -> Vec<GpSsnQuery> {
    let mut qs = Vec::with_capacity(BATCH);
    for i in 0..BATCH as u32 {
        let mut q = GpSsnQuery::with_defaults(i * 7 % num_users);
        if (i as usize) < HEAVY {
            // Refinement-heavy settings (cf. benches/refinement.rs):
            // large radius, large group, permissive thresholds.
            q.radius = 3.5;
            q.tau = 5;
            q.gamma = 0.2;
            q.theta = 0.2;
        } else {
            q.radius = 0.6;
            q.tau = 2;
        }
        qs.push(q);
    }
    qs
}

/// Largest per-chunk cost sum: static chunking's idealized makespan.
fn static_makespan(costs: &[f64], threads: usize) -> f64 {
    let chunk = costs.len().div_ceil(threads);
    costs
        .chunks(chunk)
        .map(|c| c.iter().sum())
        .fold(0.0f64, f64::max)
}

/// Greedy list scheduling in submission order: work pulling's
/// idealized makespan (each next query goes to the earliest-free
/// worker).
fn stealing_makespan(costs: &[f64], threads: usize) -> f64 {
    let mut free_at = vec![0.0f64; threads];
    for &c in costs {
        let w = free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        free_at[w] += c;
    }
    free_at.into_iter().fold(0.0f64, f64::max)
}

fn same_outcomes(
    a: &[Result<QueryOutcome, gpssn_core::GpSsnError>],
    b: &[Result<QueryOutcome, gpssn_core::GpSsnError>],
) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Ok(ox), Ok(oy)) => ox.answers == oy.answers,
            (Err(_), Err(_)) => true,
            _ => false,
        })
}

const USAGE: &str = "usage: report serve [--scale F] [--seed N] [--out FILE]";

pub fn run(args: &[String]) {
    let mut scale = 0.05f64;
    let mut seed = 42u64;
    let mut out = String::from("BENCH_serve.json");
    parse_flags(args, USAGE, |flag, i| {
        match flag {
            "--scale" => scale = take(args, i, flag, "a float")?,
            "--seed" => seed = take(args, i, flag, "an integer")?,
            "--out" => out = take(args, i, flag, "a file path")?,
            _ => return Ok(false),
        }
        Ok(true)
    });

    let ssn = DatasetKind::Uni.build(scale, seed);
    let queries = skewed_batch(ssn.social().num_users() as u32);
    eprintln!(
        "dataset Uni scale {scale}: {} users; batch {} queries ({} heavy first, rest cheap)",
        ssn.social().num_users(),
        queries.len(),
        HEAVY
    );
    // The cross-query distance cache is disabled: a warm cache
    // flattens the very cost skew this report exists to measure (the
    // first pass would pre-answer the heavy queries' Dijkstra work for
    // every later pass). Scheduling behavior is identical either way —
    // the cache sits below the scheduler.
    let engine = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            distance_cache: None,
            ..Default::default()
        },
    );
    let opts = QueryOptions::default();
    let budget = QueryBudget::unlimited();

    // Warm-up pass, then measure per-query sequential costs — the
    // inputs to the makespan simulation.
    std::hint::black_box(engine.try_query_batch(&queries, 1, &opts, &budget));
    let measured: Vec<f64> = queries
        .iter()
        .map(|q| median_secs(1, || engine.try_query(q, &opts, &budget).ok()))
        .collect();
    // Submission order for the comparison: heaviest first. This is the
    // adversarial arrangement for static chunking (the heaviest
    // queries all land in the first worker's chunk) and matches how a
    // cost-aware client would submit; work-stealing needs no such
    // knowledge — greedy pulling handles any order.
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by(|&a, &b| measured[b].total_cmp(&measured[a]));
    let queries: Vec<GpSsnQuery> = order.iter().map(|&i| queries[i].clone()).collect();
    let costs: Vec<f64> = order.iter().map(|&i| measured[i]).collect();
    let baseline: Vec<_> = queries
        .iter()
        .map(|q| engine.try_query(q, &opts, &budget))
        .collect();
    let sequential: f64 = costs.iter().sum();
    let heavy_cost: f64 = costs[..HEAVY].iter().sum();
    eprintln!(
        "sequential: {sequential:.3}s total; top-{HEAVY} queries {:.1}% of it, heaviest {:.3}s",
        100.0 * heavy_cost / sequential,
        costs[0]
    );

    let mut rows = Vec::new();
    for &threads in &[2usize, 4, 8] {
        let mut steal = Vec::new();
        let steal_wall = median_secs(1, || {
            steal = engine.try_query_batch(&queries, threads, &opts, &budget);
        });
        assert!(
            same_outcomes(&baseline, &steal),
            "the batch must be bit-identical to sequential"
        );
        let sim_static = static_makespan(&costs, threads);
        let sim_steal = stealing_makespan(&costs, threads);
        eprintln!(
            "threads {threads}: simulated makespan static {sim_static:.3}s vs stealing {sim_steal:.3}s \
             ({:.2}x); measured batch wall {steal_wall:.3}s",
            sim_static / sim_steal
        );
        rows.push(format!(
            "{{\"threads\":{threads},\"sim_static_s\":{sim_static:.6},\"sim_stealing_s\":{sim_steal:.6},\
             \"sim_speedup\":{:.4},\"wall_stealing_s\":{steal_wall:.6}}}",
            sim_static / sim_steal
        ));
    }

    let json = format!(
        "{{\"bench\":\"serve\",\"dataset\":\"uni\",\"scale\":{scale},\"seed\":{seed},\
         \"batch\":{BATCH},\"heavy\":{HEAVY},\"sequential_s\":{sequential:.6},\
         \"heavy_fraction\":{:.4},\"cores\":{},\"rows\":[{}]}}\n",
        heavy_cost / sequential,
        cores(),
        rows.join(","),
    );
    write_json(&out, &json);
}
