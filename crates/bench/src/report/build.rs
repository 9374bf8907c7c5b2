//! Index-build pipeline report distilled into `BENCH_build.json`: what
//! the parallel deterministic builders buy, stage by stage.
//!
//! The report first proves the tentpole invariant, then prices it:
//!
//! * **Determinism gate** — the full road-index pipeline (Algorithm 1
//!   pivot selection, pivot tables, POI augmentation, STR packing, CH
//!   contraction) is built at every
//!   thread count in `{1, 2, 4, 8, 0}` (`0` = all cores) and serialized;
//!   the byte streams must be identical (one CRC-32 reported for all of
//!   them) and the social index must match node-for-node. The gate runs
//!   **before** any number is reported — a report about builds that
//!   disagree would be meaningless.
//! * **Measured per-stage wall clock** at one thread — the honest
//!   sequential cost of each pipeline stage, straight from
//!   [`gpssn_index::BuildStages`].
//! * **Simulated makespan** per thread count, from those measured costs:
//!   each data-parallel stage divides over `min(threads, ceil(items /
//!   floor))` workers with the builders' actual chunk rounding; the CH
//!   stage uses its *measured* parallel/sequential split
//!   ([`gpssn_graph::ChBuildStats::par_ns`] clocks the fan-out sections,
//!   the remainder is the inherently sequential select/merge); stages
//!   the simulation cannot attribute (Algorithm 1, whose swap
//!   evaluations compute at most one new column each, STR packing, node
//!   aggregation, partition bookkeeping) are counted fully sequential —
//!   the model
//!   *understates* the real speedup. On a machine with ≥`threads` real
//!   cores the simulated makespan is the wall clock this single-core
//!   container cannot measure directly (same discipline as
//!   `report serve` / BENCH.md §serve); measured wall clocks are still
//!   reported for honesty.
//!
//! ```text
//! report build [--scale F] [--seed N] [--out BENCH_build.json]
//! ```
//!
//! CI determinism mode — build once (pivot selection included) at a
//! fixed thread count and dump the serialized index (the workflow builds
//! at 1 and 4 threads and diffs the files):
//!
//! ```text
//! report build --threads N --index-out road_index.bin [--scale F] [--seed N]
//! ```

use super::{cores, write_json};
use gpssn_bench::cli::{parse_flags, take};
use gpssn_index::build::PAR_FLOOR;
use gpssn_index::{
    select_road_pivots, select_social_pivots, write_road_index, BuildStages, PivotSelectConfig,
    RoadIndex, RoadIndexConfig, SocialIndex, SocialIndexConfig,
};
use gpssn_road::RoadPivots;
use gpssn_social::SocialPivots;
use gpssn_ssn::{DatasetKind, SpatialSocialNetwork};
use std::time::{Duration, Instant};

/// Pivot counts `h` / `l` (the engine defaults).
const NUM_PIVOTS: usize = 5;
/// One simulation row: stage name, measured sequential cost, and —
/// for chunk-parallel stages — the divisible item count and chunk
/// floor (`None` = counted fully sequential).
type StageRow = (&'static str, f64, Option<(usize, usize)>);

/// One full pipeline build at `threads` workers: road pivot selection
/// and tables, `I_R`, social pivot selection and tables, `I_S` — the
/// engine's build path, with selection timed apart from the tables.
struct PipelineBuild {
    road: RoadIndex,
    social: SocialIndex,
    road_stages: BuildStages,
    social_stages: BuildStages,
    road_select_s: f64,
    road_pivots_s: f64,
    social_select_s: f64,
    social_pivots_s: f64,
    wall_s: f64,
}

fn build_pipeline(ssn: &SpatialSocialNetwork, threads: usize) -> PipelineBuild {
    let ps = PivotSelectConfig {
        count: NUM_PIVOTS,
        ..Default::default()
    };
    let t_all = Instant::now();
    let t0 = Instant::now();
    let road_pivot_ids = select_road_pivots(ssn.road(), &ps, threads);
    let road_select_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let road_pivots = RoadPivots::new_with_threads(ssn.road(), road_pivot_ids, threads);
    let road_pivots_s = t0.elapsed().as_secs_f64();

    let (road, road_stages) = RoadIndex::build_with_stages(
        ssn.road(),
        ssn.pois(),
        road_pivots,
        RoadIndexConfig::default(),
        threads,
    );

    let t0 = Instant::now();
    let social_pivot_ids = select_social_pivots(ssn.social(), &ps, threads);
    let social_select_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let social_pivots = SocialPivots::new_with_threads(ssn.social(), social_pivot_ids, threads);
    let social_pivots_s = t0.elapsed().as_secs_f64();

    let (social, social_stages) = SocialIndex::build_with_stages(
        ssn,
        social_pivots,
        road.pivots(),
        &SocialIndexConfig::default(),
        threads,
    );
    PipelineBuild {
        road,
        social,
        road_stages,
        social_stages,
        road_select_s,
        road_pivots_s,
        social_select_s,
        social_pivots_s,
        wall_s: t_all.elapsed().as_secs_f64(),
    }
}

fn serialize_road(idx: &RoadIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_road_index(idx, &mut bytes).expect("serialize road index");
    bytes
}

/// Social indexes compared through their public surface: shape plus
/// every node's full debug rendering (MBRs, keyword unions, pivot
/// bounds, children) and both per-user pivot tables, bit for bit.
fn same_social(a: &SocialIndex, b: &SocialIndex, num_users: usize) -> bool {
    if a.root() != b.root() || a.height() != b.height() || a.num_pages() != b.num_pages() {
        return false;
    }
    if (0..a.num_pages() as u32)
        .any(|id| format!("{:?}", a.node(id)) != format!("{:?}", b.node(id)))
    {
        return false;
    }
    (0..num_users as u32).all(|u| {
        a.user_sn_dists(u) == b.user_sn_dists(u)
            && a.user_rn_dists(u)
                .iter()
                .zip(b.user_rn_dists(u))
                .all(|(x, y)| x.to_bits() == y.to_bits())
    })
}

/// Simulated makespan of a chunk-parallel stage: the builders assign
/// `ceil(items / workers)` contiguous items to each of
/// `min(threads, ceil(items / floor))` workers, so the critical path is
/// the largest chunk at the measured per-item cost.
fn sim_chunked(cost_s: f64, items: usize, floor: usize, threads: usize) -> f64 {
    if items == 0 || threads <= 1 {
        return cost_s;
    }
    let workers = threads.min(items.div_ceil(floor)).max(1);
    let chunk = items.div_ceil(workers);
    cost_s * chunk as f64 / items as f64
}

const USAGE: &str = "usage: report build [--scale F] [--seed N] [--out FILE]\n\
                     \x20      report build --threads N --index-out FILE [--scale F] [--seed N]";

pub fn run(args: &[String]) {
    let mut scale = 0.05f64;
    let mut seed = 42u64;
    let mut out = String::from("BENCH_build.json");
    let mut threads_mode: Option<usize> = None;
    let mut index_out: Option<String> = None;
    parse_flags(args, USAGE, |flag, i| {
        match flag {
            "--scale" => scale = take(args, i, flag, "a float")?,
            "--seed" => seed = take(args, i, flag, "an integer")?,
            "--out" => out = take(args, i, flag, "a file path")?,
            "--threads" => threads_mode = Some(take(args, i, flag, "a count (0 = all)")?),
            "--index-out" => index_out = Some(take(args, i, flag, "a file path")?),
            _ => return Ok(false),
        }
        Ok(true)
    });

    let ssn = DatasetKind::Uni.build(scale, seed);
    let n_pois = ssn.pois().len();
    let m_users = ssn.social().num_users();
    eprintln!("dataset Uni scale {scale}: {n_pois} POIs, {m_users} users");

    // CI determinism mode: one build, dump the serialized index, done.
    if let Some(path) = index_out {
        let threads = threads_mode.unwrap_or(1);
        let b = build_pipeline(&ssn, threads);
        let bytes = serialize_road(&b.road);
        let crc = gpssn_index::crc32::crc32(&bytes);
        std::fs::write(&path, &bytes).expect("write index file");
        eprintln!(
            "threads {threads}: {} bytes, crc32 {crc:#010x} -> {path}",
            bytes.len()
        );
        return;
    }

    // Determinism gate: every thread count must serialize to the same
    // bytes (and the same social index) before any cost is reported.
    let thread_counts = [1usize, 2, 4, 8, 0];
    let builds: Vec<_> = thread_counts
        .iter()
        .map(|&t| (t, build_pipeline(&ssn, t)))
        .collect();
    let baseline_bytes = serialize_road(&builds[0].1.road);
    let crc = gpssn_index::crc32::crc32(&baseline_bytes);
    for (t, b) in &builds[1..] {
        assert_eq!(
            serialize_road(&b.road),
            baseline_bytes,
            "road index bytes diverge at threads={t}"
        );
        assert!(
            same_social(&b.social, &builds[0].1.social, m_users),
            "social index diverges at threads={t}"
        );
    }
    eprintln!(
        "determinism: {} serialized road-index bytes identical across threads {:?}, crc32 {crc:#010x}",
        baseline_bytes.len(),
        thread_counts
    );

    // Per-stage sequential costs from the threads=1 build.
    let one = &builds[0].1;
    let num_leaves = (0..one.social.num_pages() as u32)
        .filter(|&id| one.social.node(id).level == 0)
        .count();
    let stage_of = |stages: &BuildStages, name: &str| -> f64 {
        stages.get(name).unwrap_or(Duration::ZERO).as_secs_f64()
    };
    let ch = one.road_stages.ch.expect("CH enabled by default");
    let ch_total = stage_of(&one.road_stages, "ch_contract");
    let ch_par = (ch.par_ns as f64 * 1e-9).min(ch_total);
    let ch_seq = ch_total - ch_par;
    let road = |name, par| (name, stage_of(&one.road_stages, name), par);
    let social = |name, par| (name, stage_of(&one.social_stages, name), par);
    let stages: Vec<StageRow> = vec![
        ("road_select", one.road_select_s, None),
        ("road_pivots", one.road_pivots_s, Some((NUM_PIVOTS, 1))),
        ("social_select", one.social_select_s, None),
        ("social_pivots", one.social_pivots_s, Some((NUM_PIVOTS, 1))),
        road("poi_augment", Some((n_pois, PAR_FLOOR))),
        road("rstar_str", None),
        road("node_aggregate", None),
        // ch_contract handled via its measured split below.
        social("user_tables", Some((m_users, PAR_FLOOR))),
        social("leaf_partition", None),
        social("leaf_nodes", Some((num_leaves, PAR_FLOOR))),
        social("tree_levels", None),
    ];
    let seq_total: f64 = stages.iter().map(|(_, c, _)| c).sum::<f64>() + ch_total;
    eprintln!(
        "sequential build: {seq_total:.3}s total; ch_contract {ch_total:.3}s \
         ({:.1}% parallel fan-out), poi_augment {:.3}s",
        100.0 * ch_par / ch_total.max(f64::MIN_POSITIVE),
        stage_of(&one.road_stages, "poi_augment"),
    );

    let mut rows = Vec::new();
    for &(t, ref b) in &builds {
        // `0` means "all cores": simulate at this machine's resolved count.
        let threads = gpssn_graph::workers(t);
        let sim_total: f64 = stages
            .iter()
            .map(|&(_, cost, par)| match par {
                Some((items, floor)) => sim_chunked(cost, items, floor, threads),
                None => cost,
            })
            .sum::<f64>()
            + ch_seq
            + ch_par / threads as f64;
        let speedup = seq_total / sim_total;
        eprintln!(
            "threads {t}: simulated {sim_total:.3}s ({speedup:.2}x vs sequential); \
             measured wall {:.3}s",
            b.wall_s
        );
        rows.push(format!(
            "{{\"threads\":{t},\"sim_total_s\":{sim_total:.6},\"sim_speedup\":{speedup:.4},\
             \"wall_s\":{:.6}}}",
            b.wall_s
        ));
    }

    let mut stage_json: Vec<String> = stages
        .iter()
        .map(|(name, cost, par)| {
            let model = match par {
                Some((items, floor)) => format!("{{\"items\":{items},\"floor\":{floor}}}"),
                None => String::from("\"sequential\""),
            };
            format!("{{\"name\":\"{name}\",\"seq_s\":{cost:.6},\"par\":{model}}}")
        })
        .collect();
    stage_json.push(format!(
        "{{\"name\":\"ch_contract\",\"seq_s\":{ch_total:.6},\
         \"par\":{{\"measured_par_s\":{ch_par:.6},\"measured_seq_s\":{ch_seq:.6}}}}}"
    ));

    let json = format!(
        "{{\"bench\":\"build\",\"dataset\":\"uni\",\"scale\":{scale},\"seed\":{seed},\
         \"pois\":{n_pois},\"users\":{m_users},\"cores\":{},\
         \"determinism\":{{\"thread_counts\":[1,2,4,8,0],\"identical\":true,\
         \"index_bytes\":{},\"crc32\":{crc}}},\
         \"sequential_s\":{seq_total:.6},\
         \"ch\":{{\"rounds\":{},\"shortcuts\":{},\"witness_resets\":{},\
         \"witness_recycles\":{},\"workspaces\":{},\"par_fraction\":{:.4}}},\
         \"stages\":[{}],\"rows\":[{}]}}\n",
        cores(),
        baseline_bytes.len(),
        ch.rounds,
        ch.shortcuts,
        ch.witness_resets,
        ch.witness_recycles,
        ch.workspaces,
        ch_par / ch_total.max(f64::MIN_POSITIVE),
        stage_json.join(","),
        rows.join(","),
    );
    write_json(&out, &json);
}
