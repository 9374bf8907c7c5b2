//! Oracle-vs-Dijkstra comparison distilled into `BENCH_ch.json`:
//! CH preprocessing time (sequential and threaded, plus the upward-label
//! share of it and the label size), point-to-point latency, and the
//! many-to-many kernel against one Dijkstra sweep per source, on the
//! largest bench road graph (30k intersections by default). Both query
//! shapes are asserted bitwise against Dijkstra before they are timed,
//! and every sampled pair bitwise against its reverse.
//!
//! ```text
//! report ch [--vertices N] [--seed N] [--out BENCH_ch.json]
//! ```

use super::{median_secs, write_json};
use gpssn_bench::cli::{parse_flags, take};
use gpssn_graph::{dijkstra_targets, ChOracle, ChSearch, NodeId};
use gpssn_road::{generate_road_network, RoadGenConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

const USAGE: &str = "usage: report ch [--vertices N] [--seed N] [--out FILE]";

pub fn run(args: &[String]) {
    let mut vertices = 30_000usize;
    let mut seed = 7u64;
    let mut out = String::from("BENCH_ch.json");
    parse_flags(args, USAGE, |flag, i| {
        match flag {
            "--vertices" => vertices = take(args, i, flag, "an integer")?,
            "--seed" => seed = take(args, i, flag, "an integer")?,
            "--out" => out = take(args, i, flag, "a file path")?,
            _ => return Ok(false),
        }
        Ok(true)
    });

    let cfg = RoadGenConfig {
        num_vertices: vertices,
        ..Default::default()
    };
    let net = generate_road_network(&cfg, &mut StdRng::seed_from_u64(seed));
    let g = net.graph();
    eprintln!(
        "road graph: {} vertices, {} edges",
        net.num_vertices(),
        net.num_edges()
    );

    let build_secs = median_secs(3, || ChOracle::build(g));
    let build_threads_secs = median_secs(3, || ChOracle::build_with_threads(g, 4));
    let mut label_ns: Vec<u64> = (0..3)
        .map(|_| ChOracle::build_with_stats(g, 0).1.label_ns)
        .collect();
    label_ns.sort_unstable();
    let label_secs = label_ns[1] as f64 * 1e-9;
    let ch = ChOracle::build(g);
    eprintln!(
        "CH built in {build_secs:.3}s ({} shortcuts, {} label entries built in {:.1}ms); \
         4-thread build {build_threads_secs:.3}s",
        ch.num_shortcuts(),
        ch.num_label_entries(),
        label_secs * 1e3
    );

    // Point-to-point: 32 random pairs, averaged per query.
    let n = net.num_vertices();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let queries: Vec<(NodeId, NodeId)> = (0..32)
        .map(|_| (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId)))
        .collect();
    let mut cs = ChSearch::new();
    // Answers must agree bitwise before timing means anything. Note the
    // indexing: `dijkstra_targets` returns a dense per-vertex map while
    // `dists` returns one entry per requested target.
    for &(s, t) in &queries {
        let d = dijkstra_targets(g, &[(s, 0.0)], &[t])[t as usize];
        let (c, _) = ch.dists(&mut cs, &[(s, 0.0)], &[t]);
        assert_eq!(
            d.to_bits(),
            c[0].to_bits(),
            "CH answer diverged at {s}->{t}"
        );
        let (back, _) = ch.dists(&mut cs, &[(t, 0.0)], &[s]);
        assert_eq!(
            c[0].to_bits(),
            back[0].to_bits(),
            "CH answer is not symmetric at {s}<->{t}"
        );
    }
    let p2p_dijkstra = median_secs(5, || {
        for &(s, t) in &queries {
            std::hint::black_box(dijkstra_targets(g, &[(s, 0.0)], &[t]));
        }
    }) / queries.len() as f64;
    let p2p_ch = median_secs(5, || {
        for &(s, t) in &queries {
            std::hint::black_box(ch.dists(&mut cs, &[(s, 0.0)], &[t]));
        }
    }) / queries.len() as f64;
    let p2p_speedup = p2p_dijkstra / p2p_ch;
    eprintln!(
        "p2p: dijkstra {:.1}us, ch {:.1}us  ({p2p_speedup:.1}x)",
        p2p_dijkstra * 1e6,
        p2p_ch * 1e6
    );

    // Many-to-many: 8 sources x 16 targets, one matrix per measurement.
    let sources: Vec<[(NodeId, f64); 1]> = (0..8)
        .map(|_| [(rng.gen_range(0..n as NodeId), 0.0)])
        .collect();
    let source_refs: Vec<&[(NodeId, f64)]> = sources.iter().map(|s| &s[..]).collect();
    let targets: Vec<NodeId> = (0..16).map(|_| rng.gen_range(0..n as NodeId)).collect();
    let (matrix, _) = ch.batch_dists(&mut cs, &source_refs, &targets);
    for (i, s) in source_refs.iter().enumerate() {
        let d = dijkstra_targets(g, s, &targets);
        for (j, &t) in targets.iter().enumerate() {
            assert_eq!(
                d[t as usize].to_bits(),
                matrix[i * targets.len() + j].to_bits(),
                "CH many-to-many diverged at source {i} -> {t}"
            );
        }
    }
    // The transposed matrix, targets as sources, must be its mirror.
    let target_seeds: Vec<[(NodeId, f64); 1]> = targets.iter().map(|&t| [(t, 0.0)]).collect();
    let target_refs: Vec<&[(NodeId, f64)]> = target_seeds.iter().map(|s| &s[..]).collect();
    let source_nodes: Vec<NodeId> = sources.iter().map(|s| s[0].0).collect();
    let (mirror, _) = ch.batch_dists(&mut cs, &target_refs, &source_nodes);
    for i in 0..source_nodes.len() {
        for j in 0..targets.len() {
            assert_eq!(
                matrix[i * targets.len() + j].to_bits(),
                mirror[j * source_nodes.len() + i].to_bits(),
                "CH many-to-many is not symmetric at source {i} <-> target {j}"
            );
        }
    }
    let m2m_dijkstra = median_secs(5, || {
        for s in &source_refs {
            std::hint::black_box(dijkstra_targets(g, s, &targets));
        }
    });
    let m2m_ch = median_secs(5, || {
        std::hint::black_box(ch.batch_dists(&mut cs, &source_refs, &targets))
    });
    let m2m_speedup = m2m_dijkstra / m2m_ch;
    eprintln!(
        "many-to-many 8x16: dijkstra {:.2}ms, ch {:.2}ms  ({m2m_speedup:.1}x)",
        m2m_dijkstra * 1e3,
        m2m_ch * 1e3
    );

    let json = format!(
        "{{\n  \"graph\": {{\"vertices\": {}, \"edges\": {}, \"seed\": {}}},\n  \
         \"build\": {{\"shortcuts\": {}, \"label_entries\": {}, \"label_bytes\": {}, \"sequential_secs\": {:.6}, \
         \"threads4_secs\": {:.6}, \"label_secs\": {:.6}}},\n  \
         \"p2p\": {{\"queries\": {}, \"dijkstra_secs_per_query\": {:.9}, \
         \"ch_secs_per_query\": {:.9}, \"speedup\": {:.3}}},\n  \
         \"many_to_many\": {{\"sources\": {}, \"targets\": {}, \"dijkstra_secs\": {:.9}, \
         \"ch_secs\": {:.9}, \"speedup\": {:.3}}}\n}}\n",
        net.num_vertices(),
        net.num_edges(),
        seed,
        ch.num_shortcuts(),
        ch.num_label_entries(),
        ch.label_bytes(),
        build_secs,
        build_threads_secs,
        label_secs,
        queries.len(),
        p2p_dijkstra,
        p2p_ch,
        p2p_speedup,
        source_refs.len(),
        targets.len(),
        m2m_dijkstra,
        m2m_ch,
        m2m_speedup,
    );
    write_json(&out, &json);
}
