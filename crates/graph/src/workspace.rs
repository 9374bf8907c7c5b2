//! Reusable Dijkstra state for allocation-free repeated runs.
//!
//! Refinement (Algorithm 2, lines 29–31) fires thousands of bounded and
//! multi-target Dijkstras per query — one per candidate ball and one per
//! `dist_RN` column. Allocating a fresh `Vec<f64>` distance map, a fresh
//! heap, and a fresh pending-target array for each run dominates the cost
//! on small-to-medium searches. [`DijkstraWorkspace`] keeps all three
//! between runs:
//!
//! * the dense distance map is reset lazily via a *touched list* — only
//!   the entries the previous run wrote are restored to `INFINITY`, so a
//!   run over `t` vertices costs `O(t log t)` regardless of graph size;
//! * the [`IndexedMinHeap`] keeps its backing allocations across
//!   [`IndexedMinHeap::clear`] calls;
//! * the pending-target array is *generation-stamped*: a `u32` stamp per
//!   vertex marks membership in the current run's target set, so marking
//!   targets never requires clearing the previous run's marks (and
//!   duplicate targets — e.g. two POIs sharing an edge endpoint — are
//!   deduplicated for free, keeping early termination and settle counts
//!   exact).
//!
//! Results are identical to the fresh-allocation functions in
//! [`crate::dijkstra`] (property-tested against them); in fact those
//! functions are now thin wrappers that run a throwaway workspace.

use crate::csr::{CsrGraph, NodeId};
use crate::heap::IndexedMinHeap;

/// Sentinel distance for unreachable vertices (same as
/// [`crate::dijkstra::INFINITY`]).
const INFINITY: f64 = f64::INFINITY;

/// Reusable state for repeated Dijkstra runs over graphs of any size.
///
/// One workspace serves one thread; create one per worker for parallel
/// refinement. The distance map written by the latest run stays readable
/// through [`DijkstraWorkspace::dist`] until the next run begins.
#[derive(Debug, Default)]
pub struct DijkstraWorkspace {
    /// Dense distance map; entries outside `touched` are `INFINITY`.
    dist: Vec<f64>,
    /// Vertices whose `dist` entry the latest run wrote (settled *or*
    /// relaxed); reset lazily at the start of the next run.
    touched: Vec<NodeId>,
    /// Recycled priority queue.
    heap: IndexedMinHeap,
    /// Generation stamp per vertex for target-set membership.
    target_stamp: Vec<u32>,
    /// Current generation; `target_stamp[v] == generation` ⇔ `v` is a
    /// still-unsettled target of the current run.
    generation: u32,
    /// Settled vertices of the latest run, in non-decreasing distance
    /// order.
    settled: Vec<NodeId>,
    /// Lifetime count of runs prepared by this workspace.
    resets: u64,
    /// Runs that reused already-sized storage (no growth needed) — the
    /// telemetry signal that heap/map recycling is actually paying off.
    recycles: u64,
}

impl DijkstraWorkspace {
    /// Creates an empty workspace; storage is sized on first use.
    pub fn new() -> Self {
        DijkstraWorkspace::default()
    }

    /// Distance map of the latest run. `dist()[v] == INFINITY` means `v`
    /// was unreachable or outside the explored radius. Valid until the
    /// next `run_*` call.
    #[inline]
    pub fn dist(&self) -> &[f64] {
        &self.dist
    }

    /// Settled vertices of the latest run, in non-decreasing distance
    /// order. Valid until the next `run_*` call.
    #[inline]
    pub fn settled(&self) -> &[NodeId] {
        &self.settled
    }

    /// Lifetime number of runs this workspace prepared.
    #[inline]
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Lifetime number of runs that reused already-sized storage (lazy
    /// touched-list reset + recycled heap, no allocation).
    #[inline]
    pub fn recycles(&self) -> u64 {
        self.recycles
    }

    /// Consumes the workspace, returning the latest `(distance map,
    /// settled vertices)` pair — the shape of the one-shot functions in
    /// [`crate::dijkstra`].
    pub fn into_parts(self) -> (Vec<f64>, Vec<NodeId>) {
        (self.dist, self.settled)
    }

    /// Radius-bounded run: settles every vertex within `radius` of the
    /// seeds (see [`crate::dijkstra::dijkstra_bounded`]). Returns the
    /// number of settled vertices.
    pub fn run_bounded(&mut self, graph: &CsrGraph, seeds: &[(NodeId, f64)], radius: f64) -> u64 {
        self.run(graph, seeds, radius, None)
    }

    /// Early-terminating multi-target run (see
    /// [`crate::dijkstra::dijkstra_targets`]). Duplicate entries in
    /// `targets` are deduplicated, so the search stops as soon as every
    /// *distinct* target is settled. Returns the number of settled
    /// vertices — the unit budgets charge, never inflated by duplicate
    /// targets.
    pub fn run_targets(
        &mut self,
        graph: &CsrGraph,
        seeds: &[(NodeId, f64)],
        targets: &[NodeId],
    ) -> u64 {
        self.run(graph, seeds, INFINITY, Some(targets))
    }

    /// Grows per-vertex storage to cover `n` vertices and rolls the
    /// target generation.
    fn prepare(&mut self, n: usize) {
        self.resets += 1;
        if self.dist.len() < n {
            self.dist.resize(n, INFINITY);
            self.target_stamp.resize(n, 0);
            self.heap.grow(n);
        } else if n > 0 {
            self.recycles += 1;
        }
        // Reset only what the previous run wrote.
        for &v in &self.touched {
            self.dist[v as usize] = INFINITY;
        }
        self.touched.clear();
        self.settled.clear();
        self.heap.clear();
        // Roll the generation; on wrap, hard-reset the stamps once.
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.target_stamp.fill(0);
            self.generation = 1;
        }
    }

    fn run(
        &mut self,
        graph: &CsrGraph,
        seeds: &[(NodeId, f64)],
        radius: f64,
        targets: Option<&[NodeId]>,
    ) -> u64 {
        let n = graph.num_nodes();
        self.prepare(n);
        debug_assert!(!radius.is_nan(), "radius must not be NaN");
        for &(s, d0) in seeds {
            debug_assert!(d0 >= 0.0, "seed distances must be non-negative");
            if d0 < self.dist[s as usize] {
                if self.dist[s as usize] == INFINITY {
                    self.touched.push(s);
                }
                self.dist[s as usize] = d0;
                self.heap.push_or_decrease(s, d0);
            }
        }
        let mut remaining = 0usize;
        if let Some(ts) = targets {
            for &t in ts {
                // Stamp-dedup: two POIs sharing an edge endpoint push the
                // same vertex twice; it must count once.
                if self.target_stamp[t as usize] != self.generation {
                    self.target_stamp[t as usize] = self.generation;
                    remaining += 1;
                }
            }
            if remaining == 0 {
                return 0;
            }
        }
        while let Some((v, d)) = self.heap.pop() {
            if d > radius {
                break;
            }
            self.settled.push(v);
            if targets.is_some() && self.target_stamp[v as usize] == self.generation {
                self.target_stamp[v as usize] = self.generation.wrapping_sub(1);
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            for nb in graph.neighbors(v) {
                let nd = d + nb.weight;
                if nd < self.dist[nb.node as usize] && nd <= radius {
                    if self.dist[nb.node as usize] == INFINITY {
                        self.touched.push(nb.node);
                    }
                    self.dist[nb.node as usize] = nd;
                    self.heap.push_or_decrease(nb.node, nd);
                }
            }
        }
        self.settled.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{dijkstra_all, dijkstra_bounded, dijkstra_targets};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_graph(rng: &mut StdRng, n: usize, extra: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for v in 1..n {
            let u = rng.gen_range(0..v);
            edges.push((u as NodeId, v as NodeId, rng.gen_range(0.1..10.0)));
        }
        for _ in 0..extra {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                edges.push((u as NodeId, v as NodeId, rng.gen_range(0.1..10.0)));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn reuse_across_runs_resets_state() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 3.0), (2, 3, 0.5)]);
        let mut ws = DijkstraWorkspace::new();
        ws.run_bounded(&g, &[(0, 0.0)], f64::INFINITY);
        assert_eq!(ws.dist()[3], 2.0);
        // Second run from a different seed must not see stale entries.
        ws.run_bounded(&g, &[(2, 0.0)], 0.6);
        assert_eq!(ws.dist()[3], 0.5);
        assert_eq!(ws.dist()[1], f64::INFINITY, "stale entry leaked");
        assert_eq!(ws.dist()[0], f64::INFINITY);
        // The first run grew storage, the second reused it.
        assert_eq!(ws.resets(), 2);
        assert_eq!(ws.recycles(), 1);
    }

    #[test]
    fn duplicate_targets_settle_once() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let mut ws = DijkstraWorkspace::new();
        // Vertex 1 listed three times: termination must fire as soon as
        // the *distinct* set {1, 2} settles (3 settled vertices: 0, 1, 2).
        let settled = ws.run_targets(&g, &[(0, 0.0)], &[1, 1, 2, 1]);
        assert_eq!(settled, 3);
        assert_eq!(ws.dist()[2], 2.0);
        assert_eq!(ws.dist()[3], f64::INFINITY);
    }

    #[test]
    fn workspace_survives_generation_wrap() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let mut ws = DijkstraWorkspace::new();
        ws.generation = u32::MAX - 1;
        for _ in 0..4 {
            let settled = ws.run_targets(&g, &[(0, 0.0)], &[2]);
            assert_eq!(settled, 3);
            assert_eq!(ws.dist()[2], 2.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A reused workspace matches the fresh-allocation oracle across
        /// a sequence of mixed bounded/targeted runs on random graphs.
        #[test]
        fn matches_fresh_allocation_oracle(seed in 0u64..1000, n in 2usize..24, extra in 0usize..30) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_graph(&mut rng, n, extra);
            let mut ws = DijkstraWorkspace::new();
            for round in 0..6 {
                let s = rng.gen_range(0..n) as NodeId;
                if round % 2 == 0 {
                    let radius = rng.gen_range(0.5..25.0);
                    let (oracle, settled) = dijkstra_bounded(&g, &[(s, 0.0)], radius);
                    let count = ws.run_bounded(&g, &[(s, 0.0)], radius);
                    prop_assert_eq!(count as usize, settled.len());
                    prop_assert_eq!(ws.settled(), &settled[..]);
                    for (v, &want) in oracle.iter().enumerate() {
                        prop_assert!(
                            (ws.dist()[v] - want).abs() < 1e-12 || ws.dist()[v] == want,
                            "round {} v {}: ws={} oracle={}", round, v, ws.dist()[v], want
                        );
                    }
                } else {
                    let t1 = rng.gen_range(0..n) as NodeId;
                    let t2 = rng.gen_range(0..n) as NodeId;
                    let targets = [t1, t2, t1]; // deliberate duplicate
                    let oracle = dijkstra_targets(&g, &[(s, 0.0)], &targets);
                    let count_oracle = DijkstraWorkspace::new().run_targets(&g, &[(s, 0.0)], &targets);
                    let count = ws.run_targets(&g, &[(s, 0.0)], &targets);
                    prop_assert_eq!(count, count_oracle);
                    // Early termination leaves tails unexplored in both.
                    for &t in &targets {
                        prop_assert_eq!(ws.dist()[t as usize], oracle[t as usize]);
                    }
                }
            }
            // Full runs agree with dijkstra_all exactly.
            let full = dijkstra_all(&g, &[(0, 0.0)]);
            ws.run_bounded(&g, &[(0, 0.0)], f64::INFINITY);
            prop_assert_eq!(ws.dist(), &full[..]);
        }
    }
}
