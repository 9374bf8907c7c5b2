//! Contraction-hierarchy distance oracle with bit-identical answers.
//!
//! Repeated point-to-point and many-to-many `dist_RN` probes are the hot
//! path of GP-SSN refinement (Algorithm 2): every `verify_center` call
//! fills an `S × R` distance matrix, and plain Dijkstra pays the full
//! road-network search cost per row or column. A contraction hierarchy
//! ([Geisberger et al. 2008]) preprocesses the graph once — contracting
//! vertices in importance order and inserting *shortcut* arcs that
//! preserve shortest paths among the not-yet-contracted rest — after
//! which a point-to-point query is a pair of tiny Dijkstra runs that only
//! ever relax arcs towards *higher-ranked* vertices. The target side of
//! that pair depends only on the target, so the oracle runs it once per
//! vertex at build time and keeps the result as the vertex's *upward
//! label*; a query is then one forward sweep per source plus a scan of
//! each target's label.
//!
//! ## Exact answers
//!
//! The rest of the engine treats distances as exact tokens: caches key on
//! them, refinement compares them with `total_cmp`, and the equivalence
//! suite asserts engines agree bitwise. Edge weights sit on the grid of
//! multiples of `2⁻³²` ([`crate::csr::grid_up`]) and a road network's
//! total length stays below [`crate::csr::GRID_HEADROOM`] (`2²¹`), so
//! every sum of weights and grid seed offsets up to a shortest-path
//! length is exact, whatever its order. A search key — the sum of
//! shortcut weights along an up-down path — is therefore exactly the
//! length of the path it stands for, and the minimum key over a target's
//! label is the shortest-path length: the very bits Dijkstra's
//! left-to-right accumulation produces. Any other key is the rounding of
//! a sum at least that long, and rounding is monotone, so it cannot
//! undercut the minimum. A query reports that key; nothing is unpacked.
//!
//! A witness search suppresses a shortcut only when it finds a strictly
//! shorter path. An equally long witness may run through another vertex
//! contracted in the same independent-set round, and two such vertices
//! would otherwise each rely on the other and both drop the pair.
//! See DESIGN.md §9.
//!
//! [Geisberger et al. 2008]: https://doi.org/10.1007/978-3-540-68552-4_24

use crate::csr::{grid_up, CsrGraph, NodeId};
use crate::dijkstra::INFINITY;
use crate::heap::IndexedMinHeap;
use crate::par::par_map;
use std::io::{self, BufRead, Write};

/// Rank sentinel for not-yet-contracted vertices during construction.
const UNRANKED: u32 = u32::MAX;

/// Settle cap for witness searches during contraction. Witness searches
/// are *sound under truncation*: giving up early only fails to find a
/// witness, which adds a redundant shortcut — never drops a needed one.
const WITNESS_SETTLE_CAP: usize = 64;

/// Minimum items per worker when a build phase fans out (the
/// [`crate::par_map`] grain) — below this the spawn overhead dominates.
/// Thread-count invariance does not depend on it (results are always
/// merged in input order), so it is a pure tuning knob.
const PAR_BUILD_FLOOR: usize = 256;

/// One arc of the contraction arena: every original edge and every
/// shortcut, in creation order.
#[derive(Debug, Clone, Copy)]
struct ArenaArc {
    tail: NodeId,
    head: NodeId,
    /// The original edge weight, or `w₁ + w₂` of the two arcs a shortcut
    /// bridges (exact on the weight grid).
    weight: f64,
}

/// An upward-graph arc (towards a higher-ranked vertex).
#[derive(Debug, Clone, Copy)]
struct UpArc {
    head: NodeId,
    weight: f64,
}

/// A contraction-hierarchy distance oracle over a [`CsrGraph`].
///
/// Build once with [`ChOracle::build`]; answer point-to-point and
/// many-to-many queries through a reusable [`ChSearch`] workspace.
/// Answers are bit-identical to [`crate::dijkstra::dijkstra_targets`]
/// over the same graph for seeds on the weight grid (see the module docs
/// for why).
#[derive(Debug, Clone)]
pub struct ChOracle {
    n: usize,
    /// Contraction order: `rank[v]` is `v`'s position (0 = contracted
    /// first = least important).
    rank: Vec<u32>,
    /// CSR offsets into `up_arcs`, length `n + 1`.
    up_offsets: Vec<u32>,
    up_arcs: Vec<UpArc>,
    arena: Vec<ArenaArc>,
    /// Arena prefix holding the original edges (== input edge count).
    num_original: usize,
    /// Upward labels, CSR: `labels[label_offsets[t]..label_offsets[t + 1]]`
    /// is every vertex an upward sweep from `t` settles, in settle order.
    /// Derived from the hierarchy (rebuilt on read, never serialized).
    label_offsets: Vec<usize>,
    labels: Vec<LabelEntry>,
}

impl ChOracle {
    /// Number of vertices the oracle was built over.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of shortcut arcs the contraction inserted.
    #[inline]
    pub fn num_shortcuts(&self) -> usize {
        self.arena.len() - self.num_original
    }

    /// Total entries across all upward labels (about 7 per vertex on
    /// road graphs).
    #[inline]
    pub fn num_label_entries(&self) -> usize {
        self.labels.len()
    }

    /// Bytes the upward labels occupy (16 per entry).
    #[inline]
    pub fn label_bytes(&self) -> usize {
        std::mem::size_of_val(self.labels.as_slice())
    }

    /// Builds the hierarchy using all available cores (equivalent to
    /// [`ChOracle::build_with_threads`] with `threads = 0`; the result is
    /// identical for every thread count).
    pub fn build(graph: &CsrGraph) -> ChOracle {
        Self::build_with_threads(graph, 0)
    }

    /// [`ChOracle::build`] with an explicit thread count (`0` = all
    /// available cores). The hierarchy is **bit-identical for every
    /// thread count**; see [`ChOracle::build_with_stats`].
    pub fn build_with_threads(graph: &CsrGraph, threads: usize) -> ChOracle {
        Self::build_with_stats(graph, threads).0
    }

    /// Parallel deterministic contraction, also returning build counters.
    ///
    /// Vertices are contracted in *independent-set rounds*: each round
    /// selects every unranked vertex whose `(priority, id)` key is a
    /// strict local minimum among its unranked neighbours — an
    /// independent set, since two adjacent vertices cannot both be local
    /// minima — simulates all their contractions concurrently against
    /// the immutable pre-round adjacency ([`par_map`], one reused
    /// `WitnessSearch` workspace per worker), and then merges
    /// shortcuts and assigns ranks sequentially in ascending key order.
    /// Selection, the per-candidate witness searches, and the merge are
    /// all functions of the pre-round state alone, so the rank
    /// permutation and the arena (and with them the upward CSR and every
    /// serialized byte) are identical for every `threads` value.
    ///
    /// Witness paths may route through other same-round vertices; each
    /// of those contributes its own shortcut (or a strictly shorter
    /// witness, recursively), so distances among the surviving vertices
    /// are preserved collectively — the standard independent-set CH
    /// argument. Priorities are kept neighbourhood-exact: after a merge,
    /// every live neighbour of a contracted vertex is re-simulated
    /// (fanned out and merged in vertex order).
    pub fn build_with_stats(graph: &CsrGraph, threads: usize) -> (ChOracle, ChBuildStats) {
        let n = graph.num_nodes();
        // Live adjacency, mutated as contraction inserts shortcuts.
        // Entries are oriented self -> neighbour.
        let mut adj: Vec<Vec<AdjArc>> = vec![Vec::new(); n];
        let mut arena: Vec<ArenaArc> = Vec::with_capacity(graph.num_edges() * 2);
        for (u, v, w) in graph.edges() {
            arena.push(ArenaArc {
                tail: u,
                head: v,
                weight: w,
            });
            adj[u as usize].push(AdjArc { to: v, weight: w });
            adj[v as usize].push(AdjArc { to: u, weight: w });
        }
        let num_original = arena.len();

        let mut rank: Vec<u32> = vec![UNRANKED; n];
        let mut deleted_neighbors: Vec<u32> = vec![0; n];

        let workers = crate::par::workers(threads).min(n.max(1));
        let mut pool: Vec<BuildWorkspace> = (0..workers).map(|_| BuildWorkspace::new(n)).collect();
        let mut stats = ChBuildStats {
            workspaces: workers as u32,
            ..ChBuildStats::default()
        };

        // Initial priorities: one contraction simulation per vertex,
        // independent given the (immutable) initial adjacency.
        let mut key: Vec<u64> = {
            let adj = &adj;
            let rank = &rank;
            let deleted = &deleted_neighbors;
            let t0 = std::time::Instant::now();
            let keys = par_map(&mut pool, n, PAR_BUILD_FLOOR, |ws, v| {
                key_bits(simulate_priority(adj, rank, deleted, ws, v as NodeId))
            });
            stats.par_ns += t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            keys
        };

        let mut next_rank: u32 = 0;
        let mut selected: Vec<NodeId> = Vec::new();
        let mut affected: Vec<NodeId> = Vec::new();
        while (next_rank as usize) < n {
            stats.rounds += 1;
            // Select the round's independent set: unranked local minima
            // of (key, id) over unranked neighbours, then order them by
            // ascending key for rank assignment and shortcut merging.
            selected.clear();
            for v in 0..n {
                if rank[v] != UNRANKED {
                    continue;
                }
                let kv = (key[v], v as u32);
                let local_min = adj[v].iter().all(|arc| {
                    rank[arc.to as usize] != UNRANKED || (key[arc.to as usize], arc.to) >= kv
                });
                if local_min {
                    selected.push(v as NodeId);
                }
            }
            selected.sort_unstable_by_key(|&v| (key[v as usize], v));

            // Simulate every candidate's contraction against the
            // pre-round adjacency (ranks of this round's vertices are
            // still unset, so the candidates cannot see each other as
            // contracted — the computation is order-free).
            let outputs: Vec<CandidateOutput> = {
                let adj = &adj;
                let rank = &rank;
                let t0 = std::time::Instant::now();
                let selected = &selected;
                let outputs = par_map(&mut pool, selected.len(), PAR_BUILD_FLOOR, |ws, i| {
                    contract_candidate(adj, rank, ws, selected[i])
                });
                stats.par_ns += t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                outputs
            };

            // Merge in selection order: assign ranks, bump contracted-
            // neighbour counts, and append shortcuts to the arena and the
            // live adjacency.
            affected.clear();
            for out in outputs {
                rank[out.v as usize] = next_rank;
                next_rank += 1;
                for x in &out.neighbors {
                    deleted_neighbors[x.to as usize] += 1;
                    affected.push(x.to);
                }
                for &(ui, uj) in &out.shortcuts {
                    let sum = ui.weight + uj.weight;
                    arena.push(ArenaArc {
                        tail: ui.to,
                        head: uj.to,
                        weight: sum,
                    });
                    adj[ui.to as usize].push(AdjArc {
                        to: uj.to,
                        weight: sum,
                    });
                    adj[uj.to as usize].push(AdjArc {
                        to: ui.to,
                        weight: sum,
                    });
                }
            }

            // Refresh the priorities whose neighbourhoods changed.
            affected.sort_unstable();
            affected.dedup();
            affected.retain(|&x| rank[x as usize] == UNRANKED);
            {
                let adj = &adj;
                let rank = &rank;
                let deleted = &deleted_neighbors;
                let t0 = std::time::Instant::now();
                let affected = &affected;
                let keys = par_map(&mut pool, affected.len(), PAR_BUILD_FLOOR, |ws, i| {
                    key_bits(simulate_priority(adj, rank, deleted, ws, affected[i]))
                });
                stats.par_ns += t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                for (&v, &kb) in affected.iter().zip(keys.iter()) {
                    key[v as usize] = kb;
                }
            }
        }

        stats.shortcuts = arena.len() - num_original;
        for ws in &pool {
            stats.witness_resets += ws.witness.resets;
            stats.witness_recycles += ws.witness.recycles;
        }

        let (up_offsets, up_arcs) = build_up_csr(n, &rank, &arena);
        let t0 = std::time::Instant::now();
        let oracle = ChOracle::with_labels(n, rank, up_offsets, up_arcs, arena, num_original);
        stats.label_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        (oracle, stats)
    }

    /// Assembles an oracle and computes its upward labels: one upward
    /// sweep from every vertex, each settled vertex kept with its sweep
    /// distance. The sweep is the one [`Self::batch_dists`]
    /// would otherwise run per target, so a label is exactly that
    /// target's backward search space.
    fn with_labels(
        n: usize,
        rank: Vec<u32>,
        up_offsets: Vec<u32>,
        up_arcs: Vec<UpArc>,
        arena: Vec<ArenaArc>,
        num_original: usize,
    ) -> ChOracle {
        let mut oracle = ChOracle {
            n,
            rank,
            up_offsets,
            up_arcs,
            arena,
            num_original,
            label_offsets: Vec::with_capacity(n + 1),
            labels: Vec::new(),
        };
        let mut search = ChSearch::new();
        search.prepare(n);
        let mut labels = Vec::new();
        oracle.label_offsets.push(0);
        for t in 0..n as NodeId {
            oracle.upward_sweep(&mut search, &[(t, 0.0)]);
            for &m in &search.settled {
                labels.push(LabelEntry {
                    dist: search.dist[m as usize],
                    node: m,
                });
            }
            oracle.label_offsets.push(labels.len());
            search.reset_sweep();
        }
        oracle.labels = labels;
        oracle
    }

    /// Vertex `t`'s upward label.
    #[inline]
    fn label(&self, t: NodeId) -> &[LabelEntry] {
        &self.labels[self.label_offsets[t as usize]..self.label_offsets[t as usize + 1]]
    }

    /// Exact distances from `seeds` to every entry of `targets`,
    /// mirroring [`crate::dijkstra::dijkstra_targets`] restricted to the
    /// targets (bit-identical values for seed distances on the weight
    /// grid, [`crate::csr::grid_nearest`]). Also returns the number of
    /// vertices the forward upward sweep settled — the unit budgets
    /// charge, comparable to (and much smaller than) Dijkstra settle
    /// counts (see [`Self::batch_dists`]).
    pub fn dists(
        &self,
        search: &mut ChSearch,
        seeds: &[(NodeId, f64)],
        targets: &[NodeId],
    ) -> (Vec<f64>, u64) {
        self.batch_dists(search, &[seeds], targets)
    }

    /// Label-based many-to-many kernel: one forward upward sweep per
    /// source seed list, then every *distinct* target's precomputed
    /// upward label is scanned once against the sweep's `dist[]` for the
    /// best meeting key. Returns the row-major
    /// `sources.len() × targets.len()` distance matrix plus the number
    /// of vertices the forward sweeps settled. Label scans are reads of
    /// a precomputed table (a handful of entries per target) and are
    /// not counted as settles.
    pub fn batch_dists(
        &self,
        search: &mut ChSearch,
        sources: &[&[(NodeId, f64)]],
        targets: &[NodeId],
    ) -> (Vec<f64>, u64) {
        let mut out = vec![INFINITY; sources.len() * targets.len()];
        if self.n == 0 || sources.is_empty() || targets.is_empty() {
            return (out, 0);
        }
        if gpssn_failpoint::failpoint!("ch::settle_exhaustion") {
            panic!("injected fault: ch::settle_exhaustion");
        }
        search.prepare(self.n);
        let mut settles: u64 = 0;

        // Deduplicate targets (two POIs often share an edge endpoint);
        // `tcol[j]` maps target j to its distinct-target column.
        search.distinct.clear();
        search.tcol.clear();
        for &t in targets {
            let slot = search.tslot[t as usize];
            if (slot as usize) < search.distinct.len() && search.distinct[slot as usize] == t {
                search.tcol.push(slot);
            } else {
                search.tslot[t as usize] = search.distinct.len() as u32;
                search.tcol.push(search.distinct.len() as u32);
                search.distinct.push(t);
            }
        }

        search.met.clear();
        search.met.resize(search.distinct.len(), INFINITY);
        for (i, seeds) in sources.iter().enumerate() {
            settles += self.upward_sweep(search, seeds);
            for e in 0..search.distinct.len() {
                search.met[e] = self.meet(&search.dist, search.distinct[e]);
            }
            for (j, &c) in search.tcol.iter().enumerate() {
                out[i * targets.len() + j] = search.met[c as usize];
            }
            search.reset_sweep();
        }
        (out, settles)
    }

    /// Exact distances from `seeds` to every entry of `targets`, like
    /// [`Self::dists`], but the forward sweep stays in `search` as its
    /// *pinned* sweep: a later call with the same seeds runs no sweep and
    /// only scans the targets' labels against it. A call with other
    /// seeds replaces it, [`ChSearch::hard_reset`] drops it, and
    /// [`Self::batch_dists`] leaves it alone. Returns the values
    /// (bit-identical to [`Self::dists`]) and the vertices settled by the
    /// sweep this call ran: 0 when the pinned sweep served it.
    pub fn pinned_dists(
        &self,
        search: &mut ChSearch,
        seeds: &[(NodeId, f64)],
        targets: &[NodeId],
    ) -> (Vec<f64>, u64) {
        if self.n == 0 || targets.is_empty() {
            return (vec![INFINITY; targets.len()], 0);
        }
        if gpssn_failpoint::failpoint!("ch::settle_exhaustion") {
            panic!("injected fault: ch::settle_exhaustion");
        }
        let mut settles = 0;
        if !search.is_pinned(seeds) {
            search.pinned_seeds = None;
            search.prepare(self.n);
            // Sweep into the batch arrays, then swap them with the pinned
            // ones, wiped first: the batch arrays come back clean.
            for &v in &search.pinned_touched {
                search.pinned_dist[v as usize] = INFINITY;
            }
            search.pinned_touched.clear();
            search.pinned_dist.resize(search.dist.len(), INFINITY);
            settles = self.upward_sweep(search, seeds);
            std::mem::swap(&mut search.dist, &mut search.pinned_dist);
            std::mem::swap(&mut search.touched, &mut search.pinned_touched);
            search.reset_sweep();
            search.pinned_seeds = Some(seeds.to_vec());
        }
        let out = targets
            .iter()
            .map(|&t| self.meet(&search.pinned_dist, t))
            .collect();
        (out, settles)
    }

    /// Exact distance from the finished forward sweep (`dist`) to `t`:
    /// the best meeting key over `t`'s label. Vertices the sweep never
    /// reached sit at `INFINITY`.
    #[inline]
    fn meet(&self, dist: &[f64], t: NodeId) -> f64 {
        self.label(t)
            .iter()
            .map(|l| dist[l.node as usize] + l.dist)
            .fold(INFINITY, f64::min)
    }

    /// Runs one upward Dijkstra sweep (forward and backward are the same
    /// search on an undirected hierarchy). Leaves `dist` and `settled`
    /// describing the sweep; returns the settle count.
    fn upward_sweep(&self, search: &mut ChSearch, seeds: &[(NodeId, f64)]) -> u64 {
        for &(s, d0) in seeds {
            debug_assert!(d0 >= 0.0, "seed distances must be non-negative");
            if d0 < search.dist[s as usize] {
                if search.dist[s as usize] == INFINITY {
                    search.touched.push(s);
                }
                search.dist[s as usize] = d0;
                search.heap.push_or_decrease(s, d0);
            }
        }
        while let Some((v, d)) = search.heap.pop() {
            search.settled.push(v);
            let lo = self.up_offsets[v as usize] as usize;
            let hi = self.up_offsets[v as usize + 1] as usize;
            for arc in &self.up_arcs[lo..hi] {
                let nd = d + arc.weight;
                if nd < search.dist[arc.head as usize] {
                    if search.dist[arc.head as usize] == INFINITY {
                        search.touched.push(arc.head);
                    }
                    search.dist[arc.head as usize] = nd;
                    search.heap.push_or_decrease(arc.head, nd);
                }
            }
        }
        search.settled.len() as u64
    }

    /// Serializes the oracle as versioned plain text (rank + arena; the
    /// upward CSR and the labels are rebuilt on read). Written inside the road-index file
    /// by `gpssn-index`.
    pub fn write_text<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(
            w,
            "ch {} {} {}",
            self.n,
            self.num_original,
            self.arena.len()
        )?;
        for r in &self.rank {
            writeln!(w, "{r}")?;
        }
        for arc in &self.arena {
            // `{:?}` prints the shortest decimal that round-trips f64.
            writeln!(w, "{} {} {:?}", arc.tail, arc.head, arc.weight)?;
        }
        Ok(())
    }

    /// Reads an oracle written by [`ChOracle::write_text`]. `lines`
    /// should be positioned on the `ch ...` header line.
    pub fn read_text<B: BufRead>(lines: &mut std::io::Lines<B>) -> io::Result<ChOracle> {
        let header = next_line(lines)?;
        let mut it = header.split_whitespace();
        if it.next() != Some("ch") {
            return Err(bad_data("expected `ch` header"));
        }
        let n: usize = parse_field(it.next())?;
        let num_original: usize = parse_field(it.next())?;
        let arena_len: usize = parse_field(it.next())?;
        if num_original > arena_len || arena_len > u32::MAX as usize {
            return Err(bad_data("implausible ch arena size"));
        }
        // Cap pre-allocation from untrusted counts; the vectors still
        // grow to the real size on demand.
        let mut rank = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            rank.push(parse_field(Some(next_line(lines)?.trim()))?);
        }
        let mut arena = Vec::with_capacity(arena_len.min(1 << 16));
        for _ in 0..arena_len {
            let line = next_line(lines)?;
            let mut it = line.split_whitespace();
            let tail: NodeId = parse_field(it.next())?;
            let head: NodeId = parse_field(it.next())?;
            let weight: f64 = parse_field(it.next())?;
            if it.next().is_some() {
                return Err(bad_data("trailing ch arc field"));
            }
            if (tail as usize) >= n || (head as usize) >= n {
                return Err(bad_data("ch arc endpoint out of range"));
            }
            if !(weight.is_finite() && weight >= 0.0) {
                return Err(bad_data("ch arc weight must be finite and non-negative"));
            }
            if grid_up(weight) != weight {
                return Err(bad_data("ch arc weight is off the 2^-32 grid"));
            }
            arena.push(ArenaArc { tail, head, weight });
        }
        let mut seen = vec![false; n];
        for &r in &rank {
            if (r as usize) >= n || std::mem::replace(&mut seen[r as usize], true) {
                return Err(bad_data("ch rank is not a permutation"));
            }
        }
        let (up_offsets, up_arcs) = build_up_csr(n, &rank, &arena);
        Ok(ChOracle::with_labels(
            n,
            rank,
            up_offsets,
            up_arcs,
            arena,
            num_original,
        ))
    }
}

/// Live-adjacency entry during contraction, oriented self -> `to`.
#[derive(Debug, Clone, Copy)]
struct AdjArc {
    to: NodeId,
    weight: f64,
}

/// Counters from one [`ChOracle::build_with_stats`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChBuildStats {
    /// Independent-set contraction rounds executed.
    pub rounds: u32,
    /// Shortcut arcs inserted.
    pub shortcuts: usize,
    /// Witness searches run (each resets its workspace's touched set).
    pub witness_resets: u64,
    /// Witness searches that recycled a warm workspace from a previous
    /// search instead of starting from fresh storage.
    pub witness_recycles: u64,
    /// Worker workspaces allocated (one per build thread).
    pub workspaces: u32,
    /// Wall-clock nanoseconds spent inside the data-parallel fan-out
    /// sections (priority simulation and candidate contraction), measured
    /// on the coordinating thread. At `threads = 1` this is the portion
    /// of the build that divides across workers; the remainder
    /// (selection, merge, CSR assembly) is inherently sequential.
    pub par_ns: u64,
    /// Wall-clock nanoseconds spent computing the upward labels (one
    /// sequential upward sweep per vertex; included in the build).
    pub label_ns: u64,
}

/// Per-worker contraction state: a witness search plus neighbour scratch,
/// reused across every candidate (and round) the worker handles — no
/// per-candidate allocation churn.
#[derive(Debug)]
struct BuildWorkspace {
    witness: WitnessSearch,
    neighbors: Vec<AdjArc>,
}

impl BuildWorkspace {
    fn new(n: usize) -> Self {
        BuildWorkspace {
            witness: WitnessSearch::new(n),
            neighbors: Vec::new(),
        }
    }
}

/// One candidate's simulated contraction, computed against the pre-round
/// adjacency and applied later in deterministic merge order.
struct CandidateOutput {
    v: NodeId,
    /// Live (unranked) neighbours at simulation time.
    neighbors: Vec<AdjArc>,
    /// Shortcut pairs to insert: `(u_i arc, u_j arc)` out of `v`.
    shortcuts: Vec<(AdjArc, AdjArc)>,
}

/// Simulates contracting `v` against the current adjacency: collects its
/// live neighbours and the shortcut pairs no witness search can refute.
/// Read-only on the shared state, so candidates of one round can run
/// concurrently.
fn contract_candidate(
    adj: &[Vec<AdjArc>],
    rank: &[u32],
    ws: &mut BuildWorkspace,
    v: NodeId,
) -> CandidateOutput {
    live_neighbors(adj, rank, v, &mut ws.neighbors);
    let mut shortcuts = Vec::new();
    for i in 0..ws.neighbors.len() {
        if i + 1 == ws.neighbors.len() {
            break; // no partners left
        }
        let ui = ws.neighbors[i];
        // One witness search from u_i covers every partner u_j.
        let limit = ws.neighbors[i + 1..]
            .iter()
            .map(|uj| ui.weight + uj.weight)
            .fold(0.0f64, f64::max);
        ws.witness.run(adj, rank, ui.to, v, limit);
        for &uj in &ws.neighbors[i + 1..] {
            let sum = ui.weight + uj.weight;
            if ws.witness.dist(uj.to) < sum {
                continue; // strictly shorter witness
            }
            shortcuts.push((ui, uj));
        }
    }
    CandidateOutput {
        v,
        neighbors: ws.neighbors.clone(),
        shortcuts,
    }
}

/// One entry of a vertex's upward label: a vertex its upward sweep
/// settled, with the sweep distance (16 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
struct LabelEntry {
    dist: f64,
    node: NodeId,
}

/// Reusable state for [`ChOracle`] queries: the forward sweep's arrays
/// and settled list, target dedup scratch, and per-target results.
/// Targets need no per-batch state beyond that — their search spaces
/// are the oracle's precomputed labels. One per thread, like
/// [`crate::DijkstraWorkspace`].
#[derive(Debug, Default)]
pub struct ChSearch {
    /// Forward-sweep distance per vertex (`INFINITY` when untouched).
    dist: Vec<f64>,
    touched: Vec<NodeId>,
    settled: Vec<NodeId>,
    heap: IndexedMinHeap,
    /// Distinct-target dedup scratch (`tslot` is a lossy hint checked
    /// against `distinct`, so it never needs clearing).
    tslot: Vec<u32>,
    distinct: Vec<NodeId>,
    tcol: Vec<u32>,
    /// Current source's distance to each distinct target.
    met: Vec<f64>,
    /// The pinned sweep ([`ChOracle::pinned_dists`]): its seeds (`None`
    /// when there is none), its distance per vertex (`INFINITY` where it
    /// never reached) and the vertices it touched.
    pinned_seeds: Option<Vec<(NodeId, f64)>>,
    pinned_dist: Vec<f64>,
    pinned_touched: Vec<NodeId>,
    /// Lifetime count of batches prepared by this workspace.
    resets: u64,
    /// Batches that reused already-sized storage (no growth needed).
    recycles: u64,
}

impl ChSearch {
    /// Creates an empty workspace; storage is sized on first use.
    pub fn new() -> Self {
        ChSearch::default()
    }

    fn prepare(&mut self, n: usize) {
        self.resets += 1;
        if self.dist.len() < n {
            self.dist.resize(n, INFINITY);
            self.tslot.resize(n, 0);
            self.heap.grow(n);
        } else if n > 0 {
            self.recycles += 1;
        }
    }

    /// Lifetime number of batches this workspace prepared.
    #[inline]
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Lifetime number of batches that reused already-sized storage.
    #[inline]
    pub fn recycles(&self) -> u64 {
        self.recycles
    }

    /// Whether the pinned sweep is the one from `seeds` (bitwise), so
    /// that [`ChOracle::pinned_dists`] from them runs no sweep.
    pub fn is_pinned(&self, seeds: &[(NodeId, f64)]) -> bool {
        self.pinned_seeds.as_deref().is_some_and(|p| {
            p.len() == seeds.len()
                && p.iter()
                    .zip(seeds)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
        })
    }

    /// Restores `dist` to `INFINITY` at every vertex the latest sweep
    /// touched; clears the settled list.
    fn reset_sweep(&mut self) {
        for &v in &self.touched {
            self.dist[v as usize] = INFINITY;
        }
        self.touched.clear();
        self.settled.clear();
        self.heap.clear();
    }

    /// Restores the workspace to a clean state after a query aborted
    /// mid-batch (a panic unwound out of [`ChOracle::batch_dists`]).
    /// Unlike the incremental sweep reset between batches, this wipes the
    /// full sweep arrays — O(n), but only run on the fault path — so a
    /// later batch on the same workspace stays bit-identical. The pinned
    /// sweep is dropped too. Storage capacity and lifetime counters are
    /// retained.
    pub fn hard_reset(&mut self) {
        for d in self.dist.iter_mut().chain(&mut self.pinned_dist) {
            *d = INFINITY;
        }
        self.pinned_seeds = None;
        self.pinned_touched.clear();
        self.touched.clear();
        self.settled.clear();
        self.heap.clear();
        self.distinct.clear();
        self.tcol.clear();
        self.met.clear();
    }
}

/// Maps an f64 priority to a totally ordered `u64` (sign-flip trick), so
/// `(key_bits(p), vertex)` tuples order candidates deterministically.
fn key_bits(p: f64) -> u64 {
    let b = p.to_bits();
    if b & (1 << 63) != 0 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Collects `v`'s live (unranked) neighbours, deduplicated per neighbour
/// keeping the minimum-weight parallel arc (first wins on exact ties, so
/// the choice is deterministic).
fn live_neighbors(adj: &[Vec<AdjArc>], rank: &[u32], v: NodeId, out: &mut Vec<AdjArc>) {
    out.clear();
    'arcs: for arc in &adj[v as usize] {
        if rank[arc.to as usize] != UNRANKED {
            continue;
        }
        for seen in out.iter_mut() {
            if seen.to == arc.to {
                if arc.weight < seen.weight {
                    *seen = *arc;
                }
                continue 'arcs;
            }
        }
        out.push(*arc);
    }
}

/// Simulates contracting `v`: counts the shortcuts the contraction would
/// insert and returns the standard priority
/// `2·(shortcuts − degree) + contracted neighbours`. Uses the worker's
/// neighbour scratch and witness search — no per-call allocation.
fn simulate_priority(
    adj: &[Vec<AdjArc>],
    rank: &[u32],
    deleted_neighbors: &[u32],
    ws: &mut BuildWorkspace,
    v: NodeId,
) -> f64 {
    live_neighbors(adj, rank, v, &mut ws.neighbors);
    let neighbors = &ws.neighbors;
    let witness = &mut ws.witness;
    let mut shortcuts: i64 = 0;
    for i in 0..neighbors.len() {
        let ui = neighbors[i];
        let limit = neighbors[i + 1..]
            .iter()
            .map(|uj| ui.weight + uj.weight)
            .fold(0.0f64, f64::max);
        if i + 1 < neighbors.len() {
            witness.run(adj, rank, ui.to, v, limit);
        }
        for uj in &neighbors[i + 1..] {
            let sum = ui.weight + uj.weight;
            // Count unless a strictly shorter witness exists (the same
            // test the contraction loop applies when inserting).
            if witness.dist(uj.to) >= sum {
                shortcuts += 1;
            }
        }
    }
    let edge_diff = shortcuts - neighbors.len() as i64;
    2.0 * edge_diff as f64 + deleted_neighbors[v as usize] as f64
}

/// A bounded Dijkstra over the live (unranked) part of the dynamic
/// adjacency, excluding one vertex — the witness search of CH
/// contraction. Truncation (settle cap, limit) is sound: it only misses
/// witnesses, which adds redundant shortcuts.
#[derive(Debug)]
struct WitnessSearch {
    dist: Vec<f64>,
    touched: Vec<NodeId>,
    heap: IndexedMinHeap,
    /// Lifetime count of searches run (each resets the touched set).
    resets: u64,
    /// Searches that recycled a warm workspace (a previous search had
    /// left touched state to clear) instead of fresh storage.
    recycles: u64,
}

impl WitnessSearch {
    fn new(n: usize) -> Self {
        WitnessSearch {
            dist: vec![INFINITY; n],
            touched: Vec::new(),
            heap: IndexedMinHeap::new(n),
            resets: 0,
            recycles: 0,
        }
    }

    /// Distance found by the latest run (`INFINITY` if unexplored).
    #[inline]
    fn dist(&self, v: NodeId) -> f64 {
        self.dist[v as usize]
    }

    /// Runs from `source`, skipping `excluded`, giving up beyond `limit`
    /// or [`WITNESS_SETTLE_CAP`] settles.
    fn run(
        &mut self,
        adj: &[Vec<AdjArc>],
        rank: &[u32],
        source: NodeId,
        excluded: NodeId,
        limit: f64,
    ) {
        self.resets += 1;
        if !self.touched.is_empty() {
            self.recycles += 1;
        }
        for &v in &self.touched {
            self.dist[v as usize] = INFINITY;
        }
        self.touched.clear();
        self.heap.clear();
        self.dist[source as usize] = 0.0;
        self.touched.push(source);
        self.heap.push_or_decrease(source, 0.0);
        let mut settles = 0usize;
        while let Some((v, d)) = self.heap.pop() {
            if d > limit || settles >= WITNESS_SETTLE_CAP {
                break;
            }
            settles += 1;
            for arc in &adj[v as usize] {
                if arc.to == excluded || rank[arc.to as usize] != UNRANKED {
                    continue;
                }
                let nd = d + arc.weight;
                if nd < self.dist[arc.to as usize] && nd <= limit {
                    if self.dist[arc.to as usize] == INFINITY {
                        self.touched.push(arc.to);
                    }
                    self.dist[arc.to as usize] = nd;
                    self.heap.push_or_decrease(arc.to, nd);
                }
            }
        }
    }
}

/// Builds the upward CSR: every arena arc, oriented from its lower-ranked
/// to its higher-ranked endpoint (counting sort by tail — deterministic).
fn build_up_csr(n: usize, rank: &[u32], arena: &[ArenaArc]) -> (Vec<u32>, Vec<UpArc>) {
    let mut counts = vec![0u32; n + 1];
    let orient = |arc: &ArenaArc| -> (NodeId, NodeId) {
        if rank[arc.tail as usize] < rank[arc.head as usize] {
            (arc.tail, arc.head)
        } else {
            (arc.head, arc.tail)
        }
    };
    for arc in arena {
        let (t, _) = orient(arc);
        counts[t as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts.clone();
    let mut arcs = vec![
        UpArc {
            head: 0,
            weight: 0.0
        };
        arena.len()
    ];
    let mut cursor = counts;
    for arc in arena {
        let (t, h) = orient(arc);
        let at = cursor[t as usize] as usize;
        cursor[t as usize] += 1;
        arcs[at] = UpArc {
            head: h,
            weight: arc.weight,
        };
    }
    (offsets, arcs)
}

fn next_line<B: BufRead>(lines: &mut std::io::Lines<B>) -> io::Result<String> {
    lines
        .next()
        .ok_or_else(|| bad_data("unexpected end of ch section"))?
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>) -> io::Result<T> {
    field
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_data("malformed ch field"))
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::grid_nearest;
    use crate::dijkstra::{dijkstra_all, dijkstra_targets};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_graph(rng: &mut StdRng, n: usize, extra: usize, zero_frac: f64) -> CsrGraph {
        let mut edges = Vec::new();
        let weight = |rng: &mut StdRng| {
            if rng.gen_bool(zero_frac) {
                0.0
            } else {
                rng.gen_range(0.1..10.0)
            }
        };
        for v in 1..n {
            let u = rng.gen_range(0..v);
            let w = weight(rng);
            edges.push((u as NodeId, v as NodeId, w));
        }
        for _ in 0..extra {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                let w = weight(rng);
                edges.push((u as NodeId, v as NodeId, w));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    /// Random graph with several disconnected components, so unreachable
    /// pairs occur.
    fn random_disconnected(rng: &mut StdRng, n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        let parts = 3.min(n);
        for v in parts..n {
            let u = rng.gen_range(0..v);
            if u % parts == v % parts {
                edges.push((u as NodeId, v as NodeId, rng.gen_range(0.1..10.0)));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    /// `w × h` grid with small integer weights: shortest paths tie
    /// exactly all over the grid, so one target often has several
    /// meeting vertices at the best key.
    fn integer_grid(rng: &mut StdRng, w: usize, h: usize) -> CsrGraph {
        let id = |x: usize, y: usize| (y * w + x) as NodeId;
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((id(x, y), id(x + 1, y), rng.gen_range(1..=3) as f64));
                }
                if y + 1 < h {
                    edges.push((id(x, y), id(x, y + 1), rng.gen_range(1..=3) as f64));
                }
            }
        }
        CsrGraph::from_edges(w * h, &edges)
    }

    fn assert_bits_eq(got: f64, want: f64, ctx: &str) {
        assert!(
            got.to_bits() == want.to_bits(),
            "{ctx}: ch={got:?} ({:#x}) dijkstra={want:?} ({:#x})",
            got.to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn tiny_path_graph() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]);
        let ch = ChOracle::build(&g);
        let mut s = ChSearch::new();
        let (d, settles) = ch.dists(&mut s, &[(0, 0.0)], &[0, 1, 2, 3]);
        assert_eq!(d, vec![0.0, 1.0, 3.0, 6.0]);
        assert!(settles > 0);
    }

    #[test]
    fn zero_weight_and_parallel_edges() {
        let g = CsrGraph::from_edges(
            4,
            &[
                (0, 1, 0.0),
                (0, 1, 1.0),
                (1, 2, 0.0),
                (2, 3, 5.0),
                (0, 3, 5.0),
            ],
        );
        let ch = ChOracle::build(&g);
        let mut s = ChSearch::new();
        let targets = [0, 1, 2, 3];
        let want = dijkstra_targets(&g, &[(0, 0.25)], &targets);
        let (got, _) = ch.dists(&mut s, &[(0, 0.25)], &targets);
        for (j, &t) in targets.iter().enumerate() {
            assert_bits_eq(got[j], want[t as usize], &format!("target {t}"));
        }
    }

    #[test]
    fn unreachable_targets_are_infinity() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let ch = ChOracle::build(&g);
        let mut s = ChSearch::new();
        let (d, _) = ch.dists(&mut s, &[(0, 0.5)], &[1, 2, 3]);
        assert_eq!(d[0], 1.5);
        assert_eq!(d[1], INFINITY);
        assert_eq!(d[2], INFINITY);
    }

    #[test]
    fn empty_graph_and_empty_queries() {
        let g = CsrGraph::from_edges(0, &[]);
        let ch = ChOracle::build(&g);
        let mut s = ChSearch::new();
        let (d, settles) = ch.batch_dists(&mut s, &[], &[]);
        assert!(d.is_empty());
        assert_eq!(settles, 0);
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_graph(&mut rng, 400, 500, 0.05);
        let seq = ChOracle::build_with_threads(&g, 1);
        let mut seq_bytes = Vec::new();
        seq.write_text(&mut seq_bytes).unwrap();
        for threads in [2usize, 4, 8, 0] {
            let par = ChOracle::build_with_threads(&g, threads);
            assert_eq!(seq.rank, par.rank, "rank differs at {threads} threads");
            assert_eq!(seq.arena.len(), par.arena.len());
            for (a, b) in seq.arena.iter().zip(par.arena.iter()) {
                assert_eq!(a.tail, b.tail);
                assert_eq!(a.head, b.head);
                assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            }
            // The full serialized text (rank + arena) must match too.
            let mut par_bytes = Vec::new();
            par.write_text(&mut par_bytes).unwrap();
            assert_eq!(
                seq_bytes, par_bytes,
                "serialized ch differs at {threads} threads"
            );
        }
    }

    #[test]
    fn build_stats_count_rounds_and_witness_reuse() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = random_graph(&mut rng, 200, 260, 0.05);
        let (ch, stats) = ChOracle::build_with_stats(&g, 2);
        assert!(stats.rounds >= 1, "at least one contraction round");
        assert_eq!(stats.shortcuts, ch.num_shortcuts());
        assert_eq!(stats.workspaces, 2);
        assert!(stats.witness_resets > 0);
        // Workspaces are reused across candidates: all but the first
        // search per workspace recycles warm storage.
        assert!(stats.witness_recycles >= stats.witness_resets - u64::from(stats.workspaces));
    }

    #[test]
    fn text_round_trip_preserves_answers() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = random_graph(&mut rng, 60, 80, 0.1);
        let ch = ChOracle::build(&g);
        let mut buf = Vec::new();
        ch.write_text(&mut buf).unwrap();
        let mut lines = std::io::BufReader::new(&buf[..]).lines();
        let back = ChOracle::read_text(&mut lines).unwrap();
        assert_eq!(ch.label_offsets, back.label_offsets);
        assert_eq!(ch.labels.len(), back.labels.len());
        for (a, b) in ch.labels.iter().zip(&back.labels) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.dist.to_bits(), b.dist.to_bits());
        }
        let mut s = ChSearch::new();
        let targets: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        for src in 0..6 {
            let (a, _) = ch.dists(&mut s, &[(src, 0.0)], &targets);
            let (b, _) = back.dists(&mut s, &[(src, 0.0)], &targets);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn label_entries_take_16_bytes() {
        assert_eq!(std::mem::size_of::<LabelEntry>(), 16);
        let ch = ChOracle::build(&CsrGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]));
        assert_eq!(ch.label_bytes(), 16 * ch.num_label_entries());
    }

    #[test]
    fn labels_are_rooted_upward_trees() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_graph(&mut rng, 120, 150, 0.05);
        let ch = ChOracle::build(&g);
        for t in 0..g.num_nodes() as NodeId {
            let label = ch.label(t);
            assert_eq!((label[0].node, label[0].dist), (t, 0.0));
            for pair in label.windows(2) {
                // Settle order: distances never decrease, and every
                // entry past the root ranks above it.
                assert!(pair[0].dist <= pair[1].dist);
                assert!(ch.rank[pair[1].node as usize] > ch.rank[t as usize]);
            }
        }
    }

    #[test]
    fn grid_ties_meet_at_several_label_vertices() {
        // Unit grid: every monotone staircase is a shortest path, so
        // most targets meet the forward sweep at several label vertices
        // with exactly equal keys, and the one minimum is still exact.
        let mut edges = Vec::new();
        for y in 0..6u32 {
            for x in 0..6u32 {
                if x < 5 {
                    edges.push((y * 6 + x, y * 6 + x + 1, 1.0));
                }
                if y < 5 {
                    edges.push((y * 6 + x, (y + 1) * 6 + x, 1.0));
                }
            }
        }
        let g = CsrGraph::from_edges(36, &edges);
        let ch = ChOracle::build(&g);
        let mut s = ChSearch::new();
        let targets: Vec<NodeId> = (0..36).collect();
        let (got, _) = ch.dists(&mut s, &[(0, 0.0)], &targets);
        let want = dijkstra_targets(&g, &[(0, 0.0)], &targets);
        for &t in &targets {
            assert_bits_eq(got[t as usize], want[t as usize], &format!("target {t}"));
        }
        ch.upward_sweep(&mut s, &[(0, 0.0)]);
        let tied = targets
            .iter()
            .filter(|&&t| {
                let keys = ch.label(t).iter().map(|l| s.dist[l.node as usize] + l.dist);
                keys.filter(|&k| k == want[t as usize]).count() > 1
            })
            .count();
        assert!(tied > 0, "expected targets with tied meeting keys");
    }

    #[test]
    fn hard_reset_after_half_finished_batch_stays_bit_identical() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = random_graph(&mut rng, 80, 120, 0.05);
        let ch = ChOracle::build(&g);
        let targets: Vec<NodeId> = (0..80).step_by(3).collect();
        let seeds = [(5, 0.5), (40, 1.25)];
        let (want, _) = ch.dists(&mut ChSearch::new(), &seeds, &targets);

        // Leave the workspace as an unwind out of `batch_dists` would:
        // a forward sweep never reset, a stranded heap entry, and
        // half-filled dedup and result scratch.
        let mut s = ChSearch::new();
        s.prepare(ch.num_nodes());
        ch.upward_sweep(&mut s, &[(17, 0.0)]);
        s.heap.push_or_decrease(60, 0.75);
        s.distinct.extend_from_slice(&[3, 9]);
        s.tcol.push(1);
        s.met.push(2.5);

        s.hard_reset();
        for round in 0..2 {
            let (got, _) = ch.dists(&mut s, &seeds, &targets);
            for (j, &t) in targets.iter().enumerate() {
                assert_bits_eq(got[j], want[j], &format!("round {round} target {t}"));
            }
        }
    }

    #[test]
    fn pinned_sweep_serves_repeated_sources_bit_identically() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..60);
            let g = random_graph(&mut rng, n, n, 0.05);
            let ch = ChOracle::build(&g);
            let mut s = ChSearch::new();
            let pick = |rng: &mut StdRng| -> Vec<NodeId> {
                let len = rng.gen_range(1..8);
                (0..len).map(|_| rng.gen_range(0..n) as NodeId).collect()
            };
            let sources: Vec<[(NodeId, f64); 2]> = (0..3)
                .map(|_| {
                    let d = |rng: &mut StdRng| grid_nearest(rng.gen_range(0.0..2.0));
                    [
                        (rng.gen_range(0..n) as NodeId, d(&mut rng)),
                        (rng.gen_range(0..n) as NodeId, d(&mut rng)),
                    ]
                })
                .collect();
            for seeds in &sources {
                let mut charged = 0;
                for call in 0..4 {
                    let targets = pick(&mut rng);
                    let (want, sweep) = ch.batch_dists(&mut ChSearch::new(), &[seeds], &targets);
                    let (got, settles) = ch.pinned_dists(&mut s, seeds, &targets);
                    let ctx = format!("seed {seed} source {seeds:?} call {call}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_bits_eq(*g, *w, &ctx);
                    }
                    assert_eq!(settles, if call == 0 { sweep } else { 0 }, "{ctx}");
                    charged += settles;
                    assert!(s.is_pinned(seeds), "{ctx}");
                    // A batch on the same workspace leaves the pin alone.
                    let other = pick(&mut rng);
                    ch.batch_dists(&mut s, &[&[(0, 0.0)]], &other);
                }
                assert!(charged > 0, "seed {seed}: the first call swept");
                // A fault drops the pin; re-pinning gives the same bits.
                let targets = pick(&mut rng);
                let (before, _) = ch.pinned_dists(&mut s, seeds, &targets);
                ch.upward_sweep(&mut s, &[(0, 0.5)]);
                s.hard_reset();
                assert!(!s.is_pinned(seeds));
                let (after, settles) = ch.pinned_dists(&mut s, seeds, &targets);
                assert_eq!(settles, charged, "seed {seed}: re-pinning sweeps again");
                for (a, b) in after.iter().zip(&before) {
                    assert_bits_eq(*a, *b, &format!("seed {seed} after hard_reset"));
                }
            }
        }
    }

    #[test]
    fn read_text_rejects_garbage() {
        for text in [
            "",
            "notch 1 0 0\n",
            "ch 2 1 1\n0\n1\n0 5 1.0\n",
            "ch 2 1 1\n0\n0\n0 1 1.0\n",
            "ch 2 1 1\n0\n1\n0 1 -1.0\n",
            "ch 2 1 1\n0\n1\n0 1 0.1\n",
            "ch 2 1 1\n0\n1\n0 1 1.0 4294967295 0 0\n",
        ] {
            let mut lines = std::io::BufReader::new(text.as_bytes()).lines();
            assert!(
                ChOracle::read_text(&mut lines).is_err(),
                "accepted {text:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// CH answers are bit-identical to Dijkstra on random connected
        /// graphs with zero-weight and parallel edges, including seeded
        /// (on-edge style) multi-source queries.
        #[test]
        fn matches_dijkstra_bitwise(seed in 0u64..2000, n in 2usize..40, extra in 0usize..60) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_graph(&mut rng, n, extra, 0.08);
            let ch = ChOracle::build_with_threads(&g, if seed % 2 == 0 { 1 } else { 3 });
            let mut s = ChSearch::new();
            let targets: Vec<NodeId> = (0..n as NodeId).collect();
            for _ in 0..3 {
                let s1 = rng.gen_range(0..n) as NodeId;
                let s2 = rng.gen_range(0..n) as NodeId;
                let d1 = grid_nearest(rng.gen_range(0.0..4.0));
                let d2 = grid_nearest(rng.gen_range(0.0..4.0));
                let seeds = [(s1, d1), (s2, d2)];
                let want = dijkstra_all(&g, &seeds);
                let (got, _) = ch.dists(&mut s, &seeds, &targets);
                for v in 0..n {
                    prop_assert_eq!(
                        got[v].to_bits(), want[v].to_bits(),
                        "seed {} n {} v {}: ch={:?} dijkstra={:?}", seed, n, v, got[v], want[v]
                    );
                }
            }
        }

        /// The many-to-many kernel agrees with per-source Dijkstra runs
        /// on graphs with unreachable pairs.
        #[test]
        fn batch_matches_dijkstra_on_disconnected(seed in 0u64..1000, n in 4usize..36) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_disconnected(&mut rng, n);
            let ch = ChOracle::build(&g);
            let mut s = ChSearch::new();
            // Duplicate targets exercise the dedup path.
            let mut targets: Vec<NodeId> = (0..n as NodeId).collect();
            targets.push(0);
            targets.push((n / 2) as NodeId);
            let seed_lists: Vec<Vec<(NodeId, f64)>> = (0..3)
                .map(|_| vec![(rng.gen_range(0..n) as NodeId, grid_nearest(rng.gen_range(0.0..2.0)))])
                .collect();
            let refs: Vec<&[(NodeId, f64)]> = seed_lists.iter().map(|v| v.as_slice()).collect();
            let (got, _) = ch.batch_dists(&mut s, &refs, &targets);
            for (i, seeds) in seed_lists.iter().enumerate() {
                let want = dijkstra_targets(&g, seeds, &targets);
                for (j, &t) in targets.iter().enumerate() {
                    prop_assert_eq!(
                        got[i * targets.len() + j].to_bits(),
                        want[t as usize].to_bits(),
                        "seed {} source {} target {}", seed, i, t
                    );
                }
            }
        }

        /// The label kernel's tie path: on integer-weight grids several
        /// meeting vertices tie exactly at the minimum key. Two-seed
        /// sources and duplicate targets must still match per-source
        /// Dijkstra bitwise.
        #[test]
        fn grid_ties_match_dijkstra_bitwise(seed in 0u64..1000, w in 2usize..9, h in 2usize..9) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = integer_grid(&mut rng, w, h);
            let n = w * h;
            let ch = ChOracle::build(&g);
            let mut s = ChSearch::new();
            let mut targets: Vec<NodeId> = (0..n as NodeId).collect();
            targets.extend([0, (n / 2) as NodeId, (n - 1) as NodeId]);
            let seed_lists: Vec<Vec<(NodeId, f64)>> = (0..3)
                .map(|_| {
                    (0..2)
                        .map(|_| (rng.gen_range(0..n) as NodeId, rng.gen_range(0..3) as f64))
                        .collect()
                })
                .collect();
            let refs: Vec<&[(NodeId, f64)]> = seed_lists.iter().map(|v| v.as_slice()).collect();
            let (got, _) = ch.batch_dists(&mut s, &refs, &targets);
            for (i, seeds) in seed_lists.iter().enumerate() {
                let want = dijkstra_targets(&g, seeds, &targets);
                for (j, &t) in targets.iter().enumerate() {
                    prop_assert_eq!(
                        got[i * targets.len() + j].to_bits(),
                        want[t as usize].to_bits(),
                        "seed {} {}x{} source {} target {}", seed, w, h, i, t
                    );
                }
            }
        }
    }
}
