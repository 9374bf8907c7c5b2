//! The road-network index `I_R` (paper Section 4.1).
//!
//! An R\*-tree over POI locations, augmented with:
//!
//! * per-POI (leaf) data: `sup_K = ∪ keywords(⊙(o_i, 2·r_max))`,
//!   `sub_K = ∪ keywords(⊙(o_i, r_min))` (both as exact keyword lists and
//!   hashed bit-vector signatures `V_sup` / `V_sub`), plus exact road
//!   distances to the `h` road pivots;
//! * per-node data: the bit-OR of descendant `V_sup` signatures, sample
//!   POIs (whose `sub_K` drives the lower-bound matching score, Eq. 18),
//!   and lower/upper pivot-distance bounds over all descendant POIs
//!   (Eqs. 7–8).

use crate::build::{BuildStages, PAR_FLOOR};
use gpssn_graph::{par_map, workers, ChOracle, DijkstraWorkspace};
use gpssn_road::{PoiId, PoiSet, RoadNetwork, RoadPivots};
use gpssn_spatial::{Entry, KeywordSignature, NodeId, RStarTree};

/// Build-time parameters of `I_R`.
#[derive(Debug, Clone)]
pub struct RoadIndexConfig {
    /// R\*-tree node capacity (one node = one simulated page).
    pub node_capacity: usize,
    /// Smallest radius a query may use (`r_min`); drives `sub_K`.
    pub r_min: f64,
    /// Largest radius a query may use (`r_max`); drives `sup_K` via
    /// `⊙(o_i, 2·r_max)`.
    pub r_max: f64,
    /// Sample POIs retained per node for Eq. (18).
    pub samples_per_node: usize,
    /// Keep the contraction-hierarchy distance oracle in the index so
    /// refinement can answer `dist_RN` probes without full Dijkstra runs
    /// (bit-identical answers; see `gpssn_graph::ch`). The engine
    /// contracts the CH either way, because Algorithm 1 prices its road
    /// candidates with it, so disabling this saves no build time; it
    /// drops the oracle after selection, and queries fall back to plain
    /// Dijkstra (the differential harness's no-CH cells).
    pub build_ch: bool,
}

impl Default for RoadIndexConfig {
    fn default() -> Self {
        RoadIndexConfig {
            node_capacity: 32,
            r_min: 0.5,
            r_max: 4.0,
            samples_per_node: 3,
            build_ch: true,
        }
    }
}

/// Leaf-level augmentation of one POI.
#[derive(Debug, Clone)]
pub struct PoiAugment {
    /// `sup_K`: keyword union over `⊙(o_i, 2·r_max)` (sorted, dedup).
    pub sup_keywords: Vec<u32>,
    /// `sub_K`: keyword union over `⊙(o_i, r_min)`.
    pub sub_keywords: Vec<u32>,
    /// Hashed signature of `sup_K` (`o_i.V_sup`).
    pub sup_sig: KeywordSignature,
    /// Hashed signature of `sub_K` (`o_i.V_sub`).
    pub sub_sig: KeywordSignature,
    /// Exact road distances `dist_RN(o_i, rp_k)` to the `h` pivots.
    pub pivot_dists: Vec<f64>,
}

/// Node-level augmentation of one R\*-tree node.
#[derive(Debug, Clone)]
pub struct RoadNodeAugment {
    /// Bit-OR of descendant `V_sup` signatures (`e_R.V_sup`).
    pub sup_sig: KeywordSignature,
    /// `lb_dist_RN(e_R, rp_k)` per pivot (Eq. 7).
    pub lb_pivot: Vec<f64>,
    /// `ub_dist_RN(e_R, rp_k)` per pivot (Eq. 8).
    pub ub_pivot: Vec<f64>,
    /// Sample POIs under the node (for the Eq. 18 lower bound).
    pub samples: Vec<PoiId>,
    /// Number of POIs below the node.
    pub poi_count: usize,
}

/// The road-network index `I_R`.
#[derive(Debug, Clone)]
pub struct RoadIndex {
    tree: RStarTree,
    poi_aug: Vec<PoiAugment>,
    node_aug: Vec<RoadNodeAugment>,
    pivots: RoadPivots,
    cfg: RoadIndexConfig,
    /// Contraction-hierarchy oracle over the road graph, contracted once
    /// per build (absent when the index was built or loaded without
    /// one — queries then fall back to Dijkstra).
    ch: Option<ChOracle>,
}

impl RoadIndex {
    /// Builds `I_R` over the POIs of `pois` with the given road pivots,
    /// contracting the road graph's CH first when `cfg.build_ch`.
    ///
    /// Cost: one bounded Dijkstra per POI per radius (`r_min`, `2·r_max`)
    /// plus one Dijkstra per pivot (inside [`RoadPivots::new`], already
    /// done by the caller). Parallelized over all cores; the result is
    /// bit-identical for every thread count.
    pub fn build(
        road: &RoadNetwork,
        pois: &PoiSet,
        pivots: RoadPivots,
        cfg: RoadIndexConfig,
    ) -> Self {
        let ch = cfg.build_ch.then(|| ChOracle::build(road.graph()));
        Self::build_with_stages(road, pois, pivots, cfg, ch, 0).0
    }

    /// [`RoadIndex::build`] over `threads` workers (`0` = all cores)
    /// around an already contracted CH of the road graph (see
    /// [`BuildStages::contract_ch`]; the engine contracts it before pivot
    /// selection, which prices its road candidates with it). The index
    /// keeps `ch` only when `cfg.build_ch`. Also returns per-stage
    /// wall-clock timings (for the `gpssn_build_stage_ns{stage}`
    /// telemetry and `report build`). The thread count changes wall
    /// clock only, never the index.
    pub fn build_with_stages(
        road: &RoadNetwork,
        pois: &PoiSet,
        pivots: RoadPivots,
        cfg: RoadIndexConfig,
        ch: Option<ChOracle>,
        threads: usize,
    ) -> (Self, BuildStages) {
        assert!(
            cfg.r_min > 0.0 && cfg.r_max >= cfg.r_min,
            "invalid radius range"
        );
        let mut stages = BuildStages::default();
        let n = pois.len();
        // The hottest loop of the build: two radius-bounded ball
        // Dijkstras per POI. Each POI's augment is a pure function of
        // the POI id, so the loop fans out over contiguous id chunks —
        // one reusable Dijkstra workspace per worker — and the merged
        // result is the sequential one, in id order, for every thread
        // count.
        let poi_aug: Vec<PoiAugment> = stages.time("poi_augment", || {
            let mut pool: Vec<DijkstraWorkspace> = (0..workers(threads))
                .map(|_| DijkstraWorkspace::new())
                .collect();
            par_map(&mut pool, n, PAR_FLOOR, |ws, i| {
                let id = i as PoiId;
                let center = pois.get(id).position;
                let sup_ball: Vec<PoiId> = pois
                    .network_ball_with(road, ws, &center, 2.0 * cfg.r_max)
                    .into_iter()
                    .map(|(o, _)| o)
                    .collect();
                let sub_ball: Vec<PoiId> = pois
                    .network_ball_with(road, ws, &center, cfg.r_min)
                    .into_iter()
                    .map(|(o, _)| o)
                    .collect();
                let sup_keywords = pois.keyword_union(&sup_ball);
                let sub_keywords = pois.keyword_union(&sub_ball);
                let sup_sig = KeywordSignature::from_keywords(sup_keywords.iter().copied());
                let sub_sig = KeywordSignature::from_keywords(sub_keywords.iter().copied());
                let pivot_dists = pivots.point_dists(road, &center);
                PoiAugment {
                    sup_keywords,
                    sub_keywords,
                    sup_sig,
                    sub_sig,
                    pivot_dists,
                }
            })
        });

        let tree = stages.time("rstar_str", || {
            RStarTree::str_bulk_load(
                cfg.node_capacity,
                (0..n as PoiId).map(|id| (id, pois.location(id))),
            )
        });
        let node_aug = stages.time("node_aggregate", || {
            aggregate(&tree, &poi_aug, pivots.len(), cfg.samples_per_node)
        });
        let ch = ch.filter(|_| cfg.build_ch);
        let idx = RoadIndex {
            tree,
            poi_aug,
            node_aug,
            pivots,
            cfg,
            ch,
        };
        (idx, stages)
    }

    /// Reassembles an index from deserialized parts: the R\*-tree is
    /// re-bulk-built (deterministic given the POI set and node capacity —
    /// the same STR packing the builder uses, so built and loaded trees
    /// are identical) and node augments re-aggregated, so only the
    /// expensive-to-recompute parts (per-POI keyword balls, the CH
    /// oracle) come from the file.
    pub(crate) fn from_loaded_parts(
        pois: &PoiSet,
        pivots: RoadPivots,
        cfg: RoadIndexConfig,
        poi_aug: Vec<PoiAugment>,
        ch: Option<ChOracle>,
    ) -> Self {
        let n = poi_aug.len();
        let tree = RStarTree::str_bulk_load(
            cfg.node_capacity,
            (0..n as PoiId).map(|id| (id, pois.location(id))),
        );
        let node_aug = aggregate(&tree, &poi_aug, pivots.len(), cfg.samples_per_node);
        RoadIndex {
            tree,
            poi_aug,
            node_aug,
            pivots,
            cfg,
            ch,
        }
    }

    /// The contraction-hierarchy oracle, if the index carries one.
    #[inline]
    pub fn ch(&self) -> Option<&ChOracle> {
        self.ch.as_ref()
    }

    /// The underlying R\*-tree.
    #[inline]
    pub fn tree(&self) -> &RStarTree {
        &self.tree
    }

    /// Leaf augmentation of POI `id`.
    #[inline]
    pub fn poi(&self, id: PoiId) -> &PoiAugment {
        &self.poi_aug[id as usize]
    }

    /// Node augmentation of tree node `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> &RoadNodeAugment {
        &self.node_aug[id as usize]
    }

    /// The road pivots the index was built with.
    #[inline]
    pub fn pivots(&self) -> &RoadPivots {
        &self.pivots
    }

    /// Build configuration.
    #[inline]
    pub fn config(&self) -> &RoadIndexConfig {
        &self.cfg
    }

    /// Number of index pages (nodes).
    pub fn num_pages(&self) -> usize {
        self.tree.num_nodes()
    }

    /// Number of indexed POIs.
    #[inline]
    pub fn num_pois(&self) -> usize {
        self.poi_aug.len()
    }
}

/// Bottom-up aggregation of node augments.
fn aggregate(
    tree: &RStarTree,
    poi_aug: &[PoiAugment],
    num_pivots: usize,
    samples_per_node: usize,
) -> Vec<RoadNodeAugment> {
    let empty = RoadNodeAugment {
        sup_sig: KeywordSignature::empty(),
        lb_pivot: vec![f64::INFINITY; num_pivots],
        ub_pivot: vec![f64::NEG_INFINITY; num_pivots],
        samples: Vec::new(),
        poi_count: 0,
    };
    let mut aug = vec![empty; tree.num_nodes()];
    // Post-order via explicit stack.
    let mut order = Vec::with_capacity(tree.num_nodes());
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        order.push(id);
        for e in &tree.node(id).entries {
            if let Entry::Child { node, .. } = *e {
                stack.push(node);
            }
        }
    }
    for &id in order.iter().rev() {
        let node = tree.node(id);
        let mut a = aug[id as usize].clone();
        for e in &node.entries {
            match *e {
                Entry::Item { item, .. } => {
                    let p = &poi_aug[item as usize];
                    a.sup_sig.union_in_place(&p.sup_sig);
                    for k in 0..num_pivots {
                        a.lb_pivot[k] = a.lb_pivot[k].min(p.pivot_dists[k]);
                        a.ub_pivot[k] = a.ub_pivot[k].max(p.pivot_dists[k]);
                    }
                    if a.samples.len() < samples_per_node {
                        a.samples.push(item);
                    }
                    a.poi_count += 1;
                }
                Entry::Child { node: c, .. } => {
                    let child = &aug[c as usize];
                    a.sup_sig.union_in_place(&child.sup_sig);
                    for k in 0..num_pivots {
                        a.lb_pivot[k] = a.lb_pivot[k].min(child.lb_pivot[k]);
                        a.ub_pivot[k] = a.ub_pivot[k].max(child.ub_pivot[k]);
                    }
                    for &s in &child.samples {
                        if a.samples.len() < samples_per_node {
                            a.samples.push(s);
                        }
                    }
                    a.poi_count += child.poi_count;
                }
            }
        }
        aug[id as usize] = a;
    }
    aug
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpssn_graph::ValueDistribution;
    use gpssn_road::{generate_pois, generate_road_network, PoiGenConfig, RoadGenConfig};
    use rand::{rngs::StdRng, SeedableRng};

    fn small_instance() -> (RoadNetwork, PoiSet) {
        let mut rng = StdRng::seed_from_u64(21);
        let road = generate_road_network(
            &RoadGenConfig {
                num_vertices: 300,
                space_size: 30.0,
                neighbors_per_vertex: 2,
            },
            &mut rng,
        );
        let pois = PoiSet::new(
            &road,
            generate_pois(
                &road,
                &PoiGenConfig {
                    num_pois: 150,
                    num_keywords: 5,
                    max_keywords_per_poi: 3,
                    distribution: ValueDistribution::Uniform,
                    keyword_locality: 0.8,
                },
                &mut rng,
            ),
        );
        (road, pois)
    }

    fn build(road: &RoadNetwork, pois: &PoiSet) -> RoadIndex {
        let pivots = RoadPivots::new(road, vec![0, 50, 100]);
        RoadIndex::build(
            road,
            pois,
            pivots,
            RoadIndexConfig {
                r_max: 3.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn sup_contains_own_and_sub_keywords() {
        let (road, pois) = small_instance();
        let idx = build(&road, &pois);
        for id in 0..pois.len() as PoiId {
            let a = idx.poi(id);
            // A POI is in its own sup and sub balls.
            for &k in &pois.get(id).keywords {
                assert!(
                    a.sup_keywords.contains(&k),
                    "poi {id} sup misses own keyword {k}"
                );
                assert!(
                    a.sub_keywords.contains(&k),
                    "poi {id} sub misses own keyword {k}"
                );
            }
            // sub ⊆ sup (r_min <= 2*r_max).
            for &k in &a.sub_keywords {
                assert!(a.sup_keywords.contains(&k));
            }
            assert!(a.sub_sig.is_subset_of(&a.sup_sig));
        }
    }

    #[test]
    fn node_signature_covers_descendants() {
        let (road, pois) = small_instance();
        let idx = build(&road, &pois);
        let root = idx.tree().root();
        let root_aug = idx.node(root);
        assert_eq!(root_aug.poi_count, pois.len());
        for id in 0..pois.len() as PoiId {
            assert!(idx.poi(id).sup_sig.is_subset_of(&root_aug.sup_sig));
        }
        assert!(!root_aug.samples.is_empty());
    }

    #[test]
    fn node_pivot_bounds_bracket_descendants() {
        let (road, pois) = small_instance();
        let idx = build(&road, &pois);
        // Check every node against the POIs actually below it.
        for node_id in 0..idx.tree().num_nodes() as u32 {
            let a = idx.node(node_id);
            if a.poi_count == 0 {
                continue;
            }
            // Gather descendants.
            let mut stack = vec![node_id];
            let mut below = Vec::new();
            while let Some(id) = stack.pop() {
                for e in &idx.tree().node(id).entries {
                    match *e {
                        Entry::Item { item, .. } => below.push(item),
                        Entry::Child { node, .. } => stack.push(node),
                    }
                }
            }
            for k in 0..idx.pivots().len() {
                let min = below
                    .iter()
                    .map(|&o| idx.poi(o).pivot_dists[k])
                    .fold(f64::INFINITY, f64::min);
                let max = below
                    .iter()
                    .map(|&o| idx.poi(o).pivot_dists[k])
                    .fold(f64::NEG_INFINITY, f64::max);
                assert!((a.lb_pivot[k] - min).abs() < 1e-9);
                assert!((a.ub_pivot[k] - max).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn sub_keywords_shrink_with_smaller_r_min() {
        let (road, pois) = small_instance();
        let pivots = RoadPivots::new(&road, vec![0]);
        let wide = RoadIndex::build(
            &road,
            &pois,
            pivots.clone(),
            RoadIndexConfig {
                r_min: 2.0,
                r_max: 3.0,
                ..Default::default()
            },
        );
        let narrow = RoadIndex::build(
            &road,
            &pois,
            pivots,
            RoadIndexConfig {
                r_min: 0.2,
                r_max: 3.0,
                ..Default::default()
            },
        );
        let mut narrower_somewhere = false;
        for id in 0..pois.len() as PoiId {
            let w = &wide.poi(id).sub_keywords;
            let n = &narrow.poi(id).sub_keywords;
            assert!(
                n.iter().all(|k| w.contains(k)),
                "narrow sub ⊄ wide sub for poi {id}"
            );
            if n.len() < w.len() {
                narrower_somewhere = true;
            }
        }
        assert!(narrower_somewhere, "r_min had no effect at all");
    }

    /// The tentpole determinism claim at index level: the whole `I_R`
    /// build — POI augments, STR tree, aggregates, CH oracle — is
    /// bit-identical for every thread count, so the serialized file is
    /// byte-identical too.
    #[test]
    fn build_is_thread_count_invariant() {
        let (road, pois) = small_instance();
        let build_at = |threads: usize| {
            let pivots = RoadPivots::new(&road, vec![0, 50, 100]);
            RoadIndex::build_with_stages(
                &road,
                &pois,
                pivots,
                RoadIndexConfig {
                    r_max: 3.0,
                    ..Default::default()
                },
                Some(ChOracle::build_with_threads(road.graph(), threads)),
                threads,
            )
            .0
        };
        let base = build_at(1);
        let mut base_bytes = Vec::new();
        crate::io::write_road_index(&base, &mut base_bytes).unwrap();
        for threads in [2, 8, 0] {
            let idx = build_at(threads);
            assert_eq!(idx.num_pages(), base.num_pages(), "threads={threads}");
            for id in 0..pois.len() as PoiId {
                let (x, y) = (idx.poi(id), base.poi(id));
                assert_eq!(x.sup_keywords, y.sup_keywords, "threads={threads}");
                assert_eq!(x.sub_keywords, y.sub_keywords, "threads={threads}");
                let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|d| d.to_bits()).collect() };
                assert_eq!(
                    bits(&x.pivot_dists),
                    bits(&y.pivot_dists),
                    "threads={threads}"
                );
            }
            let mut bytes = Vec::new();
            crate::io::write_road_index(&idx, &mut bytes).unwrap();
            assert_eq!(
                bytes, base_bytes,
                "serialized bytes differ at threads={threads}"
            );
        }
    }

    #[test]
    fn build_stages_cover_the_pipeline() {
        let (road, pois) = small_instance();
        let pivots = RoadPivots::new(&road, vec![0, 50]);
        let mut contract = BuildStages::default();
        let oracle = contract.contract_ch(road.graph(), 1);
        let (idx, stages) = RoadIndex::build_with_stages(
            &road,
            &pois,
            pivots,
            RoadIndexConfig {
                r_max: 3.0,
                ..Default::default()
            },
            Some(oracle),
            1,
        );
        let names: Vec<&str> = stages.stages.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["poi_augment", "rstar_str", "node_aggregate"]);
        assert!(stages.total() >= stages.get("poi_augment").unwrap());
        // The contraction is its own stage, and its counters ride along.
        assert!(contract.get("ch_contract").is_some());
        let ch = contract.ch.expect("CH stage stats");
        assert!(idx.ch().is_some());
        assert_eq!(ch.shortcuts, idx.ch().unwrap().num_shortcuts());
        assert!(ch.witness_resets > 0);
    }

    #[test]
    #[should_panic(expected = "invalid radius")]
    fn rejects_bad_radii() {
        let (road, pois) = small_instance();
        let pivots = RoadPivots::new(&road, vec![0]);
        RoadIndex::build(
            &road,
            &pois,
            pivots,
            RoadIndexConfig {
                r_min: 2.0,
                r_max: 1.0,
                ..Default::default()
            },
        );
    }
}
