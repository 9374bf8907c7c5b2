//! The social-network index `I_S` (paper Section 4.1).
//!
//! `G_s` is partitioned into balanced connected subgraphs (the leaf
//! nodes); connected groups of nodes are then recursively merged into
//! higher-level nodes until a single root remains. Every node stores:
//!
//! * `e_S.lb_w` / `e_S.ub_w` — elementwise lower/upper bounds of the
//!   interest vectors below the node (Eqs. 9–10), forming the interest
//!   MBR used by the index-level interest-score pruning (Lemma 8);
//! * lower/upper hop-distance bounds to each social pivot (Eqs. 11–12);
//! * lower/upper road-distance bounds from the users' homes to each road
//!   pivot (Eqs. 13–14).
//!
//! Leaf members additionally expose their exact per-pivot distance
//! vectors (social hops and road distances), as the paper stores in leaf
//! entries. Unreachable hop distances are saturated to `m + 1` (farther
//! than any finite hop distance), which keeps every triangle-inequality
//! bound valid across components — see the module tests.

use crate::build::{BuildStages, PAR_FLOOR};
use gpssn_graph::{par_map, partition_graph, workers, CsrGraph, NodeId as GraphNodeId};
use gpssn_road::RoadPivots;
use gpssn_social::{SocialPivots, UserId, UNREACHABLE_HOPS};
use gpssn_ssn::SpatialSocialNetwork;

/// Build-time parameters of `I_S`.
#[derive(Debug, Clone)]
pub struct SocialIndexConfig {
    /// Users per leaf partition.
    pub leaf_size: usize,
    /// Children per internal node.
    pub fanout: usize,
}

impl Default for SocialIndexConfig {
    fn default() -> Self {
        SocialIndexConfig {
            leaf_size: 64,
            fanout: 8,
        }
    }
}

/// One node of `I_S`.
#[derive(Debug, Clone)]
pub struct SocialNode {
    /// Height above the leaves (0 = leaf).
    pub level: u32,
    /// Child node ids (empty for leaves).
    pub children: Vec<u32>,
    /// Member users (populated for leaves only).
    pub users: Vec<UserId>,
    /// Per-topic lower bounds of descendant interest weights (Eq. 9).
    pub lb_w: Vec<f64>,
    /// Per-topic upper bounds of descendant interest weights (Eq. 10).
    pub ub_w: Vec<f64>,
    /// Per-social-pivot hop lower bounds (Eq. 11), saturated.
    pub lb_sn: Vec<u32>,
    /// Per-social-pivot hop upper bounds (Eq. 12), saturated.
    pub ub_sn: Vec<u32>,
    /// Per-road-pivot home-distance lower bounds (Eq. 13).
    pub lb_rn: Vec<f64>,
    /// Per-road-pivot home-distance upper bounds (Eq. 14).
    pub ub_rn: Vec<f64>,
    /// Number of users below the node.
    pub user_count: usize,
}

/// The social-network index `I_S`.
#[derive(Debug, Clone)]
pub struct SocialIndex {
    nodes: Vec<SocialNode>,
    root: u32,
    /// Saturated hop distances `[user][social pivot]`.
    user_sn: Vec<Vec<u32>>,
    /// Road distances from homes `[user][road pivot]`.
    user_rn: Vec<Vec<f64>>,
    social_pivots: SocialPivots,
    /// Saturation value for unreachable hops (`m + 1`).
    hop_saturation: u32,
}

impl SocialIndex {
    /// Builds `I_S` with the given pivots. Parallelized over all cores;
    /// the result is bit-identical for every thread count.
    pub fn build(
        ssn: &SpatialSocialNetwork,
        social_pivots: SocialPivots,
        road_pivots: &RoadPivots,
        cfg: &SocialIndexConfig,
    ) -> Self {
        Self::build_with_stages(ssn, social_pivots, road_pivots, cfg, 0).0
    }

    /// [`SocialIndex::build`] over `threads` workers (`0` = all cores),
    /// also returning per-stage wall-clock timings (for the
    /// `gpssn_build_stage_ns{stage}` telemetry and `report build`). The
    /// thread count changes wall clock only, never the index.
    pub fn build_with_stages(
        ssn: &SpatialSocialNetwork,
        social_pivots: SocialPivots,
        road_pivots: &RoadPivots,
        cfg: &SocialIndexConfig,
        threads: usize,
    ) -> (Self, BuildStages) {
        assert!(cfg.leaf_size >= 1 && cfg.fanout >= 2, "invalid index shape");
        let mut stages = BuildStages::default();
        let mut pool = vec![(); workers(threads)];
        let social = ssn.social();
        let m = social.num_users();
        let hop_saturation = (m + 1) as u32;
        let saturate = |h: u32| {
            if h == UNREACHABLE_HOPS {
                hop_saturation
            } else {
                h
            }
        };
        // Per-user pivot tables. The social side is table lookups; the
        // road side costs a seed lookup plus `h` table probes per user
        // and dominates, so both fan out over contiguous user chunks
        // (each user's row is a pure function of the user id).
        let (user_sn, user_rn) = stages.time("user_tables", || {
            let user_sn: Vec<Vec<u32>> = par_map(&mut pool, m, PAR_FLOOR, |_, u| {
                social_pivots
                    .user_dists(u as UserId)
                    .into_iter()
                    .map(saturate)
                    .collect()
            });
            let user_rn: Vec<Vec<f64>> = par_map(&mut pool, m, PAR_FLOOR, |_, u| {
                road_pivots.point_dists(ssn.road(), &ssn.home(u as UserId))
            });
            (user_sn, user_rn)
        });

        let d = social.num_topics();
        let l = social_pivots.len();
        let h = road_pivots.len();
        let blank = |level: u32| SocialNode {
            level,
            children: Vec::new(),
            users: Vec::new(),
            lb_w: vec![f64::INFINITY; d],
            ub_w: vec![f64::NEG_INFINITY; d],
            lb_sn: vec![u32::MAX; l],
            ub_sn: vec![0; l],
            lb_rn: vec![f64::INFINITY; h],
            ub_rn: vec![f64::NEG_INFINITY; h],
            user_count: 0,
        };

        // Level 0: balanced connected partitions of each dominant-topic
        // subgraph of G_s (the whole graph when there are no topics), then
        // one leaf node per partition. Pure graph partitioning (the
        // paper's METIS reference) gives topic-diverse leaves whose wide
        // interest MBRs defeat the index-level pruning of Lemma 8. Leaf
        // MBR/bound accumulation is independent per leaf, so it fans out
        // over leaf chunks.
        let t0 = std::time::Instant::now();
        let leaf_parts: Vec<Vec<UserId>> = if d > 0 {
            topic_aware_partition(ssn, cfg.leaf_size)
        } else {
            partition_graph(social.graph(), cfg.leaf_size).parts
        };
        stages.stages.push(("leaf_partition", t0.elapsed()));
        let t0 = std::time::Instant::now();
        let mut nodes: Vec<SocialNode> = par_map(&mut pool, leaf_parts.len(), PAR_FLOOR, |_, i| {
            let members = &leaf_parts[i];
            let mut node = blank(0);
            node.users = members.clone();
            for &u in members {
                let w = social.interest(u);
                for f in 0..d {
                    node.lb_w[f] = node.lb_w[f].min(w.weight(f));
                    node.ub_w[f] = node.ub_w[f].max(w.weight(f));
                }
                for (k, &d) in user_sn[u as usize].iter().enumerate() {
                    node.lb_sn[k] = node.lb_sn[k].min(d);
                    node.ub_sn[k] = node.ub_sn[k].max(d);
                }
                for (k, &d) in user_rn[u as usize].iter().enumerate() {
                    node.lb_rn[k] = node.lb_rn[k].min(d);
                    node.ub_rn[k] = node.ub_rn[k].max(d);
                }
            }
            node.user_count = members.len();
            node
        });
        let mut current: Vec<u32> = (0..nodes.len() as u32).collect();
        let mut part_of_user = vec![0u32; m];
        for (i, node) in nodes.iter().enumerate() {
            for &u in &node.users {
                part_of_user[u as usize] = i as u32;
            }
        }
        stages.stages.push(("leaf_nodes", t0.elapsed()));

        // Recursive grouping: connected subgraphs of the quotient graph.
        let t0 = std::time::Instant::now();
        let mut parent: Vec<u32> = vec![u32::MAX; nodes.len()];
        let mut level = 0u32;
        while current.len() > 1 {
            level += 1;
            // Quotient graph over `current` nodes.
            let idx_of: std::collections::HashMap<u32, u32> = current
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, i as u32))
                .collect();
            let mut qedges: std::collections::HashSet<(GraphNodeId, GraphNodeId)> =
                Default::default();
            for (a, b, _) in social.graph().edges() {
                // Map each user up to its current-level ancestor.
                let na = ancestor_at(&nodes, &parent, part_of_user[a as usize], level - 1);
                let nb = ancestor_at(&nodes, &parent, part_of_user[b as usize], level - 1);
                if na != nb {
                    let (x, y) = (idx_of[&na], idx_of[&nb]);
                    let key = if x < y { (x, y) } else { (y, x) };
                    qedges.insert(key);
                }
            }
            // Sort for determinism: HashSet iteration order varies per
            // instance and would leak into the partition structure.
            let mut qedge_list: Vec<(GraphNodeId, GraphNodeId, f64)> =
                qedges.into_iter().map(|(a, b)| (a, b, 1.0)).collect();
            qedge_list.sort_by_key(|a| (a.0, a.1));
            let quotient = CsrGraph::from_edges(current.len(), &qedge_list);
            let grouping = partition_graph(&quotient, cfg.fanout);
            let groups: Vec<Vec<u32>> = if grouping.num_parts() < current.len() {
                grouping
                    .parts
                    .iter()
                    .map(|g| g.iter().map(|&i| current[i as usize]).collect())
                    .collect()
            } else {
                // Degenerate quotient (no reduction): chunk sequentially.
                current.chunks(cfg.fanout).map(|c| c.to_vec()).collect()
            };
            let mut next: Vec<u32> = Vec::with_capacity(groups.len());
            for group in groups {
                let mut node = blank(level);
                for &child in &group {
                    let c = &nodes[child as usize];
                    for f in 0..d {
                        node.lb_w[f] = node.lb_w[f].min(c.lb_w[f]);
                        node.ub_w[f] = node.ub_w[f].max(c.ub_w[f]);
                    }
                    for k in 0..l {
                        node.lb_sn[k] = node.lb_sn[k].min(c.lb_sn[k]);
                        node.ub_sn[k] = node.ub_sn[k].max(c.ub_sn[k]);
                    }
                    for k in 0..h {
                        node.lb_rn[k] = node.lb_rn[k].min(c.lb_rn[k]);
                        node.ub_rn[k] = node.ub_rn[k].max(c.ub_rn[k]);
                    }
                    node.user_count += c.user_count;
                }
                node.children = group;
                next.push(nodes.len() as u32);
                nodes.push(node);
            }
            // Record parenthood for ancestor lookups.
            parent.resize(nodes.len(), u32::MAX);
            for &id in &next {
                for &c in &nodes[id as usize].children {
                    parent[c as usize] = id;
                }
            }
            current = next;
        }

        let root = current.first().copied().unwrap_or_else(|| {
            // Empty social network: synthesize an empty root.
            nodes.push(blank(0));
            (nodes.len() - 1) as u32
        });
        stages.stages.push(("tree_levels", t0.elapsed()));
        let idx = SocialIndex {
            nodes,
            root,
            user_sn,
            user_rn,
            social_pivots,
            hop_saturation,
        };
        (idx, stages)
    }

    /// Root node id.
    #[inline]
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, id: u32) -> &SocialNode {
        &self.nodes[id as usize]
    }

    /// Number of levels (1 for a single-leaf index).
    pub fn height(&self) -> u32 {
        self.nodes[self.root as usize].level + 1
    }

    /// Number of index pages (nodes).
    pub fn num_pages(&self) -> usize {
        self.nodes.len()
    }

    /// Saturated social-pivot hop distances of user `u`.
    #[inline]
    pub fn user_sn_dists(&self, u: UserId) -> &[u32] {
        &self.user_sn[u as usize]
    }

    /// Road-pivot distances of user `u`'s home.
    #[inline]
    pub fn user_rn_dists(&self, u: UserId) -> &[f64] {
        &self.user_rn[u as usize]
    }

    /// The social pivots.
    #[inline]
    pub fn social_pivots(&self) -> &SocialPivots {
        &self.social_pivots
    }

    /// The hop value unreachable distances were saturated to (`m + 1`).
    #[inline]
    pub fn hop_saturation(&self) -> u32 {
        self.hop_saturation
    }

    /// All users below node `id` (leaf members for leaves).
    pub fn users_under(&self, id: u32) -> Vec<UserId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(x) = stack.pop() {
            let node = &self.nodes[x as usize];
            out.extend_from_slice(&node.users);
            stack.extend_from_slice(&node.children);
        }
        out
    }
}

/// Partitions users per dominant-topic bucket: each bucket's induced
/// friendship subgraph is partitioned for connectivity, keeping leaf
/// interest MBRs topic-pure (tight along the dominant axis).
fn topic_aware_partition(ssn: &SpatialSocialNetwork, leaf_size: usize) -> Vec<Vec<UserId>> {
    let social = ssn.social();
    let m = social.num_users();
    let d = social.num_topics();
    // Dominant topic per user.
    let dominant: Vec<usize> = (0..m as UserId)
        .map(|u| {
            let w = social.interest(u);
            (0..d)
                .max_by(|&a, &b| w.weight(a).total_cmp(&w.weight(b)))
                .unwrap_or(0)
        })
        .collect();
    let mut buckets: Vec<Vec<UserId>> = vec![Vec::new(); d];
    for u in 0..m as UserId {
        buckets[dominant[u as usize]].push(u);
    }
    let mut parts: Vec<Vec<UserId>> = Vec::new();
    for bucket in buckets {
        if bucket.is_empty() {
            continue;
        }
        // Induced subgraph of the bucket (compact ids), then partition.
        let index_of: std::collections::HashMap<UserId, u32> = bucket
            .iter()
            .enumerate()
            .map(|(i, &u)| (u, i as u32))
            .collect();
        let mut edges: Vec<(GraphNodeId, GraphNodeId, f64)> = Vec::new();
        for (a, b, _) in social.graph().edges() {
            if let (Some(&x), Some(&y)) = (index_of.get(&a), index_of.get(&b)) {
                edges.push((x, y, 1.0));
            }
        }
        let sub = CsrGraph::from_edges(bucket.len(), &edges);
        // Same-topic subgraphs are sparse, so pure connectivity
        // partitioning fragments into many tiny parts (inflating the
        // index page count and traversal I/O). Pack the bucket's parts
        // greedily into full leaves — members still share the topic, so
        // the interest MBR stays tight.
        let mut packed: Vec<Vec<UserId>> = Vec::new();
        for part in partition_graph(&sub, leaf_size).parts {
            let members: Vec<UserId> = part.into_iter().map(|i| bucket[i as usize]).collect();
            match packed.last_mut() {
                Some(open) if open.len() + members.len() <= leaf_size => {
                    open.extend(members);
                }
                _ => packed.push(members),
            }
        }
        parts.extend(packed);
    }
    parts
}

/// Ancestor of `id` at `level`, following the construction-time parent
/// table (`u32::MAX` marks "no parent yet").
fn ancestor_at(nodes: &[SocialNode], parent: &[u32], mut id: u32, level: u32) -> u32 {
    while nodes[id as usize].level < level {
        debug_assert_ne!(
            parent[id as usize],
            u32::MAX,
            "parent recorded during construction"
        );
        id = parent[id as usize];
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpssn_ssn::{synthetic, SyntheticConfig};

    fn small_ssn() -> SpatialSocialNetwork {
        synthetic(&SyntheticConfig::uni().scaled(0.01), 17)
    }

    fn build_index(ssn: &SpatialSocialNetwork) -> SocialIndex {
        let sp = SocialPivots::new(ssn.social(), vec![0, 1]);
        let rp = RoadPivots::new(ssn.road(), vec![0, 5]);
        SocialIndex::build(
            ssn,
            sp,
            &rp,
            &SocialIndexConfig {
                leaf_size: 16,
                fanout: 4,
            },
        )
    }

    #[test]
    fn covers_all_users_exactly_once() {
        let ssn = small_ssn();
        let idx = build_index(&ssn);
        let mut users = idx.users_under(idx.root());
        users.sort_unstable();
        let m = ssn.social().num_users();
        assert_eq!(users, (0..m as UserId).collect::<Vec<_>>());
        assert_eq!(idx.node(idx.root()).user_count, m);
    }

    #[test]
    fn interest_mbrs_bracket_members() {
        let ssn = small_ssn();
        let idx = build_index(&ssn);
        for id in 0..idx.num_pages() as u32 {
            let node = idx.node(id);
            if node.user_count == 0 {
                continue;
            }
            for u in idx.users_under(id) {
                let w = ssn.social().interest(u);
                for f in 0..w.dim() {
                    assert!(node.lb_w[f] <= w.weight(f) + 1e-12, "lb_w violated");
                    assert!(node.ub_w[f] + 1e-12 >= w.weight(f), "ub_w violated");
                }
            }
        }
    }

    #[test]
    fn pivot_bounds_bracket_members() {
        let ssn = small_ssn();
        let idx = build_index(&ssn);
        for id in 0..idx.num_pages() as u32 {
            let node = idx.node(id);
            if node.user_count == 0 {
                continue;
            }
            for u in idx.users_under(id) {
                for (k, &d) in idx.user_sn_dists(u).iter().enumerate() {
                    assert!(node.lb_sn[k] <= d && d <= node.ub_sn[k]);
                }
                for (k, &d) in idx.user_rn_dists(u).iter().enumerate() {
                    assert!(node.lb_rn[k] <= d + 1e-12 && d <= node.ub_rn[k] + 1e-12);
                }
            }
        }
    }

    #[test]
    fn levels_are_consistent() {
        let ssn = small_ssn();
        let idx = build_index(&ssn);
        let root = idx.node(idx.root());
        assert_eq!(root.level + 1, idx.height());
        // Children are exactly one level below their parent.
        for id in 0..idx.num_pages() as u32 {
            let n = idx.node(id);
            for &c in &n.children {
                assert_eq!(idx.node(c).level + 1, n.level);
            }
            if n.children.is_empty() && n.user_count > 0 {
                assert_eq!(n.level, 0, "leaves sit at level 0");
            }
        }
    }

    #[test]
    fn saturation_replaces_unreachable() {
        let ssn = small_ssn();
        let idx = build_index(&ssn);
        let sat = idx.hop_saturation();
        for u in 0..ssn.social().num_users() as UserId {
            for &d in idx.user_sn_dists(u) {
                assert!(d <= sat, "hop distance {d} above saturation {sat}");
            }
        }
    }

    /// `I_S` construction is bit-identical for every thread count: node
    /// structure, MBRs, pivot bounds, and user tables all match the
    /// sequential build exactly.
    #[test]
    fn build_is_thread_count_invariant() {
        let ssn = small_ssn();
        let build_at = |threads: usize| {
            let sp = SocialPivots::new(ssn.social(), vec![0, 1]);
            let rp = RoadPivots::new(ssn.road(), vec![0, 5]);
            SocialIndex::build_with_stages(
                &ssn,
                sp,
                &rp,
                &SocialIndexConfig {
                    leaf_size: 16,
                    fanout: 4,
                },
                threads,
            )
            .0
        };
        let base = build_at(1);
        for threads in [2, 8, 0] {
            let idx = build_at(threads);
            assert_eq!(idx.root, base.root, "threads={threads}");
            assert_eq!(
                format!("{:?}", idx.nodes),
                format!("{:?}", base.nodes),
                "threads={threads}"
            );
            assert_eq!(idx.user_sn, base.user_sn, "threads={threads}");
            let bits = |t: &[Vec<f64>]| -> Vec<Vec<u64>> {
                t.iter()
                    .map(|r| r.iter().map(|d| d.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&idx.user_rn), bits(&base.user_rn), "threads={threads}");
        }
    }

    #[test]
    fn build_stages_cover_the_pipeline() {
        let ssn = small_ssn();
        let sp = SocialPivots::new(ssn.social(), vec![0, 1]);
        let rp = RoadPivots::new(ssn.road(), vec![0, 5]);
        let (_, stages) = SocialIndex::build_with_stages(
            &ssn,
            sp,
            &rp,
            &SocialIndexConfig {
                leaf_size: 16,
                fanout: 4,
            },
            1,
        );
        let names: Vec<&str> = stages.stages.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["user_tables", "leaf_partition", "leaf_nodes", "tree_levels"]
        );
    }

    #[test]
    fn single_leaf_when_everything_fits() {
        let ssn = small_ssn();
        let sp = SocialPivots::new(ssn.social(), vec![0]);
        let rp = RoadPivots::new(ssn.road(), vec![0]);
        let idx = SocialIndex::build(
            &ssn,
            sp,
            &rp,
            &SocialIndexConfig {
                leaf_size: 100_000,
                fanout: 4,
            },
        );
        // Nothing splits a dominant-topic bucket: one leaf per bucket.
        let social = ssn.social();
        let dominant = |u: UserId| {
            let w = social.interest(u);
            (0..social.num_topics()).max_by(|&a, &b| w.weight(a).total_cmp(&w.weight(b)))
        };
        let mut topics: Vec<_> = (0..social.num_users() as UserId).map(dominant).collect();
        topics.sort_unstable();
        topics.dedup();
        let leaves: Vec<&SocialNode> = (0..idx.num_pages() as u32)
            .map(|id| idx.node(id))
            .filter(|n| n.level == 0)
            .collect();
        assert_eq!(leaves.len(), topics.len());
        for leaf in leaves {
            let t = dominant(leaf.users[0]);
            assert!(leaf.users.iter().all(|&u| dominant(u) == t));
        }
    }
}
