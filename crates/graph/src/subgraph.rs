//! Enumeration of connected vertex subsets of fixed size containing a root.
//!
//! The GP-SSN refinement step (Algorithm 2, line 31) enumerates candidate
//! user groups `S`: connected subgraphs of the social network of size `τ`
//! containing the query user `u_q`, drawn from the surviving candidate set.
//! We use a rooted variant of the classic connected-subgraph enumeration
//! with an exclusion set, which emits every qualifying subset exactly once.

use crate::csr::{CsrGraph, NodeId};

/// Enumerates every connected subset of exactly `k` vertices that contains
/// `root` and is built only from admitted vertices. Each subset is passed
/// to `visit` (sorted ascending); if `visit` returns `false`, enumeration
/// stops early.
///
/// A vertex `v` joins the current set (its members in join order; empty
/// for the root) only if `admit(set, v)` holds. A rejected vertex is
/// excluded from its remaining siblings' branches, exactly as an explored
/// one is. `admit` must be hereditary: if it rejects `v` for a set, it
/// rejects `v` for every superset of that set. Then a rejected vertex
/// could join no set in the skipped subtree or in its later siblings'
/// branches, so the emitted sets are exactly those complete sets of the
/// unrestricted enumeration whose members are each admitted by the
/// members that joined before them, in the same relative order.
///
/// Returns the number of subsets visited.
///
/// Duplicate-freeness: children of a search node are processed in order,
/// and each processed candidate is added to a per-branch exclusion set, so
/// no subset can be generated along two different branches.
pub fn enumerate_connected_subsets<A, F>(
    graph: &CsrGraph,
    root: NodeId,
    k: usize,
    admit: &mut A,
    visit: &mut F,
) -> usize
where
    A: FnMut(&[NodeId], NodeId) -> bool,
    F: FnMut(&[NodeId]) -> bool,
{
    if k == 0 || !admit(&[], root) {
        return 0;
    }
    let n = graph.num_nodes();
    let mut state = State {
        graph,
        k,
        in_set: vec![false; n],
        excluded: vec![false; n],
        set: Vec::with_capacity(k),
        count: 0,
        stopped: false,
    };
    state.in_set[root as usize] = true;
    state.set.push(root);
    if k == 1 {
        state.emit(visit);
    } else {
        let mut frontier: Vec<NodeId> = graph.neighbors(root).iter().map(|nb| nb.node).collect();
        frontier.sort_unstable();
        frontier.dedup();
        state.extend(frontier, admit, visit);
    }
    state.count
}

struct State<'a> {
    graph: &'a CsrGraph,
    k: usize,
    in_set: Vec<bool>,
    excluded: Vec<bool>,
    set: Vec<NodeId>,
    count: usize,
    stopped: bool,
}

impl State<'_> {
    /// Visits the current (complete) set.
    fn emit<F>(&mut self, visit: &mut F)
    where
        F: FnMut(&[NodeId]) -> bool,
    {
        self.count += 1;
        let mut sorted = self.set.clone();
        sorted.sort_unstable();
        if !visit(&sorted) {
            self.stopped = true;
        }
    }

    /// `frontier`: candidate extension vertices (adjacent to the current
    /// set, not in it, not excluded on this branch).
    fn extend<A, F>(&mut self, frontier: Vec<NodeId>, admit: &mut A, visit: &mut F)
    where
        A: FnMut(&[NodeId], NodeId) -> bool,
        F: FnMut(&[NodeId]) -> bool,
    {
        let mut newly_excluded = Vec::new();
        for (i, &v) in frontier.iter().enumerate() {
            if self.stopped {
                break;
            }
            if self.excluded[v as usize] || self.in_set[v as usize] {
                continue;
            }
            if admit(&self.set, v) {
                self.in_set[v as usize] = true;
                self.set.push(v);
                if self.set.len() == self.k {
                    self.emit(visit);
                } else {
                    // New frontier: remaining candidates at this level plus
                    // the not-yet-seen neighbors of `v`.
                    let mut next: Vec<NodeId> = frontier[i + 1..]
                        .iter()
                        .copied()
                        .filter(|&u| !self.excluded[u as usize] && !self.in_set[u as usize])
                        .collect();
                    for nb in self.graph.neighbors(v) {
                        let u = nb.node;
                        if !self.in_set[u as usize]
                            && !self.excluded[u as usize]
                            && !next.contains(&u)
                            && !frontier[..=i].contains(&u)
                        {
                            next.push(u);
                        }
                    }
                    self.extend(next, admit, visit);
                }
                self.set.pop();
                self.in_set[v as usize] = false;
            }
            // Explored or rejected: exclude v from the remaining branches
            // at this level.
            self.excluded[v as usize] = true;
            newly_excluded.push(v);
        }
        for v in newly_excluded {
            self.excluded[v as usize] = false;
        }
    }
}

/// Convenience: collect every connected `k`-subset containing `root`
/// built from admitted vertices (see [`enumerate_connected_subsets`]).
pub fn connected_subsets<A>(
    graph: &CsrGraph,
    root: NodeId,
    k: usize,
    mut admit: A,
) -> Vec<Vec<NodeId>>
where
    A: FnMut(&[NodeId], NodeId) -> bool,
{
    let mut out = Vec::new();
    enumerate_connected_subsets(graph, root, k, &mut admit, &mut |s| {
        out.push(s.to_vec());
        true
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::is_connected_subset;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Admits every vertex.
    fn all(_: &[NodeId], _: NodeId) -> bool {
        true
    }

    fn brute_force(g: &CsrGraph, root: NodeId, k: usize) -> Vec<Vec<NodeId>> {
        let n = g.num_nodes();
        let mut out = Vec::new();
        // Enumerate all k-subsets via bitmask (n small in tests).
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize != k || mask & (1 << root) == 0 {
                continue;
            }
            let subset: Vec<NodeId> = (0..n as u32).filter(|&v| mask & (1 << v) != 0).collect();
            if is_connected_subset(g, &subset) {
                out.push(subset);
            }
        }
        out.sort();
        out
    }

    #[test]
    fn triangle_pairs() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let mut subs = connected_subsets(&g, 0, 2, all);
        subs.sort();
        assert_eq!(subs, vec![vec![0, 1], vec![0, 2]]);
    }

    #[test]
    fn path_triples() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let mut subs = connected_subsets(&g, 1, 3, all);
        subs.sort();
        assert_eq!(subs, vec![vec![0, 1, 2], vec![1, 2, 3]]);
    }

    #[test]
    fn k_equals_one() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 1.0)]);
        assert_eq!(connected_subsets(&g, 1, 1, all), vec![vec![1]]);
    }

    #[test]
    fn k_zero_yields_nothing() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 1.0)]);
        assert!(connected_subsets(&g, 0, 0, all).is_empty());
    }

    #[test]
    fn allowed_filter_restricts() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let allowed = [true, true, true, false];
        let mut subs = connected_subsets(&g, 1, 3, |_, v| allowed[v as usize]);
        subs.sort();
        assert_eq!(subs, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn root_not_allowed_yields_nothing() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 1.0)]);
        let allowed = [false, true];
        assert!(connected_subsets(&g, 0, 2, |_, v| allowed[v as usize]).is_empty());
    }

    #[test]
    fn early_stop_halts_enumeration() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)]);
        let mut seen = 0;
        enumerate_connected_subsets(&g, 0, 2, &mut all, &mut |_| {
            seen += 1;
            seen < 2
        });
        assert_eq!(seen, 2);
    }

    /// A G(n, p) graph drawn from `rng`.
    fn random_graph(rng: &mut StdRng, n: usize, p: f64) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    edges.push((u as NodeId, v as NodeId, 1.0));
                }
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Enumeration matches brute force: same subsets, no duplicates.
        #[test]
        fn matches_brute_force(seed in 0u64..500, n in 1usize..9, k in 1usize..5, p in 0.2f64..0.9) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_graph(&mut rng, n, p);
            let root = rng.gen_range(0..n) as NodeId;
            let k = k.min(n);
            let mut got = connected_subsets(&g, root, k, all);
            got.sort();
            let before_dedup = got.len();
            got.dedup();
            prop_assert_eq!(before_dedup, got.len(), "duplicates emitted");
            prop_assert_eq!(got, brute_force(&g, root, k));
        }

        /// Admitting only vertices compatible with every member (a
        /// random symmetric relation, so hereditary) emits exactly the
        /// pairwise-compatible connected subsets, each once, in the
        /// order the unrestricted enumeration emits them.
        #[test]
        fn admission_keeps_exactly_the_compatible_subsets_in_order(
            seed in 0u64..500, n in 1usize..10, k in 1usize..6, p in 0.2f64..0.9, q in 0.3f64..1.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_graph(&mut rng, n, p);
            let mut compatible = vec![vec![true; n]; n];
            for (u, v) in (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))) {
                let c = rng.gen_bool(q);
                compatible[u][v] = c;
                compatible[v][u] = c;
            }
            let pairwise = |s: &[NodeId]| {
                s.iter().all(|&a| s.iter().all(|&b| compatible[a as usize][b as usize]))
            };
            let root = rng.gen_range(0..n) as NodeId;
            let k = k.min(n);
            let got = connected_subsets(&g, root, k, |set, v| {
                set.iter().all(|&u| compatible[u as usize][v as usize])
            });
            let ordered: Vec<Vec<NodeId>> = connected_subsets(&g, root, k, all)
                .into_iter()
                .filter(|s| pairwise(s))
                .collect();
            prop_assert_eq!(&got, &ordered);
            let mut sorted = got.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), got.len(), "duplicates emitted");
            let mut expected = brute_force(&g, root, k);
            expected.retain(|s| pairwise(s));
            prop_assert_eq!(sorted, expected);
        }
    }
}
