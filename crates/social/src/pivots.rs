//! Social-network pivots `sp_1..sp_l` and hop-distance lower bounds.
//!
//! The paper precomputes `dist_SN(u_j, sp_k)` for every user and `l`
//! pivots (Section 4.1) and lower-bounds unknown hop distances with the
//! triangle inequality (the equation after Lemma 4, with the `max` over
//! pivots used by Eq. 19). Unreachable pivot distances are handled
//! conservatively: a pair that provably lies in different components gets
//! an infinite lower bound; a pivot that sees neither user contributes
//! nothing.

use crate::hops::UNREACHABLE_HOPS;
use crate::network::{SocialNetwork, UserId};
use gpssn_graph::{bfs, par_map, workers};

/// A set of social pivots with full hop-distance tables.
#[derive(Debug, Clone)]
pub struct SocialPivots {
    pivots: Vec<UserId>,
    /// `table[k][u]` = exact hops from pivot `k` to user `u`.
    table: Vec<Vec<u32>>,
}

impl SocialPivots {
    /// Precomputes hop tables for the given pivot users (one BFS each),
    /// sequentially.
    pub fn new(net: &SocialNetwork, pivots: Vec<UserId>) -> Self {
        Self::new_with_threads(net, pivots, 1)
    }

    /// [`SocialPivots::new`] with the columns computed over `threads`
    /// workers (`0` = all cores). Each column is an independent
    /// BFS merged back in pivot order, so the table is identical for
    /// every thread count.
    pub fn new_with_threads(net: &SocialNetwork, pivots: Vec<UserId>, threads: usize) -> Self {
        assert!(!pivots.is_empty(), "at least one pivot is required");
        let table = par_map(&mut vec![(); workers(threads)], pivots.len(), 1, |_, k| {
            bfs::hop_distances(net.graph(), pivots[k])
        });
        SocialPivots { pivots, table }
    }

    /// Number of pivots `l`.
    #[inline]
    pub fn len(&self) -> usize {
        self.pivots.len()
    }

    /// Never true for a constructed value.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pivots.is_empty()
    }

    /// The pivot users.
    #[inline]
    pub fn pivots(&self) -> &[UserId] {
        &self.pivots
    }

    /// Exact hops from pivot `k` to user `u`
    /// ([`UNREACHABLE_HOPS`] when disconnected).
    #[inline]
    pub fn dist(&self, k: usize, u: UserId) -> u32 {
        self.table[k][u as usize]
    }

    /// Per-pivot distance vector of user `u` (stored in `I_S` leaves).
    pub fn user_dists(&self, u: UserId) -> Vec<u32> {
        (0..self.pivots.len())
            .map(|k| self.table[k][u as usize])
            .collect()
    }

    /// Triangle-inequality lower bound on `dist_SN(a, b)`:
    /// `max_k |d(a, sp_k) - d(sp_k, b)|`, treating component mismatches as
    /// infinite.
    pub fn lb_dist(&self, a: UserId, b: UserId) -> u32 {
        let mut lb = 0u32;
        for k in 0..self.pivots.len() {
            let da = self.table[k][a as usize];
            let db = self.table[k][b as usize];
            match (da == UNREACHABLE_HOPS, db == UNREACHABLE_HOPS) {
                (false, false) => lb = lb.max(da.abs_diff(db)),
                (true, true) => {}            // pivot sees neither: no information
                _ => return UNREACHABLE_HOPS, // different components
            }
        }
        lb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hops::dist_sn;
    use crate::interest::InterestVector;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn chain(n: usize) -> SocialNetwork {
        let interests = (0..n).map(|_| InterestVector::new(vec![0.5])).collect();
        let edges: Vec<(UserId, UserId)> = (1..n).map(|i| (i as UserId - 1, i as UserId)).collect();
        SocialNetwork::new(interests, &edges)
    }

    #[test]
    fn exact_on_chain_with_end_pivot() {
        let net = chain(6);
        let pv = SocialPivots::new(&net, vec![0]);
        // On a path with an end pivot, the bound is exact.
        assert_eq!(pv.lb_dist(1, 4), 3);
        assert_eq!(pv.lb_dist(4, 1), 3);
        assert_eq!(dist_sn(&net, 1, 4), 3);
    }

    #[test]
    fn user_dists_vector() {
        let net = chain(4);
        let pv = SocialPivots::new(&net, vec![0, 3]);
        assert_eq!(pv.user_dists(1), vec![1, 2]);
        assert_eq!(pv.len(), 2);
    }

    #[test]
    fn cross_component_is_infinite() {
        let interests = (0..4).map(|_| InterestVector::new(vec![0.5])).collect();
        let net = SocialNetwork::new(interests, &[(0, 1), (2, 3)]);
        let pv = SocialPivots::new(&net, vec![0]);
        assert_eq!(pv.lb_dist(0, 2), UNREACHABLE_HOPS);
        // Pivot sees neither 2 nor 3: no information, bound 0.
        assert_eq!(pv.lb_dist(2, 3), 0);
    }

    #[test]
    #[should_panic(expected = "at least one pivot")]
    fn rejects_empty_pivots() {
        SocialPivots::new(&chain(2), vec![]);
    }

    #[test]
    fn parallel_tables_match_sequential() {
        let net = chain(12);
        let pivots = vec![0u32, 3, 7, 11];
        let base = SocialPivots::new(&net, pivots.clone());
        for threads in [2, 3, 8, 0] {
            let par = SocialPivots::new_with_threads(&net, pivots.clone(), threads);
            assert_eq!(par.pivots(), base.pivots());
            for k in 0..pivots.len() {
                for u in 0..12u32 {
                    assert_eq!(par.dist(k, u), base.dist(k, u), "threads={threads}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The pivot bound never exceeds the true hop distance.
        #[test]
        fn lower_bound_is_sound(seed in 0u64..500, n in 2usize..30, l in 1usize..4) {
            let mut rng = StdRng::seed_from_u64(seed);
            let interests = (0..n).map(|_| InterestVector::new(vec![0.5])).collect();
            let mut edges = Vec::new();
            for v in 1..n {
                if rng.gen_bool(0.85) {
                    edges.push((rng.gen_range(0..v) as UserId, v as UserId));
                }
            }
            let net = SocialNetwork::new(interests, &edges);
            let pivots: Vec<UserId> = (0..l).map(|_| rng.gen_range(0..n) as UserId).collect();
            let pv = SocialPivots::new(&net, pivots);
            let a = rng.gen_range(0..n) as UserId;
            let b = rng.gen_range(0..n) as UserId;
            let exact = dist_sn(&net, a, b);
            let lb = pv.lb_dist(a, b);
            if exact == UNREACHABLE_HOPS {
                // Any bound is fine for disconnected pairs.
            } else {
                prop_assert!(lb <= exact, "lb {lb} > exact {exact}");
            }
        }
    }
}
