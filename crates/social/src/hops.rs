//! Social-network distance `dist_SN` (hop counts).
//!
//! Lemma 4 of the paper: a connected group of `τ` users containing `u_q`
//! can only contain users within `τ - 1` hops of `u_q`, so anything with
//! `lb_dist_SN(u_k, u_q) >= τ` is safely pruned. The exact oracle here is
//! plain BFS; the index-level lower bounds come from [`crate::pivots`].

use crate::network::{SocialNetwork, UserId};
use gpssn_graph::bfs;

/// Sentinel hop distance for unreachable users.
pub const UNREACHABLE_HOPS: u32 = u32::MAX;

/// Exact hop distances from `source` to every user.
pub fn dist_sn_all(net: &SocialNetwork, source: UserId) -> Vec<u32> {
    bfs::hop_distances(net.graph(), source)
}

/// Exact hop distance between two users ([`UNREACHABLE_HOPS`] when
/// disconnected).
pub fn dist_sn(net: &SocialNetwork, a: UserId, b: UserId) -> u32 {
    dist_sn_all(net, a)[b as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interest::InterestVector;

    fn chain(n: usize) -> SocialNetwork {
        let interests = (0..n).map(|_| InterestVector::new(vec![0.5])).collect();
        let edges: Vec<(UserId, UserId)> = (1..n).map(|i| (i as UserId - 1, i as UserId)).collect();
        SocialNetwork::new(interests, &edges)
    }

    #[test]
    fn chain_distances() {
        let net = chain(5);
        assert_eq!(dist_sn(&net, 0, 4), 4);
        assert_eq!(dist_sn(&net, 2, 2), 0);
    }

    #[test]
    fn disconnected_users_unreachable() {
        let interests = (0..3).map(|_| InterestVector::new(vec![0.5])).collect();
        let net = SocialNetwork::new(interests, &[(0, 1)]);
        assert_eq!(dist_sn(&net, 0, 2), UNREACHABLE_HOPS);
    }
}
