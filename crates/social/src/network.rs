//! The social network `G_s` (Definition 3): users, friendships, and
//! per-user interest vectors.

use crate::interest::{interest_score, InterestVector};
use gpssn_graph::{CsrGraph, NodeId};

/// Identifier of a user (a vertex of `G_s`).
pub type UserId = NodeId;

/// A social network: an unweighted friendship graph plus one interest
/// vector per user.
#[derive(Debug, Clone)]
pub struct SocialNetwork {
    graph: CsrGraph,
    interests: Vec<InterestVector>,
    num_topics: usize,
}

impl SocialNetwork {
    /// Builds a social network from a friendship edge list and per-user
    /// interest vectors (one per user, all of the same dimension).
    ///
    /// # Panics
    /// Panics if interest dimensions are inconsistent.
    pub fn new(interests: Vec<InterestVector>, friendships: &[(UserId, UserId)]) -> Self {
        let num_topics = interests.first().map_or(0, InterestVector::dim);
        assert!(
            interests.iter().all(|w| w.dim() == num_topics),
            "all interest vectors must share one dimension"
        );
        let edges: Vec<(NodeId, NodeId, f64)> =
            friendships.iter().map(|&(a, b)| (a, b, 1.0)).collect();
        let graph = CsrGraph::from_edges(interests.len(), &edges);
        SocialNetwork {
            graph,
            interests,
            num_topics,
        }
    }

    /// Underlying friendship graph.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Number of users `m = |V(G_s)|`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of friendship edges `|E(G_s)|`.
    #[inline]
    pub fn num_friendships(&self) -> usize {
        self.graph.num_edges()
    }

    /// Topic dimensionality `d`.
    #[inline]
    pub fn num_topics(&self) -> usize {
        self.num_topics
    }

    /// Interest vector of user `u` (`u.w`).
    #[inline]
    pub fn interest(&self, u: UserId) -> &InterestVector {
        &self.interests[u as usize]
    }

    /// All interest vectors.
    #[inline]
    pub fn interests(&self) -> &[InterestVector] {
        &self.interests
    }

    /// `Interest_Score(u_j, u_k)` between two users (Eq. 1).
    #[inline]
    pub fn score(&self, a: UserId, b: UserId) -> f64 {
        interest_score(&self.interests[a as usize], &self.interests[b as usize])
    }

    /// Friends of `u`.
    pub fn friends(&self, u: UserId) -> impl Iterator<Item = UserId> + '_ {
        self.graph.neighbors(u).iter().map(|nb| nb.node)
    }

    /// Average friendship degree (Table 2's `deg(G_s)`).
    pub fn average_degree(&self) -> f64 {
        self.graph.average_degree()
    }

    /// Whether every pair in `group` meets the interest threshold `γ`
    /// (Definition 5, condition 3).
    pub fn pairwise_interest_holds(&self, group: &[UserId], gamma: f64) -> bool {
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                if self.score(a, b) < gamma {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 5-user example of Figure 1 / Table 1.
    pub(crate) fn paper_example() -> SocialNetwork {
        let interests = vec![
            InterestVector::new(vec![0.7, 0.3, 0.7]), // u_1
            InterestVector::new(vec![0.2, 0.9, 0.3]), // u_2
            InterestVector::new(vec![0.4, 0.8, 0.8]), // u_3
            InterestVector::new(vec![0.9, 0.7, 0.7]), // u_4
            InterestVector::new(vec![0.1, 0.8, 0.5]), // u_5
        ];
        // Friendships as drawn in Figure 1 (a plausible reading).
        SocialNetwork::new(interests, &[(0, 1), (0, 3), (1, 2), (2, 3), (1, 4), (2, 4)])
    }

    #[test]
    fn basic_accessors() {
        let net = paper_example();
        assert_eq!(net.num_users(), 5);
        assert_eq!(net.num_friendships(), 6);
        assert_eq!(net.num_topics(), 3);
        assert_eq!(net.friends(0).count(), 2);
    }

    #[test]
    fn score_matches_table1() {
        let net = paper_example();
        // u_3 · u_5 = 0.04 + 0.64 + 0.40 = 1.08
        assert!((net.score(2, 4) - 1.08).abs() < 1e-12);
    }

    #[test]
    fn pairwise_interest_threshold() {
        let net = paper_example();
        // Scores: (1,2)=0.62, (1,3)=1.08, (2,3)=1.04.
        assert!(net.pairwise_interest_holds(&[0, 1, 2], 0.6));
        assert!(!net.pairwise_interest_holds(&[0, 1, 2], 0.7));
        assert!(net.pairwise_interest_holds(&[0], 99.0)); // singleton
        assert!(net.pairwise_interest_holds(&[], 99.0)); // empty
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn rejects_mixed_dimensions() {
        SocialNetwork::new(
            vec![
                InterestVector::new(vec![0.1]),
                InterestVector::new(vec![0.1, 0.2]),
            ],
            &[],
        );
    }

    #[test]
    fn empty_network() {
        let net = SocialNetwork::new(vec![], &[]);
        assert_eq!(net.num_users(), 0);
        assert_eq!(net.num_topics(), 0);
    }
}
