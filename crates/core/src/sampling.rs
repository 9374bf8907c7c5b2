//! Approximate refinement via subset sampling — the paper's stated
//! future-work extension ("to enhance the efficiency of the enumeration,
//! we can apply subset sampling by randomly expanding the subgraph
//! starting from the query vertex `u_q`", Section 5).
//!
//! [`sample_connected_group`] grows a random connected `τ`-subset from
//! `u_q` by repeatedly absorbing a uniformly random frontier vertex.
//! Under [`crate::refinement::CenterSearch::Sample`],
//! [`crate::refinement::verify_center`] replaces the exact prefix search
//! with a fixed number of such draws over the users its shared reach
//! stage ranked (the same ball, distance backend, caches and budget as
//! every mode): the result is a *valid* answer whenever one is returned
//! (every Definition-5 predicate is still checked exactly) but may be
//! suboptimal or missed — the classic sampling trade-off, quantified in
//! the ablation benches.

use crate::error::BudgetState;
use crate::query::GpSsnQuery;
use crate::refinement::Ranked;
use gpssn_social::{SocialNetwork, UserId};
use rand::Rng;

/// Draws one connected subset of size `k` containing `root` by random
/// frontier expansion, restricted to `allowed` vertices. Returns `None`
/// when the expansion gets stuck (frontier exhausted before size `k`).
pub fn sample_connected_group<R: Rng + ?Sized>(
    graph: &gpssn_graph::CsrGraph,
    root: UserId,
    k: usize,
    allowed: impl Fn(UserId) -> bool,
    rng: &mut R,
) -> Option<Vec<UserId>> {
    if k == 0 || !allowed(root) {
        return None;
    }
    let mut set = Vec::with_capacity(k);
    let mut frontier: Vec<UserId> = Vec::new();
    let absorb = |v: UserId, set: &mut Vec<UserId>, frontier: &mut Vec<UserId>| {
        set.push(v);
        for nb in graph.neighbors(v) {
            let u = nb.node;
            if allowed(u) && !set.contains(&u) && !frontier.contains(&u) {
                frontier.push(u);
            }
        }
    };
    absorb(root, &mut set, &mut frontier);
    while set.len() < k {
        if frontier.is_empty() {
            return None;
        }
        let v = frontier.swap_remove(rng.gen_range(0..frontier.len()));
        absorb(v, &mut set, &mut frontier);
    }
    set.sort_unstable();
    Some(set)
}

/// The sampled search over one center's ranked users: up to `samples`
/// random connected groups from `u_q` among them, each passed to
/// `record` if its pairwise interest holds. Each draw is one admission
/// check of `budget`; a trip ends the search.
pub(crate) fn sample_groups<R: Rng + ?Sized>(
    social: &SocialNetwork,
    q: &GpSsnQuery,
    ranked: &Ranked<'_>,
    samples: usize,
    rng: &mut R,
    budget: &BudgetState,
    record: &mut impl FnMut(&[UserId]),
) {
    for _ in 0..samples {
        if budget.note_group().is_some() {
            return;
        }
        let allowed = |u| ranked.rank(u).is_some();
        let drawn = sample_connected_group(social.graph(), q.user, q.tau, allowed, rng);
        if let Some(group) = drawn.filter(|g| social.pairwise_interest_holds(g, q.gamma)) {
            record(&group);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::exact_baseline;
    use crate::query::{check_answer, GpSsnAnswer};
    use crate::refinement::{tests::bare_ctx, verify_center, CenterSearch};
    use gpssn_graph::DijkstraWorkspace;
    use gpssn_ssn::{synthetic, SyntheticConfig};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sampled_groups_are_connected_and_sized() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 3);
        let graph = ssn.social().graph();
        let mut rng = StdRng::seed_from_u64(5);
        let mut drawn = 0;
        for _ in 0..50 {
            if let Some(g) = sample_connected_group(graph, 0, 3, |_| true, &mut rng) {
                drawn += 1;
                assert_eq!(g.len(), 3);
                assert!(g.contains(&0));
                assert!(gpssn_graph::is_connected_subset(graph, &g));
            }
        }
        assert!(drawn > 0, "sampler never produced a group");
    }

    #[test]
    fn stuck_expansion_returns_none() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 3);
        // Only the root allowed: size-2 groups impossible.
        let mut rng = StdRng::seed_from_u64(5);
        let graph = ssn.social().graph();
        assert!(sample_connected_group(graph, 0, 2, |u| u == 0, &mut rng).is_none());
    }

    #[test]
    fn sampled_answers_are_valid_and_no_better_than_exact() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.006), 9);
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.3,
            theta: 0.3,
            radius: 2.5,
        };
        let exact = exact_baseline(&ssn, &q);
        let mut ws = DijkstraWorkspace::new();
        let budget = BudgetState::unlimited();
        let mut ctx = bare_ctx(&mut ws, &budget, CenterSearch::sample(20, 1));
        let mut best: Option<GpSsnAnswer> = None;
        for center in 0..ssn.pois().len() as u32 {
            let bound = best.as_ref().map_or(f64::INFINITY, |b| b.maxdist);
            if let Some(a) = verify_center(&ssn, &q, center, bound, |_| true, &mut ctx).answer {
                best = Some(a);
            }
        }
        let ans = best.expect("fixture: sampling finds a group");
        check_answer(&ssn, &q, &ans).expect("sampled answer violates Definition 5");
        let e = exact.expect("fixture: the query is feasible");
        assert!(ans.maxdist >= e.maxdist, "sampling beat the exact optimum");
    }
}
