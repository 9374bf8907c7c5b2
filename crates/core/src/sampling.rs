//! Approximate refinement via subset sampling — the paper's stated
//! future-work extension ("to enhance the efficiency of the enumeration,
//! we can apply subset sampling by randomly expanding the subgraph
//! starting from the query vertex `u_q`", Section 5).
//!
//! [`sample_connected_group`] grows a random connected `τ`-subset from
//! `u_q` by repeatedly absorbing a uniformly random frontier vertex.
//! [`verify_center_sampled`] replaces the exhaustive feasibility check of
//! the exact refinement with a fixed number of such draws: the result is
//! a *valid* answer whenever one is returned (every Definition-5
//! predicate is still checked exactly) but may be suboptimal or missed —
//! the classic sampling trade-off, quantified in the ablation benches.

use crate::error::BudgetState;
use crate::query::{GpSsnAnswer, GpSsnQuery};
use crate::stats::Counter;
use gpssn_road::{dist_rn_many_counted, NetworkPoint, PoiId};
use gpssn_social::UserId;
use gpssn_ssn::{match_score_keywords, SpatialSocialNetwork};
use rand::Rng;

/// Draws one connected subset of size `k` containing `root` by random
/// frontier expansion, restricted to `allowed` vertices. Returns `None`
/// when the expansion gets stuck (frontier exhausted before size `k`).
pub fn sample_connected_group<R: Rng + ?Sized>(
    graph: &gpssn_graph::CsrGraph,
    root: UserId,
    k: usize,
    allowed: &[bool],
    rng: &mut R,
) -> Option<Vec<UserId>> {
    if k == 0 || !allowed[root as usize] {
        return None;
    }
    let mut in_set = vec![false; graph.num_nodes()];
    let mut set = Vec::with_capacity(k);
    let mut frontier: Vec<UserId> = Vec::new();
    in_set[root as usize] = true;
    set.push(root);
    let push_neighbors = |v: UserId, frontier: &mut Vec<UserId>, in_set: &[bool]| {
        for nb in graph.neighbors(v) {
            let u = nb.node;
            if allowed[u as usize] && !in_set[u as usize] && !frontier.contains(&u) {
                frontier.push(u);
            }
        }
    };
    push_neighbors(root, &mut frontier, &in_set);
    while set.len() < k {
        if frontier.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..frontier.len());
        let v = frontier.swap_remove(idx);
        in_set[v as usize] = true;
        set.push(v);
        push_neighbors(v, &mut frontier, &in_set);
    }
    set.sort_unstable();
    Some(set)
}

/// Sampled counterpart of [`crate::refinement::verify_center`]: draws up
/// to `samples` random connected groups among the `θ`-eligible candidate
/// users and keeps the best feasible one. Exact in its *checks*,
/// approximate in its *search*. Each draw counts against the budget's
/// group allowance and each cost Dijkstra against its settle allowance;
/// a trip abandons the center (returning whatever was already verified
/// stays sound, but we return `None` to keep the anytime gap
/// conservative — the caller treats the center as unresolved).
#[allow(clippy::too_many_arguments)]
pub fn verify_center_sampled<R: Rng + ?Sized>(
    ssn: &SpatialSocialNetwork,
    q: &GpSsnQuery,
    candidates: &[UserId],
    center: PoiId,
    best_so_far: f64,
    samples: usize,
    rng: &mut R,
    budget: &BudgetState,
) -> Option<GpSsnAnswer> {
    let center_pos = ssn.pois().get(center).position;
    let ball = ssn.pois().network_ball(ssn.road(), &center_pos, q.radius);
    if ball.is_empty() {
        return None;
    }
    let r_ids: Vec<PoiId> = ball.iter().map(|&(o, _)| o).collect();
    let union = ssn.pois().keyword_union(&r_ids);
    if match_score_keywords(ssn.social().interest(q.user), &union) < q.theta {
        return None;
    }
    let mut allowed = vec![false; ssn.social().num_users()];
    let mut eligible_count = 0usize;
    for &u in candidates {
        if match_score_keywords(ssn.social().interest(u), &union) >= q.theta {
            allowed[u as usize] = true;
            eligible_count += 1;
        }
    }
    if !allowed[q.user as usize] {
        allowed[q.user as usize] = true;
        eligible_count += 1;
    }
    if eligible_count < q.tau {
        return None;
    }

    let positions: Vec<NetworkPoint> = r_ids.iter().map(|&o| ssn.pois().get(o).position).collect();
    let mut cost_cache: std::collections::HashMap<UserId, f64> = Default::default();
    let cost = |u: UserId, cache: &mut std::collections::HashMap<UserId, f64>| -> f64 {
        *cache.entry(u).or_insert_with(|| {
            let (dists, settled) = dist_rn_many_counted(ssn.road(), &ssn.home(u), &positions);
            budget.add_settles(Counter::DijkstraSettles, settled);
            dists.into_iter().fold(0.0f64, f64::max)
        })
    };
    if cost(q.user, &mut cost_cache) >= best_so_far || budget.is_tripped() {
        return None;
    }

    let mut best: Option<GpSsnAnswer> = None;
    let mut best_val = best_so_far;
    for _ in 0..samples {
        budget.note_group();
        if budget.is_tripped() {
            return None;
        }
        let Some(group) =
            sample_connected_group(ssn.social().graph(), q.user, q.tau, &allowed, rng)
        else {
            continue;
        };
        if !ssn.social().pairwise_interest_holds(&group, q.gamma) {
            continue;
        }
        let maxdist = group
            .iter()
            .map(|&u| cost(u, &mut cost_cache))
            .fold(0.0f64, f64::max);
        if budget.is_tripped() {
            return None;
        }
        if maxdist < best_val {
            best_val = maxdist;
            let mut pois = r_ids.clone();
            pois.sort_unstable();
            best = Some(GpSsnAnswer {
                users: group,
                pois,
                maxdist,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::exact_baseline;
    use crate::query::check_answer;
    use gpssn_ssn::{synthetic, SyntheticConfig};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sampled_groups_are_connected_and_sized() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 3);
        let graph = ssn.social().graph();
        let allowed = vec![true; ssn.social().num_users()];
        let mut rng = StdRng::seed_from_u64(5);
        let mut drawn = 0;
        for _ in 0..50 {
            if let Some(g) = sample_connected_group(graph, 0, 3, &allowed, &mut rng) {
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
        let mut allowed = vec![false; ssn.social().num_users()];
        allowed[0] = true; // only the root allowed: size-2 groups impossible
        let mut rng = StdRng::seed_from_u64(5);
        assert!(sample_connected_group(ssn.social().graph(), 0, 2, &allowed, &mut rng).is_none());
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
        let mut rng = StdRng::seed_from_u64(1);
        let candidates: Vec<u32> = (0..ssn.social().num_users() as u32).collect();
        let mut best: Option<GpSsnAnswer> = None;
        for center in 0..ssn.pois().len() as u32 {
            let bound = best.as_ref().map_or(f64::INFINITY, |b| b.maxdist);
            if let Some(a) = verify_center_sampled(
                &ssn,
                &q,
                &candidates,
                center,
                bound,
                20,
                &mut rng,
                &BudgetState::unlimited(),
            ) {
                best = Some(a);
            }
        }
        if let Some(ans) = &best {
            check_answer(&ssn, &q, ans).expect("sampled answer violates Definition 5");
            if let Some(e) = &exact {
                assert!(
                    ans.maxdist + 1e-9 >= e.maxdist,
                    "sampling beat the exact optimum"
                );
            }
        }
    }
}
