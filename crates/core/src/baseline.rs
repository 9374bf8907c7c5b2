//! The Baseline competitor (paper Section 6.1, "Competitor").
//!
//! "We first find all user sets `S` of size `τ` (containing query user
//! `u_q`) from social networks `G_s` that satisfy the constraint of the
//! interest score threshold `γ`. Then, we obtain all sets `R` of POIs in
//! a circular region with radius `r`, which `θ`-match with user sets `S`.
//! Finally, we return a pair `(S, R)` with the smallest maximum
//! distance."
//!
//! [`exact_baseline`] runs that enumeration literally (feasible for the
//! small instances used in correctness tests — this is the oracle the
//! engine's property tests compare against). For realistic sizes the
//! paper estimates the Baseline cost by sampling 100 user sets and
//! extrapolating by the total pair count `C(m, τ)`; we reproduce that in
//! [`estimate_baseline_cost`].

use crate::error::{BudgetState, GpSsnError, QueryBudget};
use crate::query::{GpSsnAnswer, GpSsnQuery};
use crate::refinement::probe_groups;
use crate::stats::{binomial_f64, Counter};
use gpssn_graph::enumerate_connected_subsets;
use gpssn_road::{dist_rn_many, dist_rn_many_counted, NetworkPoint, PoiId};
use gpssn_social::UserId;
use gpssn_ssn::{match_score_keywords, SpatialSocialNetwork};
use std::time::Instant;

/// Exhaustively solves a GP-SSN query: every connected `τ`-subset
/// containing `u_q` with pairwise interest `>= γ`, against every
/// candidate POI ball `⊙(o_i, r)` that `θ`-matches the whole group.
/// Returns the optimal answer, or `None` if no pair is feasible.
///
/// Complexity is exponential in `τ` — use only on small instances.
pub fn exact_baseline(ssn: &SpatialSocialNetwork, q: &GpSsnQuery) -> Option<GpSsnAnswer> {
    match try_exact_baseline(ssn, q, &QueryBudget::unlimited()) {
        Ok(ans) => ans,
        Err(e @ GpSsnError::InvalidQuery(_)) => panic!("invalid query parameters: {e}"),
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`exact_baseline`] under a resource budget. The Baseline
/// enumerates in arbitrary (not best-first) order, so there is no sound
/// anytime gap to report: a budget trip returns the trip's error rather
/// than a partial answer.
pub fn try_exact_baseline(
    ssn: &SpatialSocialNetwork,
    q: &GpSsnQuery,
    budget: &QueryBudget,
) -> Result<Option<GpSsnAnswer>, GpSsnError> {
    q.validate().map_err(GpSsnError::InvalidQuery)?;
    let num_users = ssn.social().num_users();
    if q.user as usize >= num_users {
        return Err(GpSsnError::UnknownUser {
            user: q.user,
            num_users,
        });
    }
    let meter = BudgetState::new(budget);
    // All feasible user groups.
    let groups = all_groups(ssn, q, &meter);
    if let Some(trip) = meter.trip() {
        return Err(trip.into());
    }
    if groups.is_empty() {
        return Ok(None);
    }
    // All candidate balls.
    let n = ssn.pois().len();
    let mut best: Option<GpSsnAnswer> = None;
    for center in 0..n as PoiId {
        let pos = ssn.pois().get(center).position;
        let ball = ssn.pois().network_ball(ssn.road(), &pos, q.radius);
        if ball.is_empty() {
            continue;
        }
        let r_ids: Vec<PoiId> = ball.iter().map(|&(o, _)| o).collect();
        let union = ssn.pois().keyword_union(&r_ids);
        let eligible = theta_eligible(ssn, q, &union);
        let positions: Vec<NetworkPoint> =
            r_ids.iter().map(|&o| ssn.pois().get(o).position).collect();
        // Cache per-user costs for this ball.
        let mut cost_cache: std::collections::HashMap<UserId, f64> = Default::default();
        for group in &groups {
            meter.note_group();
            if let Some(trip) = meter.trip() {
                return Err(trip.into());
            }
            if group.iter().any(|&u| !eligible[u as usize]) {
                continue;
            }
            let mut maxdist = 0.0f64;
            for &u in group {
                let c = *cost_cache.entry(u).or_insert_with(|| {
                    let (dists, settled) =
                        dist_rn_many_counted(ssn.road(), &ssn.home(u), &positions);
                    meter.add_settles(Counter::DijkstraSettles, settled);
                    dists.into_iter().fold(0.0f64, f64::max)
                });
                maxdist = maxdist.max(c);
            }
            if let Some(trip) = meter.trip() {
                return Err(trip.into());
            }
            if best.as_ref().is_none_or(|b| maxdist < b.maxdist) {
                let mut users = group.clone();
                users.sort_unstable();
                let mut pois = r_ids.clone();
                pois.sort_unstable();
                best = Some(GpSsnAnswer {
                    users,
                    pois,
                    maxdist,
                });
            }
        }
    }
    Ok(best)
}

/// Exhaustive top-`k`: the best feasible answer of every candidate
/// center, globally sorted by objective, truncated to `k` — the oracle
/// for [`crate::QueryMode::TopK`]'s semantics.
pub fn exact_baseline_top_k(
    ssn: &SpatialSocialNetwork,
    q: &GpSsnQuery,
    k: usize,
) -> Vec<GpSsnAnswer> {
    let groups = all_groups(ssn, q, &BudgetState::unlimited());
    if groups.is_empty() {
        return Vec::new();
    }
    let mut per_center: Vec<GpSsnAnswer> = Vec::new();
    for center in 0..ssn.pois().len() as PoiId {
        let pos = ssn.pois().get(center).position;
        let ball = ssn.pois().network_ball(ssn.road(), &pos, q.radius);
        if ball.is_empty() {
            continue;
        }
        let r_ids: Vec<PoiId> = ball.iter().map(|&(o, _)| o).collect();
        let union = ssn.pois().keyword_union(&r_ids);
        let eligible = theta_eligible(ssn, q, &union);
        let positions: Vec<NetworkPoint> =
            r_ids.iter().map(|&o| ssn.pois().get(o).position).collect();
        let mut cost_cache: std::collections::HashMap<UserId, f64> = Default::default();
        let mut best_here: Option<GpSsnAnswer> = None;
        for group in &groups {
            if group.iter().any(|&u| !eligible[u as usize]) {
                continue;
            }
            let mut maxdist = 0.0f64;
            for &u in group {
                let c = *cost_cache.entry(u).or_insert_with(|| {
                    dist_rn_many(ssn.road(), &ssn.home(u), &positions)
                        .into_iter()
                        .fold(0.0f64, f64::max)
                });
                maxdist = maxdist.max(c);
            }
            if best_here.as_ref().is_none_or(|b| maxdist < b.maxdist) {
                let mut users = group.clone();
                users.sort_unstable();
                let mut pois = r_ids.clone();
                pois.sort_unstable();
                best_here = Some(GpSsnAnswer {
                    users,
                    pois,
                    maxdist,
                });
            }
        }
        if let Some(a) = best_here {
            per_center.push(a);
        }
    }
    per_center.sort_by(|a, b| a.maxdist.total_cmp(&b.maxdist));
    // The engine deduplicates identical (S, R) pairs; mirror that.
    let mut out: Vec<GpSsnAnswer> = Vec::new();
    for a in per_center {
        if !out.iter().any(|b| b.users == a.users && b.pois == a.pois) {
            out.push(a);
        }
        if out.len() == k {
            break;
        }
    }
    out
}

/// Every connected `τ`-group containing `u_q` with pairwise interest
/// `>= γ`, from the feasibility kernel taking none of them (partial when
/// `meter` trips).
fn all_groups(ssn: &SpatialSocialNetwork, q: &GpSsnQuery, meter: &BudgetState) -> Vec<Vec<UserId>> {
    let mut groups = Vec::new();
    let take = |s: &[UserId]| {
        groups.push(s.to_vec());
        false
    };
    probe_groups(ssn.social(), q, |_| true, meter, take);
    groups
}

/// Whether each user `θ`-matches the keyword union of a ball.
fn theta_eligible(ssn: &SpatialSocialNetwork, q: &GpSsnQuery, union: &[u32]) -> Vec<bool> {
    (0..ssn.social().num_users() as UserId)
        .map(|u| match_score_keywords(ssn.social().interest(u), union) >= q.theta)
        .collect()
}

/// The paper's extrapolated Baseline cost estimate.
#[derive(Debug, Clone)]
pub struct BaselineEstimate {
    /// Estimated total CPU seconds (`avg per-pair cost × C(m, τ)`).
    pub cpu_seconds: f64,
    /// Estimated I/O page accesses (POI pages scanned per pair × pairs).
    pub io_pages: f64,
    /// Number of sampled user sets actually measured.
    pub samples: usize,
    /// The extrapolation factor `C(m, τ)`.
    pub total_pairs: f64,
}

/// Estimates the Baseline cost the way the paper does (Figure 8): sample
/// `samples` user sets, measure the average cost of checking one `(S, R)`
/// pair stream, and multiply by the total number `C(m, τ)` of user sets.
pub fn estimate_baseline_cost(
    ssn: &SpatialSocialNetwork,
    q: &GpSsnQuery,
    samples: usize,
) -> BaselineEstimate {
    let m = ssn.social().num_users();
    let n = ssn.pois().len();
    let total_pairs = binomial_f64(m, q.tau);
    // Sample user sets by random BFS growth from u_q (the paper samples
    // 100 sets S).
    let mut sampled = 0usize;
    let started = Instant::now();
    let mut sink = 0.0f64;
    let mut all = |_: &[UserId], _: UserId| true;
    enumerate_connected_subsets(ssn.social().graph(), q.user, q.tau, &mut all, &mut |s| {
        sampled += 1;
        // Measure the work of validating this S against a slice of the
        // POI stream: interest + matching + distance for a few balls.
        let _ = ssn.social().pairwise_interest_holds(s, q.gamma);
        let probe = (sampled * 7919) % n.max(1);
        let pos = ssn.pois().get(probe as PoiId).position;
        let ball = ssn.pois().network_ball(ssn.road(), &pos, q.radius);
        if !ball.is_empty() {
            let ids: Vec<PoiId> = ball.iter().map(|&(o, _)| o).collect();
            let union = ssn.pois().keyword_union(&ids);
            for &u in s {
                sink += match_score_keywords(ssn.social().interest(u), &union);
            }
            let positions: Vec<NetworkPoint> =
                ids.iter().map(|&o| ssn.pois().get(o).position).collect();
            sink += dist_rn_many(ssn.road(), &ssn.home(s[0]), &positions)
                .into_iter()
                .fold(0.0f64, f64::max);
        }
        sampled < samples
    });
    std::hint::black_box(sink);
    let elapsed = started.elapsed().as_secs_f64();
    let per_pair = if sampled == 0 {
        0.0
    } else {
        elapsed / sampled as f64
    };
    // Each pair scans the POI stream once: page accesses ~ n / capacity.
    let pages_per_pair = (n as f64 / 32.0).max(1.0);
    BaselineEstimate {
        cpu_seconds: per_pair * total_pairs,
        io_pages: pages_per_pair * total_pairs,
        samples: sampled,
        total_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::check_answer;
    use gpssn_ssn::{synthetic, SyntheticConfig};

    #[test]
    fn exact_baseline_answers_validate() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.008), 23);
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.3,
            theta: 0.2,
            radius: 3.0,
        };
        if let Some(ans) = exact_baseline(&ssn, &q) {
            check_answer(&ssn, &q, &ans).expect("baseline answer satisfies Definition 5");
        }
    }

    #[test]
    fn baseline_none_when_gamma_unattainable() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.008), 23);
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 5.0,
            theta: 0.2,
            radius: 3.0,
        };
        assert!(exact_baseline(&ssn, &q).is_none());
    }

    #[test]
    fn estimate_scales_with_binomial() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 7);
        let q = GpSsnQuery {
            user: 0,
            tau: 3,
            gamma: 0.2,
            theta: 0.2,
            radius: 2.0,
        };
        let est = estimate_baseline_cost(&ssn, &q, 20);
        assert!(est.samples > 0);
        assert_eq!(est.total_pairs, binomial_f64(ssn.social().num_users(), 3));
        assert!(est.cpu_seconds >= 0.0);
        assert!(est.io_pages > 0.0);
    }
}
