//! Refinement: exact verification of candidate centers (Algorithm 2,
//! lines 29–31).
//!
//! A candidate center `o_i` defines the POI set `R(o_i) = ⊙(o_i, r)` (the
//! road-network ball, which automatically satisfies the pairwise-`2r`
//! predicate). Verifying a center means finding the best feasible user
//! group for it:
//!
//! 1. compute `R(o_i)` exactly and its keyword union;
//! 2. keep candidate users whose `Match_Score(u, R) >= θ` (the query user
//!    must qualify);
//! 3. compute each eligible user's cost `c(u) = max_{o∈R} dist_RN(u, o)`;
//! 4. the optimal group minimizes `max_{u∈S} c(u)` subject to: `|S| = τ`,
//!    `u_q ∈ S`, `S` connected in `G_s`, pairwise interest `>= γ`.
//!    Enabling users in ascending cost order makes feasibility *monotone*
//!    in the enabled prefix, so a binary search over prefix lengths finds
//!    the optimal objective `c_k` exactly (any group with smaller maximum
//!    cost would fit inside a shorter, infeasible prefix).

use crate::breaker::CircuitBreaker;
use crate::cache::{DistDir, DistanceCache};
use crate::error::{BudgetState, GpSsnError};
use crate::query::{GpSsnAnswer, GpSsnQuery};
use gpssn_graph::{enumerate_connected_subsets, ChOracle, ChSearch, DijkstraWorkspace};
use gpssn_road::{dist_rn_many_ch, dist_rn_many_counted_with, NetworkPoint, PoiId};
use gpssn_social::UserId;
use gpssn_ssn::{match_score_keywords, SpatialSocialNetwork};
use std::sync::Arc;

/// Fault-injection points for the panic-isolation tests. Always compiled
/// (the hot-path cost is one relaxed atomic load per verified center);
/// disabled unless a test arms them.
pub mod test_hooks {
    use std::sync::atomic::AtomicU32;

    /// When set to a user id, [`super::verify_center`] panics on entry
    /// for queries from that user — simulating a defect deep inside
    /// refinement. `u32::MAX` (the default) disarms the hook.
    pub static PANIC_ON_USER: AtomicU32 = AtomicU32::new(u32::MAX);
}

/// Outcome of verifying one candidate center.
#[derive(Debug, Clone)]
pub struct CenterVerification {
    /// Best feasible answer for this center, if any. When the budget
    /// trips mid-verification this holds the best *fully verified* group
    /// found before the trip (possibly none) — every group a feasibility
    /// probe returns has had connectivity and pairwise interest checked
    /// exactly, so it is a valid answer even if the probe's *verdict* was
    /// cut short. The caller must still treat the center as unresolved
    /// for gap purposes (a better group may exist at a shorter prefix).
    pub answer: Option<GpSsnAnswer>,
    /// Number of `(S, R)` pairs (connected subsets) examined.
    pub subsets_examined: u64,
}

/// Per-worker state threaded through [`verify_center`]: a reusable
/// Dijkstra workspace (allocation-free repeated runs), the optional
/// cross-query [`DistanceCache`], and the query's budget meter. In
/// parallel refinement each worker owns its workspace while the cache
/// and budget are shared.
pub struct VerifyContext<'a> {
    /// Reused across every Dijkstra this worker runs.
    pub ws: &'a mut DijkstraWorkspace,
    /// Contraction-hierarchy oracle plus this worker's reusable CH
    /// workspace. `Some` routes every `dist_RN` row/column through the
    /// oracle (answers are bit-identical to the Dijkstra path — see
    /// `gpssn_graph::ch`); ball computation always stays on Dijkstra
    /// (the oracle serves point-to-point distances, not range scans).
    pub ch: Option<ChBackend<'a>>,
    /// Cross-query ball / `dist_RN` cache, if the engine has one.
    pub cache: Option<&'a DistanceCache>,
    /// The engine's CH circuit breaker, if one guards the oracle. A
    /// panic out of a CH batch records a failure and the batch is
    /// re-served from Dijkstra (bit-identical); enough consecutive
    /// failures open the breaker and later batches skip the oracle
    /// until a half-open probe succeeds (see [`crate::breaker`]).
    pub breaker: Option<&'a CircuitBreaker>,
    /// The query's budget meter (shared across workers).
    pub budget: &'a BudgetState,
    /// Telemetry sink, if the engine has one attached.
    pub obs: Option<&'a gpssn_obs::Obs>,
    /// Trace-span id of the enclosing refinement phase (0 when tracing
    /// is off); each verified center opens a `verify_center` span under
    /// it, which works across worker threads.
    pub span_parent: u64,
}

/// A CH oracle handle paired with a per-worker search workspace.
pub struct ChBackend<'a> {
    /// The road index's contraction hierarchy.
    pub oracle: &'a ChOracle,
    /// Reused across every CH batch this worker runs.
    pub search: &'a mut ChSearch,
}

/// One multi-target `dist_RN` batch from `source` to every `target`,
/// dispatched on the context's backend. Both paths produce bit-identical
/// rows (the CH oracle unpacks shortcuts and refolds original edge
/// weights in Dijkstra's exact operation order); settles are charged to
/// the same budget either way, with CH batches additionally tallied for
/// [`crate::BackendServed::ch_batches`].
fn dist_batch(
    ssn: &SpatialSocialNetwork,
    ctx: &mut VerifyContext<'_>,
    source: &NetworkPoint,
    targets: &[NetworkPoint],
) -> Vec<f64> {
    // `filter(tracing_on)` keeps the disabled path to one relaxed load —
    // no inert guard, no `Instant::now`.
    let obs = ctx.obs.filter(|o| o.tracing_on());
    if let Some(chb) = ctx.ch.as_mut() {
        // A CH panic must not take the query down — the Dijkstra path
        // below produces the identical row, so the oracle is strictly
        // optional. Failures feed the breaker; an open breaker skips
        // the oracle (and the panic machinery) entirely.
        if ctx.breaker.is_none_or(|b| b.admit(ctx.obs)) {
            let span = obs.map(|o| o.tracer().span("ch_p2p"));
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dist_rn_many_ch(ssn.road(), chb.oracle, chb.search, source, targets)
            }));
            drop(span);
            match attempt {
                Ok((row, settled)) => {
                    if let Some(b) = ctx.breaker {
                        b.record_success(ctx.obs);
                    }
                    ctx.budget.note_ch_batch(settled);
                    ctx.budget.add_settles(settled);
                    return row;
                }
                Err(_) => {
                    // The unwound batch left the workspace mid-sweep;
                    // wipe it so the next batch stays bit-identical.
                    chb.search.hard_reset();
                    ctx.budget.note_ch_fault();
                    if let Some(b) = ctx.breaker {
                        b.record_failure(ctx.obs);
                    }
                    if let Some(o) = ctx.obs {
                        o.inc("gpssn_ch_faults_total", &[], 1);
                    }
                }
            }
        }
    }
    let _span = obs.map(|o| o.tracer().span("dijkstra_batch"));
    ctx.budget.note_dijkstra_batch();
    let (row, settled) = dist_rn_many_counted_with(ssn.road(), ctx.ws, source, targets);
    ctx.budget.add_settles(settled);
    row
}

/// One `dist_RN` row from `source` (id `source_id`: the user's home
/// for [`DistDir::FromUser`], the POI for [`DistDir::FromPoi`]) to
/// every target, via one multi-target batch — served from the cache
/// when every key is resident (all-or-nothing: a partial hit recomputes
/// the whole row, since one batch covers all targets anyway). Freshly
/// computed values are inserted even when the budget trips mid-run
/// (they are exact). The direction is part of the cache key (see
/// [`crate::cache`] for why). `None` means the budget tripped.
fn cached_row(
    ssn: &SpatialSocialNetwork,
    ctx: &mut VerifyContext<'_>,
    dir: DistDir,
    source_id: u32,
    source: &NetworkPoint,
    target_ids: &[u32],
    targets: &[NetworkPoint],
) -> Option<Vec<f64>> {
    let n = target_ids.len() as u64;
    if let Some(row) = ctx
        .cache
        .and_then(|c| c.get_row(dir, source_id, target_ids))
    {
        ctx.budget.note_dist_cache(true, n);
        return Some(row);
    }
    let row = dist_batch(ssn, ctx, source, targets);
    if let Some(cache) = ctx.cache {
        ctx.budget.note_dist_cache(false, n);
        cache.put_row(dir, source_id, target_ids, &row);
    }
    if ctx.budget.is_tripped() {
        None
    } else {
        Some(row)
    }
}

/// Verifies candidate center `center`. `best_so_far` allows early exits:
/// a center whose query-user cost already reaches it cannot improve the
/// global answer. `enumeration_cap` bounds the subsets examined per
/// feasibility check (a safety valve; `u32::MAX as usize` disables it).
/// Dijkstra settles and enumerated subsets are charged to `ctx.budget`;
/// once it trips the verification stops early, reporting the best group
/// it had fully verified by then (see [`CenterVerification::answer`]).
///
/// **Determinism.** On a completed (untripped) search the returned
/// group is the one found at the minimal feasible cost-prefix `k*` — a
/// pure function of the center, the exact user costs, and the query's
/// social constraints. Any `best_so_far` larger than the center's
/// optimal value yields the same group bit-for-bit, which is what lets
/// parallel refinement (whose workers race the shared bound downward)
/// reproduce the sequential answer exactly.
///
/// **Errors.** `Err` means an internal invariant was violated (a group
/// member missing from the cost table) — never a budget trip, which is
/// reported through [`CenterVerification::answer`] as before. Callers
/// treat an `Err` center as unresolved: record the fault, keep the
/// query alive, and let the degradation ladder decide what to serve.
pub fn verify_center(
    ssn: &SpatialSocialNetwork,
    q: &GpSsnQuery,
    candidates: &[UserId],
    center: PoiId,
    best_so_far: f64,
    enumeration_cap: usize,
    ctx: &mut VerifyContext<'_>,
) -> Result<CenterVerification, GpSsnError> {
    if q.user == test_hooks::PANIC_ON_USER.load(std::sync::atomic::Ordering::Relaxed) {
        panic!("test hook: injected refinement fault for user {}", q.user);
    }
    if gpssn_failpoint::failpoint!("refine::verify_center") {
        panic!("injected fault: refine::verify_center (center {center})");
    }
    // Opened with an explicit parent so worker threads chain under the
    // refinement phase; nested spans (ball, distance batches) pick this
    // span up through the thread-local current-span cell.
    let _vspan = ctx.obs.filter(|o| o.tracing_on()).map(|o| {
        o.tracer()
            .span_with_parent("verify_center", ctx.span_parent)
    });
    let mut out = CenterVerification {
        answer: None,
        subsets_examined: 0,
    };
    let budget = ctx.budget;
    let center_pos = ssn.pois().get(center).position;
    let ball_span = ctx
        .obs
        .filter(|o| o.tracing_on())
        .map(|o| o.tracer().span("ball"));
    let ball: Arc<Vec<(PoiId, f64)>> = match ctx.cache {
        Some(cache) => match cache.get_ball(center, q.radius) {
            Some(b) => {
                budget.note_ball_cache(true);
                b
            }
            None => {
                budget.note_ball_cache(false);
                let b = Arc::new(ssn.pois().network_ball_with(
                    ssn.road(),
                    ctx.ws,
                    &center_pos,
                    q.radius,
                ));
                cache.put_ball(center, q.radius, Arc::clone(&b));
                b
            }
        },
        None => Arc::new(
            ssn.pois()
                .network_ball_with(ssn.road(), ctx.ws, &center_pos, q.radius),
        ),
    };
    drop(ball_span);
    if ball.is_empty() {
        return Ok(out);
    }
    let r_ids: Vec<PoiId> = ball.iter().map(|&(o, _)| o).collect();
    let union = ssn.pois().keyword_union(&r_ids);

    // Matching eligibility (the query user must qualify).
    if match_score_keywords(ssn.social().interest(q.user), &union) < q.theta {
        return Ok(out);
    }

    // Exact cost of the query user first — one Dijkstra, cheapest exit.
    let positions: Vec<NetworkPoint> = r_ids.iter().map(|&o| ssn.pois().get(o).position).collect();
    let Some(cq_dists) = cached_row(
        ssn,
        ctx,
        DistDir::FromUser,
        q.user,
        &ssn.home(q.user),
        &r_ids,
        &positions,
    ) else {
        return Ok(out);
    };
    let cq = cq_dists.into_iter().fold(0.0f64, f64::max);
    if cq >= best_so_far || budget.is_tripped() {
        return Ok(out); // any group containing u_q costs at least cq
    }

    let mut eligible: Vec<UserId> = candidates
        .iter()
        .copied()
        .filter(|&u| match_score_keywords(ssn.social().interest(u), &union) >= q.theta)
        .collect();
    if !eligible.contains(&q.user) {
        eligible.push(q.user);
    }
    if eligible.len() < q.tau {
        return Ok(out);
    }

    // Exact user costs c(u) = max_{o ∈ R} dist_RN(u, o), computed with
    // one multi-target Dijkstra per ball POI (columns), which beats one
    // Dijkstra per user whenever |R| < |eligible| — the common case.
    let homes: Vec<NetworkPoint> = eligible.iter().map(|&u| ssn.home(u)).collect();
    let mut cost_vec = vec![0.0f64; eligible.len()];
    if positions.len() <= eligible.len() {
        for (&o, pos) in r_ids.iter().zip(&positions) {
            let Some(col) = cached_row(ssn, ctx, DistDir::FromPoi, o, pos, &eligible, &homes)
            else {
                return Ok(out);
            };
            for (c, d) in cost_vec.iter_mut().zip(col) {
                *c = c.max(d);
            }
        }
    } else {
        for (c, &u) in cost_vec.iter_mut().zip(&eligible) {
            let Some(row) = cached_row(
                ssn,
                ctx,
                DistDir::FromUser,
                u,
                &ssn.home(u),
                &r_ids,
                &positions,
            ) else {
                return Ok(out);
            };
            *c = row.into_iter().fold(0.0f64, f64::max);
        }
    }
    let mut costs: Vec<(UserId, f64)> = eligible.iter().copied().zip(cost_vec).collect();
    // Total order (panic-proof under NaN) with an id tie-break, so the
    // enabled prefix at any length is canonical — independent of the
    // candidate ordering the caller happened to pass.
    costs.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    // Only prefixes that beat the incumbent are worth exploring.
    let usable = costs.partition_point(|&(_, c)| c < best_so_far);
    let costs = &costs[..usable];
    if costs.len() < q.tau || !costs.iter().any(|&(u, _)| u == q.user) {
        return Ok(out);
    }

    // Binary search the smallest feasible enabled prefix (feasibility is
    // monotone in the prefix length).
    let graph = ssn.social().graph();
    let m = ssn.social().num_users();
    let feasible_at = |k: usize, out: &mut CenterVerification| -> Option<Vec<UserId>> {
        let mut allowed = vec![false; m];
        for &(u, _) in &costs[..k] {
            allowed[u as usize] = true;
        }
        if !allowed[q.user as usize] {
            return None;
        }
        let mut found: Option<Vec<UserId>> = None;
        let mut visits = 0u64;
        enumerate_connected_subsets(graph, q.user, q.tau, Some(&allowed), &mut |s| {
            visits += 1;
            budget.note_group();
            if budget.is_tripped() {
                return false;
            }
            if ssn.social().pairwise_interest_holds(s, q.gamma) {
                found = Some(s.to_vec());
                return false;
            }
            visits < enumeration_cap as u64
        });
        out.subsets_examined += visits;
        found
    };

    // Every feasibility probe below may be cut short by the budget. A
    // trip only invalidates the probe's *verdict* (a truncated `None`
    // proves nothing, so the binary search must never narrow on it); a
    // group the probe did return was checked exactly before the trip and
    // stays a valid answer. So: keep the cheapest group seen, and on a
    // trip stop searching and report it — the caller folds this center's
    // lower bound into the anytime gap, which keeps the bound sound.
    let group_maxdist = |g: &[UserId]| -> Result<f64, GpSsnError> {
        let mut md = 0.0f64;
        for &u in g {
            match costs.iter().find(|&&(v, _)| v == u) {
                Some(&(_, c)) => md = md.max(c),
                // Feasibility probes only enable users drawn from the
                // cost prefix, so a missing member is a broken internal
                // invariant — surface it as a typed error, not a panic.
                None => {
                    return Err(GpSsnError::Internal(format!(
                        "refinement invariant violated: group member {u} missing from cost table \
                         of center {center}"
                    )))
                }
            }
        }
        Ok(md)
    };
    // Two trackers over the feasibility probes: `min_prefix_group` is
    // the group from the feasible probe at the *smallest* prefix
    // (feasible probes occur at strictly decreasing prefixes, so a
    // plain overwrite suffices). On a completed search that probe is at
    // the minimal feasible prefix `k*` — the binary search always
    // probes `k*` itself — making the group a pure function of the
    // center and the costs, independent of `best_so_far` (see the
    // determinism note on [`verify_center`]). `best_verified` is the
    // cheapest group any probe returned: the fallback reported when a
    // budget trip stops the search before it reaches `k*`.
    let mut best_verified: Option<(Vec<UserId>, f64)> = None;
    let mut min_prefix_group: Option<Vec<UserId>> = None;
    let record = |g: Vec<UserId>,
                  best: &mut Option<(Vec<UserId>, f64)>,
                  minp: &mut Option<Vec<UserId>>|
     -> Result<(), GpSsnError> {
        let md = group_maxdist(&g)?;
        if best.as_ref().is_none_or(|&(_, b)| md < b) {
            *best = Some((g.clone(), md));
        }
        *minp = Some(g);
        Ok(())
    };
    let mut lo = q.tau; // smallest prefix that could host a group
    let mut hi = costs.len();
    match feasible_at(hi, &mut out) {
        Some(g) => record(g, &mut best_verified, &mut min_prefix_group)?,
        None => return Ok(out), // infeasible (or truncated before any find)
    }
    while lo < hi && !budget.is_tripped() {
        let mid = (lo + hi) / 2;
        match feasible_at(mid, &mut out) {
            Some(g) => {
                record(g, &mut best_verified, &mut min_prefix_group)?;
                hi = mid;
            }
            None => {
                if budget.is_tripped() {
                    break; // verdict truncated: proves nothing
                }
                lo = mid + 1;
            }
        }
    }
    // When the search ran to completion, `hi` is the minimal feasible
    // prefix and its probe's group is optimal: its maxdist equals
    // costs[hi-1].1, and any cheaper group would fit inside a shorter,
    // infeasible prefix. On a trip, fall back to the best group
    // verified before the cut.
    let chosen = if budget.is_tripped() {
        best_verified
    } else {
        match min_prefix_group {
            Some(g) => {
                let md = group_maxdist(&g)?;
                Some((g, md))
            }
            None => None,
        }
    };
    if let Some((group, maxdist)) = chosen {
        if maxdist < best_so_far {
            let mut users = group;
            users.sort_unstable();
            let mut pois = r_ids;
            pois.sort_unstable();
            out.answer = Some(GpSsnAnswer {
                users,
                pois,
                maxdist,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpssn_road::{Poi, PoiSet, RoadNetwork};
    use gpssn_social::{InterestVector, SocialNetwork};
    use gpssn_spatial::Point;

    /// Drives [`verify_center`] with a fresh workspace, no cache, and an
    /// unlimited budget.
    fn verify(
        ssn: &SpatialSocialNetwork,
        q: &GpSsnQuery,
        candidates: &[UserId],
        center: PoiId,
        best: f64,
    ) -> CenterVerification {
        let mut ws = DijkstraWorkspace::new();
        let budget = BudgetState::unlimited();
        let mut ctx = VerifyContext {
            ws: &mut ws,
            ch: None,
            cache: None,
            breaker: None,
            budget: &budget,
            obs: None,
            span_parent: 0,
        };
        verify_center(ssn, q, candidates, center, best, usize::MAX, &mut ctx)
            .expect("no invariant faults in tests")
    }

    /// Line road 0..4 (x = 0, 2, 4, 6, 8); POIs at x = 1, 3, 7.
    /// Users: 0 at x=0, 1 at x=2, 2 at x=4, 3 at x=8.
    fn fixture() -> SpatialSocialNetwork {
        let locs: Vec<Point> = (0..5).map(|i| Point::new(2.0 * i as f64, 0.0)).collect();
        let road = RoadNetwork::from_euclidean_edges(locs, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let pois = PoiSet::new(
            &road,
            vec![
                Poi::new(NetworkPoint::new(&road, 0, 1.0), vec![0]), // x=1
                Poi::new(NetworkPoint::new(&road, 1, 1.0), vec![1]), // x=3
                Poi::new(NetworkPoint::new(&road, 3, 1.0), vec![0, 1]), // x=7
            ],
        );
        let social = SocialNetwork::new(
            vec![
                InterestVector::new(vec![0.9, 0.9]),
                InterestVector::new(vec![0.8, 0.8]),
                InterestVector::new(vec![0.9, 0.1]),
                InterestVector::new(vec![0.9, 0.9]),
            ],
            &[(0, 1), (1, 2), (2, 3)],
        );
        let homes = vec![
            NetworkPoint::new(&road, 0, 0.0), // x=0
            NetworkPoint::new(&road, 0, 2.0), // x=2
            NetworkPoint::new(&road, 1, 2.0), // x=4
            NetworkPoint::new(&road, 3, 2.0), // x=8
        ];
        SpatialSocialNetwork::new(road, pois, social, homes)
    }

    #[test]
    fn finds_best_group_for_center() {
        let ssn = fixture();
        // Center POI 0 (x=1), r=2.1: ball = {POI0 (x=1), POI1 (x=3)}.
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.5,
            theta: 0.5,
            radius: 2.1,
        };
        let v = verify(&ssn, &q, &[0, 1, 2, 3], 0, f64::INFINITY);
        let ans = v.answer.expect("feasible");
        assert_eq!(ans.users, vec![0, 1]);
        // c(0)=dist to x=3 -> 3; c(1)=max(1,1)=1 -> maxdist = 3.
        assert!((ans.maxdist - 3.0).abs() < 1e-9);
        assert!(v.subsets_examined > 0);
    }

    #[test]
    fn theta_excludes_nonmatching_users() {
        let ssn = fixture();
        // Ball around POI 0 with tiny radius: only keyword 0. User 2 has
        // w=(0.9,0.1): match=0.9. All users match keyword 0 well except
        // none fail... use theta high enough to exclude user 1 (0.8).
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.0,
            theta: 0.85,
            radius: 0.5,
        };
        let v = verify(&ssn, &q, &[0, 1, 2, 3], 0, f64::INFINITY);
        // Eligible: users 0 (0.9), 2 (0.9), 3 (0.9); group must be
        // connected & contain 0: {0,2}? not adjacent (0-1,1-2) -> no.
        assert!(v.answer.is_none());
    }

    #[test]
    fn gamma_blocks_incompatible_groups() {
        let ssn = fixture();
        // score(0,1) = 0.72+0.72 = 1.44; gamma above that blocks {0,1}.
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 1.5,
            theta: 0.0,
            radius: 2.1,
        };
        let v = verify(&ssn, &q, &[0, 1, 2, 3], 0, f64::INFINITY);
        assert!(v.answer.is_none());
    }

    #[test]
    fn best_so_far_short_circuits() {
        let ssn = fixture();
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.5,
            theta: 0.5,
            radius: 2.1,
        };
        // Optimal is 3.0; a bound of 2.9 must yield nothing.
        let v = verify(&ssn, &q, &[0, 1, 2, 3], 0, 2.9);
        assert!(v.answer.is_none());
    }

    #[test]
    fn tau_one_returns_query_user_alone() {
        let ssn = fixture();
        let q = GpSsnQuery {
            user: 1,
            tau: 1,
            gamma: 9.9,
            theta: 0.5,
            radius: 2.1,
        };
        let v = verify(&ssn, &q, &[0, 1, 2, 3], 0, f64::INFINITY);
        let ans = v.answer.expect("singleton group");
        assert_eq!(ans.users, vec![1]);
        assert!((ans.maxdist - 1.0).abs() < 1e-9); // max(dist to x=1, x=3) = 1
    }

    #[test]
    fn empty_candidates_still_considers_query_user() {
        let ssn = fixture();
        let q = GpSsnQuery {
            user: 0,
            tau: 1,
            gamma: 0.0,
            theta: 0.0,
            radius: 2.1,
        };
        let v = verify(&ssn, &q, &[], 0, f64::INFINITY);
        assert!(v.answer.is_some());
    }

    #[test]
    fn infeasible_tau_returns_none() {
        let ssn = fixture();
        let q = GpSsnQuery {
            user: 0,
            tau: 5,
            gamma: 0.0,
            theta: 0.0,
            radius: 2.1,
        };
        let v = verify(&ssn, &q, &[0, 1, 2, 3], 0, f64::INFINITY);
        assert!(v.answer.is_none());
    }
}
