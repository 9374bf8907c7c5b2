//! Refinement: exact verification of candidate centers (Algorithm 2,
//! lines 29–31).
//!
//! A candidate center `o_i` defines the POI set `R(o_i) = ⊙(o_i, r)` (the
//! road-network ball, which automatically satisfies the pairwise-`2r`
//! predicate). Verifying a center means finding the best feasible user
//! group for it:
//!
//! 1. compute `R(o_i)` exactly;
//! 2. the query user must cost less than the incumbent (every group
//!    contains `u_q`, so `c(u_q)` bounds every group at the center) and
//!    satisfy `Match_Score(u_q, R) >= θ` over the ball's keyword union; a
//!    center that fails either is *settled* there, before any other user
//!    is costed;
//! 3. one breadth-first pass from `u_q`, to `τ − 1` hops, decides which
//!    users the center considers: a user is tested the first time the
//!    search reaches them (a query candidate, pivot lower bound below the
//!    incumbent, `Match_Score >= θ`), and each layer of users that pass is
//!    costed in one distance batch, `c(u) = max_{o∈R} dist_RN(u, o)`; the
//!    search continues only through users cheaper than the incumbent;
//! 4. the optimal group minimizes `max_{u∈S} c(u)` subject to: `|S| = τ`,
//!    `u_q ∈ S`, `S` connected in `G_s`, pairwise interest `>= γ`.
//!    Enabling users in ascending cost order makes feasibility *monotone*
//!    in the enabled prefix, so a binary search over prefix lengths finds
//!    the optimal objective `c_k` exactly (any group with smaller maximum
//!    cost would fit inside a shorter, infeasible prefix).
//!
//! Steps 1–3 are shared by every query mode; step 4 is the context's
//! [`CenterSearch`]: the exact prefix search above, or the paper's §5
//! subset sampling ([`crate::sampling`]), which draws random connected
//! groups from the same reached users.

use crate::breaker::CircuitBreaker;
use crate::cache::{BallRow, DistanceCache};
use crate::error::BudgetState;
use crate::query::{GpSsnAnswer, GpSsnQuery};
use crate::stats::Counter;
use gpssn_graph::{enumerate_connected_subsets, ChOracle, ChSearch, DijkstraWorkspace};
use gpssn_road::{
    dist_rn_many_counted_with, dist_rn_matrix_ch, dist_rn_pinned_ch, NetworkPoint, PoiId,
};
use gpssn_social::{SocialNetwork, UserId};
use gpssn_ssn::{match_score_keywords, SpatialSocialNetwork};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Fault-injection points for the panic-isolation tests. Always compiled
/// (the hot-path cost is one relaxed atomic load per verified center);
/// disabled unless a test arms them.
pub mod test_hooks {
    use std::sync::atomic::AtomicU32;

    /// When set to a user id, [`super::verify_center`] panics on entry
    /// (in `center_key`, a center's first step) for queries from
    /// that user — simulating a defect deep inside refinement. `u32::MAX`
    /// (the default) disarms the hook.
    pub static PANIC_ON_USER: AtomicU32 = AtomicU32::new(u32::MAX);
}

/// Outcome of verifying one candidate center.
#[derive(Debug, Clone, Default)]
pub struct CenterVerification {
    /// Best feasible answer for this center, if any. When the budget
    /// trips mid-verification this holds the best *fully verified* group
    /// found before the trip (possibly none) — every group a probe or a
    /// draw returns has had connectivity and pairwise interest checked
    /// exactly, so it is a valid answer even if the search was cut short.
    /// The caller must still treat the center as unresolved for gap
    /// purposes (a better group may exist at a shorter prefix).
    pub answer: Option<GpSsnAnswer>,
    /// Number of `(S, R)` pairs examined: complete valid `τ`-groups the
    /// feasibility probes or draws reached.
    pub subsets_examined: u64,
}

/// Per-scope state threaded through [`verify_center`]: a reusable
/// Dijkstra workspace (allocation-free repeated runs), the optional
/// cross-query [`DistanceCache`], the query's budget meter, the query
/// user's distance row, and the mode's [`CenterSearch`].
pub struct VerifyContext<'a> {
    /// Reused across every Dijkstra this scope runs.
    pub ws: &'a mut DijkstraWorkspace,
    /// Contraction-hierarchy oracle plus this scope's reusable CH
    /// workspace. `Some` routes every `dist_RN` row/column through the
    /// oracle (answers are bit-identical to the Dijkstra path — see
    /// `gpssn_graph::ch`); ball computation always stays on Dijkstra
    /// (the oracle serves point-to-point distances, not range scans).
    pub ch: Option<ChBackend<'a>>,
    /// Cross-query ball cache, if the engine has one.
    pub cache: Option<&'a DistanceCache>,
    /// The engine's CH circuit breaker, if one guards the oracle. A
    /// panic out of a CH batch records a failure and the batch is
    /// re-served from Dijkstra (bit-identical); enough consecutive
    /// failures open the breaker and later batches skip the oracle
    /// until a half-open probe succeeds (see [`crate::breaker`]).
    pub breaker: Option<&'a CircuitBreaker>,
    /// The query's budget meter.
    pub budget: &'a BudgetState,
    /// Telemetry sink, if the engine has one attached. A center that
    /// gets past the query user's tests opens a `verify_center` span
    /// under the enclosing refinement phase's span, and a ball computed
    /// (not served from the cache) a `ball` span.
    pub obs: Option<&'a gpssn_obs::Obs>,
    /// Per-center user marks, reused by every center this scope verifies.
    pub marks: UserMarks,
    /// The query user's `dist_RN` row, shared by every center.
    pub uq_row: UserRow,
    /// How each center searches its reached users for a group.
    pub search: CenterSearch,
}

/// How [`verify_center`] searches the users it reached (step 4 of the
/// module docs). Both searches check every Definition-5 predicate
/// exactly; on a budget trip both report the best group verified before
/// it.
#[derive(Debug)]
pub enum CenterSearch {
    /// The optimum: binary search over cost-ordered enabled prefixes
    /// ([`crate::QueryMode::Exact`] and [`crate::QueryMode::TopK`]).
    Prefix,
    /// The paper's §5 subset sampling ([`crate::QueryMode::Approximate`]
    /// and the ladder's rescue): `samples` random connected groups per
    /// center, keeping the cheapest valid one. Each draw is one
    /// admission check of the budget.
    Sample {
        /// Random groups drawn per center.
        samples: usize,
        /// The scope's generator: the same seed gives the same draws.
        rng: StdRng,
    },
}

impl CenterSearch {
    /// Subset sampling with `samples` draws per center, seeded by `seed`.
    pub fn sample(samples: usize, seed: u64) -> Self {
        CenterSearch::Sample {
            samples,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

/// Which users the center being verified has reached, and each costed
/// user's rank in its cost order. A new stamp per center makes every user
/// read as unreached, so nothing is cleared between centers and a
/// verification that unwound leaves no state behind. The first center
/// that needs the per-user table allocates it.
#[derive(Debug, Default)]
pub struct UserMarks {
    stamp: u32,
    /// Per user: the stamp of the center that last reached them, and
    /// their rank in that center's cost order ([`UNRANKED`] if none).
    by_user: Vec<(u32, u32)>,
}

const UNRANKED: u32 = u32::MAX;

impl UserMarks {
    /// Starts a center: every one of `num_users` users reads as unreached.
    fn begin(&mut self, num_users: usize) {
        if self.stamp == u32::MAX {
            *self = UserMarks::default();
        }
        let len = self.by_user.len().max(num_users);
        self.by_user.resize(len, (0, UNRANKED));
        self.stamp += 1;
    }

    /// Marks `u` reached; `false` if this center had already reached them.
    fn reach(&mut self, u: UserId) -> bool {
        let m = &mut self.by_user[u as usize];
        if m.0 == self.stamp {
            return false;
        }
        *m = (self.stamp, UNRANKED);
        true
    }

    /// `u`'s rank in this center's cost order, if this center costed them.
    fn rank(&self, u: UserId) -> Option<usize> {
        let (stamp, rank) = self.by_user[u as usize];
        (stamp == self.stamp && rank != UNRANKED).then_some(rank as usize)
    }
}

/// `dist_RN(u, o)` per POI id for one user `u` (the query user), NaN
/// until a center's ball needs it. It depends on `u`'s home only, so
/// it stays valid for every center and query of `u`; a center for
/// another user starts it afresh.
#[derive(Debug, Default)]
pub struct UserRow {
    user: Option<UserId>,
    dists: Vec<f64>,
}

/// The users one center reached, ranked by exact cost: what a
/// [`CenterSearch`] draws its groups from.
pub(crate) struct Ranked<'a> {
    /// `(user, cost)` in ascending `(cost, id)` order.
    costs: &'a [(UserId, f64)],
    marks: &'a UserMarks,
}

impl Ranked<'_> {
    /// `u`'s rank in the cost order, if the center reached them.
    pub(crate) fn rank(&self, u: UserId) -> Option<usize> {
        self.marks.rank(u)
    }

    /// A group of ranked users costs what its highest-ranked member costs.
    pub(crate) fn maxdist(&self, group: &[UserId]) -> f64 {
        let top = group.iter().filter_map(|&u| self.rank(u)).max();
        top.map_or(0.0, |r| self.costs[r].1)
    }
}

/// A CH oracle handle paired with a reusable search workspace.
pub struct ChBackend<'a> {
    /// The road index's contraction hierarchy.
    pub oracle: &'a ChOracle,
    /// Reused across every CH batch this scope runs.
    pub search: &'a mut ChSearch,
}

/// `dist_RN` from every source to every target in one batch on the
/// context's backend: the row-major `sources.len() × targets.len()`
/// matrix. The CH oracle serves the whole matrix in one call
/// ([`Counter::ChBatches`] counts calls, each carrying any number of
/// sources); plain Dijkstra runs one multi-target sweep per source
/// ([`Counter::DijkstraBatches`] counts sweeps). Both paths produce
/// bit-identical values (road lengths sit on the `2⁻³²` grid, so every
/// sum is exact), and settles are charged to the same budget either way,
/// on the backend that served them.
///
/// With `pin`, `sources` is the query user's home alone and the CH
/// oracle serves it from the workspace's pinned sweep
/// ([`dist_rn_pinned_ch`]): only the call that runs the sweep opens a
/// `ch_p2p` span and counts a batch; later calls scan labels only.
fn dist_batch(
    ssn: &SpatialSocialNetwork,
    ctx: &mut VerifyContext<'_>,
    sources: &[NetworkPoint],
    targets: &[NetworkPoint],
    pin: bool,
) -> Vec<f64> {
    // `filter(tracing_on)` keeps the disabled path to one relaxed load —
    // no inert guard, no `Instant::now`.
    let obs = ctx.obs.filter(|o| o.tracing_on());
    if let Some(chb) = ctx.ch.as_mut() {
        // A CH panic must not take the query down — the Dijkstra path
        // below produces the identical matrix, so the oracle is strictly
        // optional. Failures feed the breaker; an open breaker skips
        // the oracle (and the panic machinery) entirely.
        if ctx.breaker.is_none_or(|b| b.admit(ctx.obs)) {
            let sweeps = !(pin && chb.search.is_pinned(&sources[0].seeds(ssn.road())));
            let span = obs.filter(|_| sweeps).map(|o| o.tracer().span("ch_p2p"));
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (road, oracle) = (ssn.road(), chb.oracle);
                if pin {
                    dist_rn_pinned_ch(road, oracle, chb.search, &sources[0], targets)
                } else {
                    dist_rn_matrix_ch(road, oracle, chb.search, sources, targets)
                }
            }));
            drop(span);
            match attempt {
                Ok((matrix, settled)) => {
                    if let Some(b) = ctx.breaker {
                        b.record_success(ctx.obs);
                    }
                    if sweeps {
                        ctx.budget.add(Counter::ChBatches, 1);
                        ctx.budget.add_settles(Counter::ChSettles, settled);
                    }
                    return matrix;
                }
                Err(_) => {
                    // The unwound batch left the workspace mid-sweep;
                    // wipe it so the next batch stays bit-identical.
                    chb.search.hard_reset();
                    ctx.budget.add(Counter::ChFaults, 1);
                    if let Some(b) = ctx.breaker {
                        b.record_failure(ctx.obs);
                    }
                }
            }
        }
    }
    let _span = obs.map(|o| o.tracer().span("dijkstra_batch"));
    let mut matrix = Vec::with_capacity(sources.len() * targets.len());
    for source in sources {
        ctx.budget.add(Counter::DijkstraBatches, 1);
        let (row, settled) = dist_rn_many_counted_with(ssn.road(), ctx.ws, source, targets);
        ctx.budget.add_settles(Counter::DijkstraSettles, settled);
        matrix.extend(row);
    }
    matrix
}

/// Exact costs `c(u) = max_{o∈R} dist_RN(u, o)` of `users` over the
/// ball positions, in one [`dist_batch`] call. With `from_poi` the rows
/// run from each POI over the users' homes, otherwise from each home
/// over the ball; both give the same bits, and the caller picks the
/// direction with fewer sources (the cheaper CH batch). `None` means the
/// budget tripped.
fn user_costs(
    ssn: &SpatialSocialNetwork,
    ctx: &mut VerifyContext<'_>,
    from_poi: bool,
    positions: &[NetworkPoint],
    users: &[UserId],
) -> Option<Vec<f64>> {
    let homes: Vec<NetworkPoint> = users.iter().map(|&u| ssn.home(u)).collect();
    let (sources, targets) = if from_poi {
        (positions, &homes[..])
    } else {
        (&homes[..], positions)
    };
    let matrix = dist_batch(ssn, ctx, sources, targets, false);
    if ctx.budget.is_tripped() {
        return None;
    }
    let n = targets.len();
    let mut costs = vec![0.0f64; users.len()];
    for (k, &d) in matrix.iter().enumerate() {
        let u = if from_poi { k % n } else { k / n };
        costs[u] = costs[u].max(d);
    }
    Some(costs)
}

/// The query user's exact cost over `ball`, read from the context's
/// [`UserRow`]: the ball POIs the row lacks are computed in one pinned
/// [`dist_batch`] call and kept, so on CH the query runs one forward
/// sweep from `user`'s home and each later center scans only its new
/// POIs' labels. Sums are exact, so the maximum has the bits of costing
/// `user` over the ball directly. `None` means the budget tripped.
fn query_user_cost(
    ssn: &SpatialSocialNetwork,
    ctx: &mut VerifyContext<'_>,
    user: UserId,
    ball: &[(PoiId, f64)],
) -> Option<f64> {
    if ctx.uq_row.user != Some(user) {
        ctx.uq_row.user = Some(user);
        ctx.uq_row.dists.clear();
        ctx.uq_row.dists.resize(ssn.pois().len(), f64::NAN);
    }
    let missing: Vec<PoiId> = ball
        .iter()
        .map(|&(o, _)| o)
        .filter(|&o| ctx.uq_row.dists[o as usize].is_nan())
        .collect();
    if !missing.is_empty() {
        let targets: Vec<NetworkPoint> = missing
            .iter()
            .map(|&o| ssn.pois().get(o).position)
            .collect();
        let row = dist_batch(ssn, ctx, &[ssn.home(user)], &targets, true);
        for (&o, d) in missing.iter().zip(row) {
            ctx.uq_row.dists[o as usize] = d;
        }
    }
    if ctx.budget.is_tripped() {
        return None;
    }
    let cost = ball.iter().map(|&(o, _)| ctx.uq_row.dists[o as usize]);
    Some(cost.fold(0.0f64, f64::max))
}

/// The ball `⊙(center, r)`: served from the cache when it holds it,
/// otherwise computed under a `ball` span (and inserted).
fn center_ball(
    ssn: &SpatialSocialNetwork,
    q: &GpSsnQuery,
    center: PoiId,
    ctx: &mut VerifyContext<'_>,
) -> BallRow {
    let cached = ctx
        .cache
        .map(|cache| (cache, cache.get_ball(center, q.radius)));
    if let Some((_, Some(ball))) = cached {
        ctx.budget.add(Counter::BallHits, 1);
        return ball;
    }
    let _span = ctx
        .obs
        .filter(|o| o.tracing_on())
        .map(|o| o.tracer().span("ball"));
    let center_pos = ssn.pois().get(center).position;
    let ball = ssn
        .pois()
        .network_ball_with(ssn.road(), ctx.ws, &center_pos, q.radius);
    let ball = Arc::new(ball);
    if let Some((cache, _)) = cached {
        ctx.budget.add(Counter::BallMisses, 1);
        cache.put_ball(center, q.radius, Arc::clone(&ball));
    }
    ball
}

/// One feasibility probe's verdict.
pub(crate) enum Probe {
    /// A connected `τ`-group among the enabled users, with connectivity
    /// and pairwise interest checked exactly.
    Found(Vec<UserId>),
    /// The enumeration finished without taking a group.
    Infeasible,
    /// The budget tripped before the enumeration finished: the verdict
    /// proves nothing.
    Cut,
}

/// The feasibility kernel: enumerates the connected `τ`-groups that
/// contain `q.user`, draw only on `enabled` users and have pairwise
/// interest `>= γ`, offering each to `take`; the first group `take`
/// accepts ends the probe as [`Probe::Found`].
///
/// A group grows only through users γ-compatible with every current
/// member. Pairwise γ is hereditary (every subset of a valid group is
/// valid), so this skips only partial groups no valid group contains,
/// and the valid groups arrive in the order of the unfiltered
/// enumeration (see [`enumerate_connected_subsets`]): the first group a
/// probe finds is unchanged. Every admission check of an enabled user is
/// charged to `meter` as one [`Counter::GroupsEnumerated`] (a disabled
/// user is rejected for free), so a probe that rejects every partial
/// group still trips [`crate::QueryBudget::max_groups_enumerated`]; any
/// trip ends the probe as [`Probe::Cut`].
pub(crate) fn probe_groups(
    social: &SocialNetwork,
    q: &GpSsnQuery,
    enabled: impl Fn(UserId) -> bool,
    meter: &BudgetState,
    mut take: impl FnMut(&[UserId]) -> bool,
) -> Probe {
    let mut admit = |set: &[UserId], v: UserId| {
        enabled(v)
            && meter.note_group().is_none()
            && set.iter().all(|&u| social.score(u, v) >= q.gamma)
    };
    let mut found = None;
    enumerate_connected_subsets(social.graph(), q.user, q.tau, &mut admit, &mut |s| {
        if take(s) {
            found = Some(s.to_vec());
        }
        found.is_none()
    });
    match found {
        Some(group) => Probe::Found(group),
        None if meter.is_tripped() => Probe::Cut,
        None => Probe::Infeasible,
    }
}

/// A center's key material: its ball `R` ([`center_ball`]) and the query
/// user's exact cost over it, `c(u_q)` ([`query_user_cost`]). Every
/// group at the center contains `u_q`, so `c(u_q)` bounds its maxdist
/// from below; the center loop re-keys a center by it. `None` means the
/// budget tripped.
pub(crate) fn center_key(
    ssn: &SpatialSocialNetwork,
    q: &GpSsnQuery,
    center: PoiId,
    ctx: &mut VerifyContext<'_>,
) -> Option<(BallRow, f64)> {
    if q.user == test_hooks::PANIC_ON_USER.load(std::sync::atomic::Ordering::Relaxed) {
        panic!("test hook: injected refinement fault for user {}", q.user);
    }
    if gpssn_failpoint::failpoint!("refine::verify_center") {
        panic!("injected fault: refine::verify_center (center {center})");
    }
    let ball = center_ball(ssn, q, center, ctx);
    let cq = query_user_cost(ssn, ctx, q.user, &ball)?;
    Some((ball, cq))
}

/// Verifies candidate center `center`. `best_so_far` allows early exits:
/// a center whose query-user cost already reaches it cannot improve the
/// global answer. Dijkstra settles and admission checks are charged to
/// `ctx.budget`; once it trips the verification stops early, reporting
/// the best group it had fully verified by then (see
/// [`CenterVerification::answer`]).
///
/// **Settled on `u_q`.** The center's ball and `c(u_q)` come first
/// (`c(u_q)` read from the context's row of the query user's
/// distances). The center is settled — no other user costed, no span
/// opened — when `c(u_q)` reaches `best_so_far`, or else when
/// `Match_Score(u_q, R)` is below `θ` ([`Counter::CentersSettledTheta`]).
/// Either way no group at the center qualifies. Every other center
/// counts as [`Counter::CentersSearched`] and runs under a
/// `verify_center` span. The engine's center loop never reaches the cost
/// test: it verifies a center only once its key, `max(lb, c(u_q))`, is
/// below the incumbent.
///
/// **Reachable users only.** A group is connected, contains `u_q` and
/// has `τ` members, each cheaper than `best_so_far` if the group is to
/// beat it. So one breadth-first pass from `u_q`, to `τ − 1` hops,
/// decides which users the center considers: the first time it reaches
/// a user, the user joins the next layer if `may_join` admits them (the
/// caller's test: a query candidate whose pivot lower bound is below
/// `best_so_far`) and `Match_Score(u, R) >= θ`. Each layer is costed in
/// one batch, and the pass continues only through users cheaper than
/// `best_so_far`. The context's [`CenterSearch`] then runs over the users
/// reached, every mode alike. No probe or draw can touch an unreached
/// user (both grow a set only through enabled neighbours of its
/// members), so the exact search's minimal feasible prefix, its group
/// and the maxdist bits are those of costing every eligible user.
/// Per-center work is proportional to the users reached, never to the
/// population or the candidate count.
///
/// **Determinism.** On a completed (untripped) exact search the returned
/// group is the one found at the minimal feasible cost-prefix `k*` — a
/// pure function of the center, the exact user costs, and the query's
/// social constraints. Any `best_so_far` larger than the center's
/// optimal value yields the same group bit-for-bit. A sampled search is
/// a function of the same inputs and the generator's state.
pub fn verify_center(
    ssn: &SpatialSocialNetwork,
    q: &GpSsnQuery,
    center: PoiId,
    best_so_far: f64,
    may_join: impl Fn(UserId) -> bool,
    ctx: &mut VerifyContext<'_>,
) -> CenterVerification {
    match center_key(ssn, q, center, ctx) {
        // Any group containing u_q costs at least cq.
        Some((ball, cq)) if cq < best_so_far => {
            verify_keyed(ssn, q, &ball, cq, best_so_far, may_join, ctx)
        }
        _ => CenterVerification::default(),
    }
}

/// [`verify_center`] past the cost test, on the ball and `c(u_q)` that
/// [`center_key`] gave (`cq < best_so_far`): the θ test, then the
/// search.
pub(crate) fn verify_keyed(
    ssn: &SpatialSocialNetwork,
    q: &GpSsnQuery,
    ball: &[(PoiId, f64)],
    cq: f64,
    best_so_far: f64,
    may_join: impl Fn(UserId) -> bool,
    ctx: &mut VerifyContext<'_>,
) -> CenterVerification {
    let mut out = CenterVerification::default();
    let budget = ctx.budget;
    if ball.is_empty() {
        return out;
    }
    let r_ids: Vec<PoiId> = ball.iter().map(|&(o, _)| o).collect();
    let union = ssn.pois().keyword_union(&r_ids);
    if match_score_keywords(ssn.social().interest(q.user), &union) < q.theta {
        budget.add(Counter::CentersSettledTheta, 1);
        return out;
    }
    budget.add(Counter::CentersSearched, 1);
    let _vspan = ctx
        .obs
        .filter(|o| o.tracing_on())
        .map(|o| o.tracer().span("verify_center"));
    let positions: Vec<NetworkPoint> = r_ids.iter().map(|&o| ssn.pois().get(o).position).collect();

    let social = ssn.social();
    ctx.marks.begin(social.num_users());
    ctx.marks.reach(q.user);
    // Reached users (exact cost below `best_so_far`), layer by layer.
    let mut costs: Vec<(UserId, f64)> = Vec::new();
    let mut layer = vec![q.user];
    for depth in 0..q.tau {
        let layer_costs = if depth == 0 {
            vec![cq]
        } else {
            // One row per ball POI when |R| <= |layer|, else one per user:
            // both give the same bits.
            let from_poi = positions.len() <= layer.len();
            let Some(c) = user_costs(ssn, ctx, from_poi, &positions, &layer) else {
                return out;
            };
            c
        };
        let reached = costs.len();
        costs.extend(
            layer
                .iter()
                .copied()
                .zip(layer_costs)
                .filter(|&(_, c)| c < best_so_far),
        );
        if depth + 1 == q.tau {
            break;
        }
        layer.clear();
        for &(u, _) in &costs[reached..] {
            for nb in social.graph().neighbors(u) {
                let v = nb.node;
                if ctx.marks.reach(v)
                    && may_join(v)
                    && match_score_keywords(social.interest(v), &union) >= q.theta
                {
                    layer.push(v);
                }
            }
        }
        if layer.is_empty() {
            break;
        }
    }
    // Total order (panic-proof under NaN) with an id tie-break, so the
    // enabled prefix at any length is canonical — independent of the
    // order the search reached users in. Every reached user beats the
    // incumbent; if the query user does not, nobody is reached.
    costs.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    if costs.len() < q.tau {
        return out;
    }
    for (rank, &(u, _)) in costs.iter().enumerate() {
        ctx.marks.by_user[u as usize].1 = rank as u32;
    }

    // Every group a search returns was checked exactly before any cut, so
    // it stays a valid answer: `best_verified` keeps the cheapest, and is
    // what a tripped search reports (the caller folds this center's lower
    // bound into the anytime gap, which keeps the bound sound).
    let ranked = Ranked {
        costs: &costs,
        marks: &ctx.marks,
    };
    let mut best_verified: Option<(Vec<UserId>, f64)> = None;
    let mut record = |g: &[UserId]| {
        out.subsets_examined += 1;
        let md = ranked.maxdist(g);
        if best_verified.as_ref().is_none_or(|&(_, b)| md < b) {
            best_verified = Some((g.to_vec(), md));
        }
    };
    let min_prefix = match &mut ctx.search {
        CenterSearch::Prefix => prefix_search(social, q, &ranked, budget, &mut record),
        CenterSearch::Sample { samples, rng } => {
            crate::sampling::sample_groups(social, q, &ranked, *samples, rng, budget, &mut record);
            None
        }
    };
    let chosen = min_prefix
        .filter(|_| !budget.is_tripped())
        .or(best_verified);
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
    out
}

/// The exact search over one center's ranked users: binary search the
/// smallest feasible enabled prefix (feasibility is monotone in the
/// prefix length). The prefix of length `k` is the users ranked below
/// `k`, so a probe's group consists of ranked users. Every group a probe
/// returns goes to `record`.
///
/// A cut probe only invalidates its *verdict* (it proves nothing, so the
/// search never narrows on it and stops there). Feasible probes occur at
/// strictly decreasing prefixes, and a completed search always probes the
/// minimal feasible prefix `k*` itself, so the group returned — the one
/// found at the smallest prefix — is then optimal: its maxdist is the
/// `k*`-th cost, any cheaper group would fit inside a shorter, infeasible
/// prefix, and the group is a pure function of the center and the costs,
/// independent of `best_so_far` (see the determinism note on
/// [`verify_center`]).
fn prefix_search(
    social: &SocialNetwork,
    q: &GpSsnQuery,
    ranked: &Ranked<'_>,
    budget: &BudgetState,
    record: &mut impl FnMut(&[UserId]),
) -> Option<(Vec<UserId>, f64)> {
    let feasible_at = |k: usize| {
        let enabled = |u| ranked.rank(u).is_some_and(|r| r < k);
        probe_groups(social, q, enabled, budget, |_| true)
    };
    let mut lo = q.tau; // smallest prefix that could host a group
    let mut hi = ranked.costs.len();
    let mut min_prefix_group = match feasible_at(hi) {
        Probe::Found(g) => g,
        _ => return None, // infeasible (or cut before any find)
    };
    record(&min_prefix_group);
    while lo < hi && !budget.is_tripped() {
        let mid = (lo + hi) / 2;
        match feasible_at(mid) {
            Probe::Found(g) => {
                record(&g);
                min_prefix_group = g;
                hi = mid;
            }
            Probe::Infeasible => lo = mid + 1,
            Probe::Cut => break, // verdict truncated: proves nothing
        }
    }
    let md = ranked.maxdist(&min_prefix_group);
    Some((min_prefix_group, md))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gpssn_road::{Poi, PoiSet, RoadNetwork};
    use gpssn_social::{InterestVector, SocialNetwork};
    use gpssn_spatial::Point;

    /// A context on Dijkstra with no cache, breaker or telemetry.
    pub(crate) fn bare_ctx<'a>(
        ws: &'a mut DijkstraWorkspace,
        budget: &'a BudgetState,
        search: CenterSearch,
    ) -> VerifyContext<'a> {
        VerifyContext {
            ws,
            ch: None,
            cache: None,
            breaker: None,
            budget,
            obs: None,
            marks: UserMarks::default(),
            uq_row: UserRow::default(),
            search,
        }
    }

    /// Drives the exact [`verify_center`] with a fresh workspace, no
    /// cache, and an unlimited budget.
    fn verify(
        ssn: &SpatialSocialNetwork,
        q: &GpSsnQuery,
        candidates: &[UserId],
        center: PoiId,
        best: f64,
    ) -> CenterVerification {
        let mut ws = DijkstraWorkspace::new();
        let budget = BudgetState::unlimited();
        let mut ctx = bare_ctx(&mut ws, &budget, CenterSearch::Prefix);
        verify_center(ssn, q, center, best, |u| candidates.contains(&u), &mut ctx)
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

    /// Road line x = 0, 2, …, 20 with POIs at x = 1, 3; social edges
    /// 0–1, 1–2, 0–3, 3–4. Costs over the ball {x=1, x=3}: user 0 (x=0)
    /// 3, user 1 (x=20) 19, user 2 (x=2) 1, user 3 (x=4) 3, user 4
    /// (x=2) 1. User 2 is cheap but reachable only through the costly
    /// user 1; user 4 is cheap but two hops from user 0, through user 3,
    /// whose Match_Score over the ball's keywords is 0.9 (1.8 for the
    /// others).
    fn reach_fixture() -> SpatialSocialNetwork {
        let locs: Vec<Point> = (0..11).map(|i| Point::new(2.0 * i as f64, 0.0)).collect();
        let edges: Vec<(u32, u32)> = (0..10).map(|i| (i, i + 1)).collect();
        let road = RoadNetwork::from_euclidean_edges(locs, &edges);
        let pois = PoiSet::new(
            &road,
            vec![
                Poi::new(NetworkPoint::new(&road, 0, 1.0), vec![0]),
                Poi::new(NetworkPoint::new(&road, 1, 1.0), vec![1]),
            ],
        );
        let mut interests = vec![InterestVector::new(vec![0.9, 0.9]); 5];
        interests[3] = InterestVector::new(vec![0.9, 0.0]);
        let social = SocialNetwork::new(interests, &[(0, 1), (1, 2), (0, 3), (3, 4)]);
        let homes = [(0, 0.0), (9, 2.0), (1, 0.0), (2, 0.0), (1, 0.0)]
            .map(|(e, off)| NetworkPoint::new(&road, e, off))
            .to_vec();
        SpatialSocialNetwork::new(road, pois, social, homes)
    }

    /// One center's optimum by brute force: every connected τ-group
    /// containing `u_q` whose other members pass `may_join`, costed with
    /// one-shot `dist_RN` runs.
    fn brute_force(
        ssn: &SpatialSocialNetwork,
        q: &GpSsnQuery,
        center: PoiId,
        may_join: impl Fn(UserId) -> bool,
    ) -> Option<f64> {
        let pos = ssn.pois().get(center).position;
        let ball: Vec<PoiId> = ssn
            .pois()
            .network_ball(ssn.road(), &pos, q.radius)
            .iter()
            .map(|&(o, _)| o)
            .collect();
        let union = ssn.pois().keyword_union(&ball);
        let cost = |u: UserId| {
            ball.iter()
                .map(|&o| {
                    gpssn_road::dist_rn(ssn.road(), &ssn.home(u), &ssn.pois().get(o).position)
                })
                .fold(0.0f64, f64::max)
        };
        let mut best: Option<f64> = None;
        let mut all = |_: &[UserId], _: UserId| true;
        enumerate_connected_subsets(ssn.social().graph(), q.user, q.tau, &mut all, &mut |s| {
            let eligible = s.iter().all(|&u| {
                (u == q.user || may_join(u))
                    && match_score_keywords(ssn.social().interest(u), &union) >= q.theta
            });
            if eligible && ssn.social().pairwise_interest_holds(s, q.gamma) {
                let md = s.iter().map(|&u| cost(u)).fold(0.0f64, f64::max);
                best = Some(best.map_or(md, |b| b.min(md)));
            }
            true
        });
        best
    }

    #[test]
    fn costs_only_users_a_group_can_reach() {
        let ssn = reach_fixture();
        // Ball {x=1, x=3} around POI 0. Rows: (τ, θ, the user an injected
        // pivot bound rejects, the incumbent, users costed).
        for (tau, theta, rejected, incumbent, costed) in [
            (2, 0.5, None, 10.0, vec![0, 1, 3]),
            (3, 0.5, None, 10.0, vec![0, 1, 3, 4]),
            // User 3 is cheap and adjacent to u_q, but its pivot bound
            // reaches the incumbent: it is never costed, and user 4
            // behind it is never reached.
            (3, 0.5, Some(3), 10.0, vec![0, 1]),
            // User 3 fails θ, which blocks the only path to user 4.
            (3, 1.0, None, 10.0, vec![0, 1]),
            // Above c(1) = 19 the costly user 1 may join, while the
            // rejected user 3 stays out of every group: the cheap {0, 3}
            // is never found, nor drawn.
            (2, 0.5, Some(3), 20.0, vec![0, 1]),
        ] {
            let q = GpSsnQuery {
                user: 0,
                tau,
                gamma: 0.5,
                theta,
                radius: 2.1,
            };
            let may_join = |u| Some(u) != rejected;
            let row = format!("τ={tau} θ={theta} rejected {rejected:?} < {incumbent}");
            let optimum = brute_force(&ssn, &q, 0, may_join).filter(|&md| md < incumbent);
            // The exact search, then one draw per seed: every group drawn
            // that passes γ is the sampled search's answer.
            let searches = (0..16).map(|seed| CenterSearch::sample(1, seed));
            for search in std::iter::once(CenterSearch::Prefix).chain(searches) {
                let exact = matches!(search, CenterSearch::Prefix);
                let cache = DistanceCache::new(&crate::DistanceCacheConfig::default());
                let mut ws = DijkstraWorkspace::new();
                let budget = BudgetState::unlimited();
                let mut ctx = VerifyContext {
                    cache: Some(&cache),
                    ..bare_ctx(&mut ws, &budget, search)
                };
                let v = verify_center(&ssn, &q, 0, incumbent, may_join, &mut ctx);
                match (exact, v.answer) {
                    (true, answer) => assert_eq!(answer.map(|a| a.maxdist), optimum, "{row}"),
                    (false, Some(a)) => {
                        assert!(a.users.iter().all(|u| costed.contains(u)), "{row}: {a:?}");
                        assert!(optimum.is_some_and(|o| a.maxdist >= o), "{row}: {a:?}");
                    }
                    (false, None) => {}
                }
                // Dijkstra runs one sweep per source, and no layer here
                // has more users than |R| = 2: one sweep per costed user,
                // u_q's own row included. Both searches cost only what
                // the reach stage costed.
                let c = budget.snapshot();
                assert_eq!(c[Counter::DijkstraBatches], costed.len() as u64, "{row}");
            }
        }
    }

    #[test]
    fn centers_settle_on_the_query_users_row_computed_once() {
        let ssn = reach_fixture();
        // Both centers' balls are {x=1, x=3}, where u_q costs 3.
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.5,
            theta: 0.5,
            radius: 2.1,
        };
        let mut ws = DijkstraWorkspace::new();
        let budget = BudgetState::unlimited();
        let mut ctx = bare_ctx(&mut ws, &budget, CenterSearch::Prefix);
        for center in [0, 1] {
            let v = verify_center(&ssn, &q, center, 3.0, |_| true, &mut ctx);
            assert!(v.answer.is_none());
        }
        // One sweep from u_q's home served both centers, and neither
        // got past the cost test or costed another user.
        let c = budget.snapshot();
        assert_eq!(c[Counter::DijkstraBatches], 1);
        assert_eq!(
            c[Counter::CentersSettledTheta] + c[Counter::CentersSearched],
            0
        );
        // Below the incumbent, θ settles the center, still on u_q's row.
        let strict = GpSsnQuery { theta: 2.0, ..q };
        let v = verify_center(&ssn, &strict, 0, 10.0, |_| true, &mut ctx);
        assert!(v.answer.is_none());
        let c = budget.snapshot();
        assert_eq!(c[Counter::DijkstraBatches], 1);
        assert_eq!(c[Counter::CentersSettledTheta], 1);
        assert_eq!(c[Counter::CentersSearched], 0);
        // A searched center reuses the row too: only its layer {1, 3}
        // costs sweeps, one from each of the 2 ball POIs.
        let v = verify_center(&ssn, &q, 0, 10.0, |_| true, &mut ctx);
        assert_eq!(v.answer.map(|a| a.maxdist), Some(3.0));
        let c = budget.snapshot();
        assert_eq!(c[Counter::CentersSearched], 1);
        assert_eq!(c[Counter::DijkstraBatches], 3);
    }

    #[test]
    fn admission_prunes_pairwise_incompatible_friends() {
        // u_q (user 0) and 12 friends on one road point. Each friend
        // shares one interest dimension with u_q and none with another
        // friend, so no 4-group has pairwise interest >= γ.
        const FRIENDS: usize = 12;
        let road = RoadNetwork::from_euclidean_edges(
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
            &[(0, 1)],
        );
        let pois = PoiSet::new(
            &road,
            vec![Poi::new(NetworkPoint::new(&road, 0, 0.5), vec![0])],
        );
        let mut interests = vec![InterestVector::new(vec![1.0; FRIENDS])];
        interests.extend((0..FRIENDS).map(|i| {
            let mut w = vec![0.0; FRIENDS];
            w[i] = 1.0;
            InterestVector::new(w)
        }));
        let edges: Vec<(u32, u32)> = (1..=FRIENDS as u32).map(|f| (0, f)).collect();
        let social = SocialNetwork::new(interests, &edges);
        let homes = vec![NetworkPoint::new(&road, 0, 0.0); FRIENDS + 1];
        let ssn = SpatialSocialNetwork::new(road, pois, social, homes);
        let q = GpSsnQuery {
            user: 0,
            tau: 4,
            gamma: 0.5,
            theta: 0.0,
            radius: 1.0,
        };
        let mut ws = DijkstraWorkspace::new();
        let budget = BudgetState::unlimited();
        let mut ctx = bare_ctx(&mut ws, &budget, CenterSearch::Prefix);
        let v = verify_center(&ssn, &q, 0, f64::INFINITY, |_| true, &mut ctx);
        assert!(v.answer.is_none());
        assert_eq!(v.subsets_examined, 0);
        // The root, each friend, and each later friend offered to a
        // {u_q, friend} pair: 1 + 12 + C(12, 2) = 79 admission checks,
        // where testing only complete groups walks C(12, 3) = 220.
        let groups = budget.snapshot()[Counter::GroupsEnumerated];
        assert!(groups <= 79, "{groups} admission checks");
    }

    #[test]
    fn disabled_neighbours_cost_no_admission_check() {
        let ssn = fixture();
        // User 1's friends 0 and 2 are both disabled.
        let q = GpSsnQuery {
            user: 1,
            tau: 2,
            gamma: 0.0,
            theta: 0.0,
            radius: 2.1,
        };
        let budget = BudgetState::unlimited();
        let probe = probe_groups(ssn.social(), &q, |u| u == 1, &budget, |_| true);
        assert!(matches!(probe, Probe::Infeasible));
        // The root's own admission is the only check charged.
        assert_eq!(budget.snapshot()[Counter::GroupsEnumerated], 1);
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
