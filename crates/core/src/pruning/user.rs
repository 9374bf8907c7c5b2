//! User pruning (paper Section 3.2 and Lemma 8).
//!
//! The interest-score pruning region `PR(u_q)`: with `a = u_q.w`,
//! `n = ‖a‖²`, pick `A` on the ray `O→a` at distance `γ/‖a‖`, let
//! `B = a` and `B' = a · (2γ − n)/n` (so `A` is the midpoint of `B` and
//! `B'`), and classify:
//!
//! * **Case 1** (`γ ≤ n`): prune `x` when `dist(x, B') < dist(x, B)`;
//! * **Case 2** (`γ > n`): prune `x` when `dist(x, B') > dist(x, B)`.
//!
//! Algebra (see the `region_equals_dot_product_test` property test):
//! `dist²(x,B) − dist²(x,B') = 4(n−γ)/n · (γ − a·x)`, so both cases are
//! exactly the halfspace test `a·x < γ` — i.e. Lemma 3's
//! `Interest_Score(u_q, x) < γ`.
//!
//! At the index level (Lemma 8), a node `e_S` with interest MBR
//! `[lb_w, ub_w]` is pruned when the whole MBR lies in the region,
//! checked with the paper's `maxdist`/`mindist` comparison against `B`
//! and `B'` (a sufficient condition; `prunes_mbr_tight` offers the exact
//! corner test used in ablations).

use gpssn_social::{InterestVector, UserId};

/// The pruning region `PR(a)` for an anchor interest vector `a` and
/// threshold `γ`.
#[derive(Debug, Clone)]
pub struct PruningRegion {
    /// `B = a`.
    b: Vec<f64>,
    /// `B' = a · (2γ − ‖a‖²)/‖a‖²`.
    b_prime: Vec<f64>,
    /// Case 1 (`γ ≤ ‖a‖²`) versus Case 2.
    case1: bool,
    /// Anchor weights (for the tight MBR test).
    anchor: Vec<f64>,
    /// Threshold `γ`.
    gamma: f64,
    /// Anchor is the zero vector: every score is 0, so everything is
    /// pruned iff `γ > 0`.
    zero_anchor: bool,
}

impl PruningRegion {
    /// Builds `PR(anchor)` for threshold `gamma`.
    pub fn new(anchor: &InterestVector, gamma: f64) -> Self {
        let a: Vec<f64> = anchor.weights().to_vec();
        let n: f64 = a.iter().map(|x| x * x).sum();
        if n == 0.0 {
            return PruningRegion {
                b: a.clone(),
                b_prime: a.clone(),
                case1: true,
                anchor: a,
                gamma,
                zero_anchor: true,
            };
        }
        let scale = (2.0 * gamma - n) / n;
        let b_prime: Vec<f64> = a.iter().map(|x| x * scale).collect();
        PruningRegion {
            b: a.clone(),
            b_prime,
            case1: gamma <= n,
            anchor: a,
            gamma,
            zero_anchor: false,
        }
    }

    /// Whether interest vector `x` falls in the pruning region
    /// (Corollary 1: such users are safely pruned).
    pub fn prunes_point(&self, x: &InterestVector) -> bool {
        if self.zero_anchor {
            return self.gamma > 0.0;
        }
        let d_b = dist_sq(x.weights(), &self.b);
        let d_bp = dist_sq(x.weights(), &self.b_prime);
        if self.case1 {
            d_bp < d_b
        } else {
            d_bp > d_b
        }
    }

    /// Index-level test (Lemma 8) with the paper's `maxdist`/`mindist`
    /// comparison: prunes node `e_S` when its whole interest MBR
    /// `[lb_w, ub_w]` provably lies inside the region. Sufficient but not
    /// necessary (see [`PruningRegion::prunes_mbr_tight`]).
    pub fn prunes_mbr(&self, lb_w: &[f64], ub_w: &[f64]) -> bool {
        if self.zero_anchor {
            return self.gamma > 0.0;
        }
        let max_bp = max_dist_sq_box(lb_w, ub_w, &self.b_prime);
        let min_b = min_dist_sq_box(lb_w, ub_w, &self.b);
        let max_b = max_dist_sq_box(lb_w, ub_w, &self.b);
        let min_bp = min_dist_sq_box(lb_w, ub_w, &self.b_prime);
        if self.case1 {
            max_bp < min_b
        } else {
            max_b < min_bp
        }
    }

    /// Exact index-level test: the MBR lies in the halfspace `a·x < γ`
    /// iff the corner maximizing `a·x` does (anchor weights are
    /// non-negative, so that corner is `ub_w`).
    pub fn prunes_mbr_tight(&self, ub_w: &[f64]) -> bool {
        if self.zero_anchor {
            return self.gamma > 0.0;
        }
        let best: f64 = self
            .anchor
            .iter()
            .zip(ub_w.iter())
            .map(|(a, u)| a * u)
            .sum();
        best < self.gamma
    }

    /// The threshold the region was built for.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn min_dist_sq_box(lb: &[f64], ub: &[f64], p: &[f64]) -> f64 {
    lb.iter()
        .zip(ub.iter())
        .zip(p.iter())
        .map(|((&l, &u), &x)| {
            let d = (l - x).max(0.0).max(x - u);
            d * d
        })
        .sum()
}

fn max_dist_sq_box(lb: &[f64], ub: &[f64], p: &[f64]) -> f64 {
    lb.iter()
        .zip(ub.iter())
        .zip(p.iter())
        .map(|((&l, &u), &x)| {
            let d = (x - l).abs().max((x - u).abs());
            d * d
        })
        .sum()
}

/// Corollary 2: iteratively removes candidates that are interest-
/// compatible (`score >= gamma`) with fewer than `tau - 1` other
/// candidates — such users can never complete a pairwise-compatible group
/// of size `tau`. The query user is never removed (callers re-check it).
///
/// A user's partner count is only compared with `tau - 1`, so it stops
/// there: every round keeps the same survivors as a full count, in
/// `O(c · τ)` score calls per round when most candidates are compatible
/// instead of `O(c²)`.
///
/// Returns the surviving candidates (order preserved).
pub fn corollary2_filter(
    candidates: &[UserId],
    keep_always: UserId,
    tau: usize,
    gamma: f64,
    score: impl Fn(UserId, UserId) -> f64,
) -> Vec<UserId> {
    if tau <= 1 {
        return candidates.to_vec();
    }
    let mut alive: Vec<UserId> = candidates.to_vec();
    loop {
        let before = alive.len();
        let counts: Vec<usize> = alive
            .iter()
            .map(|&u| {
                alive
                    .iter()
                    .filter(|&&v| v != u && score(u, v) >= gamma)
                    .take(tau - 1)
                    .count()
            })
            .collect();
        let survivors: Vec<UserId> = alive
            .iter()
            .zip(counts.iter())
            .filter(|&(&u, &c)| u == keep_always || c >= tau - 1)
            .map(|(&u, _)| u)
            .collect();
        alive = survivors;
        if alive.len() == before {
            return alive;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(w: &[f64]) -> InterestVector {
        InterestVector::new(w.to_vec())
    }

    #[test]
    fn prunes_low_score_points() {
        let region = PruningRegion::new(&iv(&[1.0, 0.0]), 0.5);
        assert!(region.prunes_point(&iv(&[0.2, 0.9]))); // score 0.2 < 0.5
        assert!(!region.prunes_point(&iv(&[0.8, 0.1]))); // score 0.8
    }

    #[test]
    fn case2_when_gamma_exceeds_norm_squared() {
        // ‖a‖² = 0.25, γ = 0.5 → Case 2.
        let region = PruningRegion::new(&iv(&[0.5, 0.0]), 0.5);
        assert!(region.prunes_point(&iv(&[0.5, 0.5]))); // score 0.25 < 0.5
        assert!(!region.prunes_point(&iv(&[1.0, 0.0]))); // score 0.5 = γ
    }

    #[test]
    fn zero_anchor_prunes_everything_for_positive_gamma() {
        let region = PruningRegion::new(&iv(&[0.0, 0.0]), 0.1);
        assert!(region.prunes_point(&iv(&[1.0, 1.0])));
        assert!(region.prunes_mbr(&[0.0, 0.0], &[1.0, 1.0]));
        let region0 = PruningRegion::new(&iv(&[0.0, 0.0]), 0.0);
        assert!(!region0.prunes_point(&iv(&[1.0, 1.0])));
    }

    #[test]
    fn mbr_tests_agree_on_clear_cases() {
        let region = PruningRegion::new(&iv(&[1.0, 0.0]), 0.5);
        // MBR entirely at low first coordinate: all scores <= 0.2 < 0.5.
        assert!(region.prunes_mbr_tight(&[0.2, 1.0]));
        // MBR containing a qualifying point must never be pruned.
        assert!(!region.prunes_mbr_tight(&[1.0, 1.0]));
        assert!(!region.prunes_mbr(&[0.6, 0.0], &[1.0, 1.0]));
    }

    #[test]
    fn corollary2_removes_isolated_users() {
        // Users 0,1,2 mutually compatible; user 3 compatible with none.
        let score = |a: UserId, b: UserId| if a < 3 && b < 3 { 1.0 } else { 0.0 };
        let out = corollary2_filter(&[0, 1, 2, 3], 0, 3, 0.5, score);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn corollary2_cascades() {
        // Chain compatibility 0-1, 1-2, 2-3: for tau=3 each user needs 2
        // compatible partners; only 1 and 2 have 2, but after removing 0
        // and 3, users 1 and 2 drop to 1 partner each -> only u_q stays.
        let pairs = [(0, 1), (1, 2), (2, 3)];
        let score = move |a: UserId, b: UserId| {
            let k = if a < b { (a, b) } else { (b, a) };
            if pairs.contains(&k) {
                1.0
            } else {
                0.0
            }
        };
        let out = corollary2_filter(&[0, 1, 2, 3], 1, 3, 0.5, score);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn corollary2_stops_counting_partners_at_tau_minus_one() {
        // 100 mutually compatible users at τ = 3: one round keeps
        // everyone, and each user needs only its first 2 partners (a
        // full count would score every ordered pair, 100 · 99 calls).
        let calls = std::cell::Cell::new(0usize);
        let users: Vec<UserId> = (0..100).collect();
        let out = corollary2_filter(&users, 0, 3, 0.5, |_, _| {
            calls.set(calls.get() + 1);
            1.0
        });
        assert_eq!(out, users);
        assert_eq!(calls.get(), 100 * 2);
    }

    #[test]
    fn corollary2_tau_one_keeps_everyone() {
        let out = corollary2_filter(&[5, 6], 5, 1, 0.9, |_, _| 0.0);
        assert_eq!(out, vec![5, 6]);
    }

    proptest! {
        /// The geometric construction is exactly the dot-product test
        /// `a·x < γ` (the algebraic identity in the module docs).
        #[test]
        fn region_equals_dot_product_test(
            a in proptest::collection::vec(0.0f64..1.0, 1..6),
            x in proptest::collection::vec(0.0f64..1.0, 1..6),
            gamma in 0.01f64..2.0,
        ) {
            let d = a.len().min(x.len());
            let va = iv(&a[..d]);
            let vx = iv(&x[..d]);
            let n: f64 = va.weights().iter().map(|w| w * w).sum();
            prop_assume!(n > 1e-9 && (gamma - n).abs() > 1e-9);
            let region = PruningRegion::new(&va, gamma);
            let dot: f64 = va.dot(&vx);
            prop_assume!((dot - gamma).abs() > 1e-9); // away from the boundary
            prop_assert_eq!(region.prunes_point(&vx), dot < gamma);
        }

        /// The MBR tests never prune a box containing a qualifying point
        /// (safety of Lemma 8).
        #[test]
        fn mbr_tests_are_safe(
            a in proptest::collection::vec(0.0f64..1.0, 2..5),
            lo in proptest::collection::vec(0.0f64..0.5, 2..5),
            span in proptest::collection::vec(0.0f64..0.5, 2..5),
            t in proptest::collection::vec(0.0f64..1.0, 2..5),
            gamma in 0.01f64..1.5,
        ) {
            let d = a.len().min(lo.len()).min(span.len()).min(t.len());
            let va = iv(&a[..d]);
            let lb: Vec<f64> = lo[..d].to_vec();
            let ub: Vec<f64> = lb.iter().zip(span[..d].iter()).map(|(l, s)| (l + s).min(1.0)).collect();
            // A point inside the box.
            let x: Vec<f64> = lb.iter().zip(ub.iter()).zip(t[..d].iter())
                .map(|((l, u), tt)| l + tt * (u - l)).collect();
            let vx = iv(&x);
            let region = PruningRegion::new(&va, gamma);
            if va.dot(&vx) >= gamma {
                prop_assert!(!region.prunes_mbr(&lb, &ub), "geometric MBR test pruned a qualifying point");
                prop_assert!(!region.prunes_mbr_tight(&ub), "tight MBR test pruned a qualifying point");
            }
        }

        /// The geometric MBR test implies the tight one (it is a
        /// sufficient condition for full containment).
        #[test]
        fn geometric_implies_tight(
            a in proptest::collection::vec(0.01f64..1.0, 2..5),
            lo in proptest::collection::vec(0.0f64..0.5, 2..5),
            span in proptest::collection::vec(0.0f64..0.5, 2..5),
            gamma in 0.01f64..1.5,
        ) {
            let d = a.len().min(lo.len()).min(span.len());
            let va = iv(&a[..d]);
            let lb: Vec<f64> = lo[..d].to_vec();
            let ub: Vec<f64> = lb.iter().zip(span[..d].iter()).map(|(l, s)| (l + s).min(1.0)).collect();
            let region = PruningRegion::new(&va, gamma);
            if region.prunes_mbr(&lb, &ub) {
                prop_assert!(region.prunes_mbr_tight(&ub));
            }
        }
    }
}
