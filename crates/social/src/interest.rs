//! Interest keyword vectors and the common-interest score (Eq. 1).
//!
//! Each user `u_j` carries a vector `u_j.w = (w_1.p, …, w_d.p)` of topic
//! probabilities in `[0,1]`. The common-interest score between two users
//! is their dot product, which the paper rewrites as
//! `‖u_j.w‖·‖u_k.w‖·cos θ` (Eq. 4) — the cosine-similarity form behind
//! the geometric user-pruning region of Section 3.2.

/// A user's interest (topic) vector; weights lie in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct InterestVector {
    weights: Vec<f64>,
}

impl InterestVector {
    /// Creates an interest vector.
    ///
    /// # Panics
    /// Panics if any weight is outside `[0, 1]` or non-finite.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights
                .iter()
                .all(|w| w.is_finite() && (0.0..=1.0).contains(w)),
            "interest weights must lie in [0, 1]"
        );
        InterestVector { weights }
    }

    /// Dimensionality `d` (number of topics).
    #[inline]
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Weight of topic `f`.
    #[inline]
    pub fn weight(&self, f: usize) -> f64 {
        self.weights[f]
    }

    /// All weights.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Euclidean norm `‖w‖`.
    pub fn norm(&self) -> f64 {
        self.weights.iter().map(|w| w * w).sum::<f64>().sqrt()
    }

    /// Dot product with another vector of the same dimension.
    pub fn dot(&self, other: &InterestVector) -> f64 {
        debug_assert_eq!(self.dim(), other.dim(), "interest dimension mismatch");
        self.weights
            .iter()
            .zip(other.weights.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Returns a copy scaled to unit Euclidean norm. The zero vector is
    /// returned unchanged. Unit-norm vectors make `Interest_Score` a pure
    /// cosine in `[0, 1]`, matching the paper's `γ ∈ [0, 1]` convention.
    pub fn normalized(&self) -> InterestVector {
        let n = self.norm();
        if n == 0.0 {
            return self.clone();
        }
        InterestVector {
            weights: self.weights.iter().map(|w| w / n).collect(),
        }
    }

    /// Returns a copy scaled so weights sum to 1 (a topic distribution).
    /// The zero vector is returned unchanged.
    pub fn as_distribution(&self) -> InterestVector {
        let s: f64 = self.weights.iter().sum();
        if s == 0.0 {
            return self.clone();
        }
        InterestVector {
            weights: self.weights.iter().map(|w| w / s).collect(),
        }
    }
}

/// `Interest_Score(u_j, u_k)` — Eq. (1): the dot product of the two
/// interest vectors.
#[inline]
pub fn interest_score(a: &InterestVector, b: &InterestVector) -> f64 {
    a.dot(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_product_matches_paper_example() {
        // Table 1: u_1 = (0.7, 0.3, 0.7), u_4 = (0.9, 0.7, 0.7).
        let u1 = InterestVector::new(vec![0.7, 0.3, 0.7]);
        let u4 = InterestVector::new(vec![0.9, 0.7, 0.7]);
        let s = interest_score(&u1, &u4);
        assert!((s - (0.63 + 0.21 + 0.49)).abs() < 1e-12);
    }

    #[test]
    fn score_is_symmetric() {
        let a = InterestVector::new(vec![0.2, 0.9, 0.3]);
        let b = InterestVector::new(vec![0.4, 0.8, 0.8]);
        assert_eq!(interest_score(&a, &b), interest_score(&b, &a));
    }

    #[test]
    fn normalized_has_unit_norm() {
        let a = InterestVector::new(vec![0.3, 0.4]);
        let n = a.normalized();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        assert!((n.weight(0) - 0.6).abs() < 1e-12);
        assert!((n.weight(1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_survives_normalization() {
        let z = InterestVector::new(vec![0.0; 3]);
        assert_eq!(z.normalized(), z);
        assert_eq!(z.as_distribution(), z);
        assert_eq!(z.norm(), 0.0);
    }

    #[test]
    fn distribution_sums_to_one() {
        let a = InterestVector::new(vec![0.5, 0.25, 0.25]);
        let d = a.as_distribution();
        let s: f64 = d.weights().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn rejects_out_of_range_weights() {
        InterestVector::new(vec![0.5, 1.2]);
    }

    proptest! {
        /// Cosine form (Eq. 4) equals the dot product: score =
        /// ‖a‖·‖b‖·cosθ where cosθ is the normalized dot.
        #[test]
        fn cosine_form_equals_dot(a in proptest::collection::vec(0.0f64..1.0, 1..8)) {
            let b: Vec<f64> = a.iter().map(|x| (x * 0.7 + 0.1).min(1.0)).collect();
            let va = InterestVector::new(a);
            let vb = InterestVector::new(b);
            let dot = interest_score(&va, &vb);
            let na = va.norm();
            let nb = vb.norm();
            if na > 0.0 && nb > 0.0 {
                let cos = va.normalized().dot(&vb.normalized());
                prop_assert!((dot - na * nb * cos).abs() < 1e-9);
                prop_assert!(cos <= 1.0 + 1e-9, "Cauchy-Schwarz");
            }
        }

        /// Unit-norm scores stay within [0, 1] (nonnegative weights).
        #[test]
        fn normalized_scores_in_unit_interval(
            a in proptest::collection::vec(0.0f64..1.0, 2..6),
            b in proptest::collection::vec(0.0f64..1.0, 2..6),
        ) {
            let d = a.len().min(b.len());
            let va = InterestVector::new(a[..d].to_vec()).normalized();
            let vb = InterestVector::new(b[..d].to_vec()).normalized();
            let s = interest_score(&va, &vb);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&s));
        }
    }
}
