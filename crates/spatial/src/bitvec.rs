//! Hashed keyword signatures.
//!
//! The paper (Section 4.1) hashes each keyword of `sup_K` / `sub_K` into a
//! position of a bit vector (`o_i.V_sup`, `o_i.V_sub`) to save space, and
//! bit-ORs vectors up the road-network index. A signature answers
//! "possibly contains keyword `k`" with one-sided error: a clear bit
//! guarantees absence (safe for the *upper-bound* matching-score pruning),
//! while a set bit may be a hash collision (safe because it only weakens
//! pruning, never correctness).

/// Number of 64-bit words in a signature. 128 bits keeps collision rates
/// negligible for the keyword vocabularies in the paper's workloads while
/// staying two cache words wide.
const WORDS: usize = 2;

/// Bits per signature.
pub const SIGNATURE_BITS: usize = WORDS * 64;

/// A fixed-width hashed keyword set signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeywordSignature {
    bits: [u64; WORDS],
}

/// Bit position of keyword `k`. Keywords below the signature width map to
/// their own bit (exact, collision-free signatures for the small topic
/// vocabularies GP-SSN uses); larger ids fall back to a SplitMix64 hash.
#[inline]
fn keyword_bit(k: u32) -> usize {
    if (k as usize) < SIGNATURE_BITS {
        return k as usize;
    }
    let mut z = (k as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % SIGNATURE_BITS as u64) as usize
}

impl KeywordSignature {
    /// The empty signature (no keywords).
    pub const fn empty() -> Self {
        KeywordSignature { bits: [0; WORDS] }
    }

    /// Signature of a keyword set.
    pub fn from_keywords(ks: impl IntoIterator<Item = u32>) -> Self {
        let mut s = Self::empty();
        for k in ks {
            s.insert(k);
        }
        s
    }

    /// Adds a keyword.
    #[inline]
    pub fn insert(&mut self, k: u32) {
        let bit = keyword_bit(k);
        self.bits[bit / 64] |= 1u64 << (bit % 64);
    }

    /// Whether the signature *possibly* contains `k` (false positives
    /// possible, false negatives impossible).
    #[inline]
    pub fn possibly_contains(&self, k: u32) -> bool {
        let bit = keyword_bit(k);
        self.bits[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// Bit-OR union (aggregation up the index).
    #[inline]
    pub fn union(&self, other: &KeywordSignature) -> KeywordSignature {
        let mut out = *self;
        out.union_in_place(other);
        out
    }

    /// In-place bit-OR union.
    #[inline]
    pub fn union_in_place(&mut self, other: &KeywordSignature) {
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= *b;
        }
    }

    /// Whether every set bit of `self` is set in `other` (signature-level
    /// subset test).
    pub fn is_subset_of(&self, other: &KeywordSignature) -> bool {
        self.bits
            .iter()
            .zip(other.bits.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Whether no keyword was inserted (all bits clear).
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_contains_nothing() {
        let s = KeywordSignature::empty();
        assert!(s.is_empty());
        for k in 0..100 {
            assert!(!s.possibly_contains(k));
        }
    }

    #[test]
    fn inserted_keywords_are_found() {
        let s = KeywordSignature::from_keywords([1, 5, 42]);
        assert!(s.possibly_contains(1));
        assert!(s.possibly_contains(5));
        assert!(s.possibly_contains(42));
    }

    #[test]
    fn union_contains_both_sides() {
        let a = KeywordSignature::from_keywords([1, 2]);
        let b = KeywordSignature::from_keywords([3, 4]);
        let u = a.union(&b);
        for k in 1..=4 {
            assert!(u.possibly_contains(k));
        }
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
    }

    #[test]
    fn subset_relation() {
        let a = KeywordSignature::from_keywords([1, 2]);
        let b = KeywordSignature::from_keywords([1, 2, 3]);
        assert!(a.is_subset_of(&b));
        // b ⊄ a unless keyword 3 collides with 1 or 2 (it does not for
        // this width; this pins the hash behaviour).
        assert!(!b.is_subset_of(&a));
    }

    #[test]
    fn small_vocabulary_is_collision_free() {
        // Keywords below the signature width get dedicated bits, so the
        // small topic vocabularies GP-SSN uses are exactly represented.
        let mut seen = std::collections::HashSet::new();
        for k in 0..SIGNATURE_BITS as u32 {
            seen.insert(super::keyword_bit(k));
        }
        assert_eq!(seen.len(), SIGNATURE_BITS);
        // Signatures over a small vocabulary are exact: no false positives.
        let s = KeywordSignature::from_keywords([1, 2, 3]);
        assert!(!s.possibly_contains(0));
        assert!(!s.possibly_contains(4));
    }

    proptest! {
        /// No false negatives, ever.
        #[test]
        fn no_false_negatives(ks in proptest::collection::vec(0u32..10_000, 0..64)) {
            let s = KeywordSignature::from_keywords(ks.iter().copied());
            for &k in &ks {
                prop_assert!(s.possibly_contains(k));
            }
        }

        /// Union is commutative and idempotent.
        #[test]
        fn union_laws(a in proptest::collection::vec(0u32..1000, 0..20),
                      b in proptest::collection::vec(0u32..1000, 0..20)) {
            let sa = KeywordSignature::from_keywords(a.iter().copied());
            let sb = KeywordSignature::from_keywords(b.iter().copied());
            prop_assert_eq!(sa.union(&sb), sb.union(&sa));
            prop_assert_eq!(sa.union(&sa), sa);
        }
    }
}
