//! Order statistics and the answer digest.

/// Samples that must lie beyond a reported percentile: a run reports
/// the highest percentile its sample supports only when at least this
/// many samples are larger.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q < 1`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Requests in a latency window: the fewest whose p95 has
/// [`MIN_BEYOND`] samples beyond it.
pub const WINDOW: usize = 20 * MIN_BEYOND;

/// Cuts `n` consecutive requests into windows of [`WINDOW`] requests,
/// starting at request 0. The last window also takes the remainder, so
/// a run shorter than two windows is one window.
pub fn windows(n: usize) -> Vec<std::ops::Range<usize>> {
    let k = (n / WINDOW).max(1);
    (0..k)
        .map(|i| i * WINDOW..if i + 1 == k { n } else { (i + 1) * WINDOW })
        .collect()
}

/// Sorts `values` ascending (total order) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// FNV-1a over a stream of words: a stable digest of a run's answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add_str(&mut self, s: &str) {
        self.add(s.len() as u64);
        for b in s.bytes() {
            self.add(u64::from(b));
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // Rank 190 of 200 leaves exactly ten larger samples.
        assert_eq!(percentile(&xs, 0.95), Some(190.0));
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), None);
        // The median needs only twenty samples.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn windows_tile_the_run() {
        for n in [0, 150, 399, 400, 850, 8_001, 150_001] {
            let w = windows(n);
            assert_eq!(w.first().unwrap().start, 0);
            assert_eq!(w.last().unwrap().end, n);
            assert!(w.windows(2).all(|p| p[0].end == p[1].start));
            if w.len() > 1 {
                let (last, full) = w.split_last().unwrap();
                assert!(full.iter().all(|r| r.len() == WINDOW), "{n}: {w:?}");
                assert!((WINDOW..2 * WINDOW).contains(&last.len()), "{n}: {w:?}");
            }
        }
        assert_eq!(windows(399).len(), 1);
        assert_eq!(windows(850).len(), 4);
        assert_eq!(windows(850)[3], 600..850);
        assert_eq!(windows(150_001).len(), 750);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let d = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|&w| d.add(w));
            d.value()
        };
        assert_eq!(d(&[1, 2]), d(&[1, 2]));
        assert_ne!(d(&[1, 2]), d(&[2, 1]));
    }
}
