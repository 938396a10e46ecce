//! Order statistics, digests and the seeded generator every workload
//! draws its inputs from.

/// Nearest-rank percentile (`p` in 0..=100) of `values`: the smallest
/// sample with at least `p` % of the samples at or below it. `None`
/// for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest-rank p50), or 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// Whether at least ten of `n` samples lie beyond the nearest-rank
/// `p`-th percentile — the rule a reported tail percentile must meet
/// to be more than the maximum in disguise.
pub fn tail_is_resolved(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n >= rank + 10
}

/// Arithmetic mean, or 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// 64-bit FNV-1a, folded incrementally over a workload's deterministic
/// result bytes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes`, then a record separator, so that `["ab", "c"]`
    /// and `["a", "bc"]` digest differently.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(std::iter::once(&0x1e)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Whether `name` is a valid metric name: a letter or digit first,
/// then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// SplitMix64: a small, seedable generator whose stream is fixed by
/// its seed on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams of the
    /// same seed by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!tail_is_resolved(999, 99.0));
        assert!(tail_is_resolved(1000, 99.0));
        assert!(tail_is_resolved(20, 50.0));
        assert!(!tail_is_resolved(19, 50.0));
    }

    #[test]
    fn digest_is_stable_and_separates_records() {
        let mut a = Digest::default();
        a.add(b"ab");
        a.add(b"c");
        let mut b = Digest::default();
        b.add(b"a");
        b.add(b"bc");
        assert_ne!(a.hex(), b.hex());
        // Pinned: a change here silently invalidates recorded digests.
        let mut c = Digest::default();
        c.add(b"corebench");
        assert_eq!(c.hex(), "19f2c19711bbae26");
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
    }

    #[test]
    fn metric_name_charset() {
        assert!(valid_metric_name("latency_p50_ms"));
        assert!(valid_metric_name("serve.transport_ms_p50"));
        assert!(valid_metric_name("9-lives"));
        assert!(!valid_metric_name("_hidden"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/name"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn seeded_order_repeats_and_differs_across_seeds() {
        let order = |seed| {
            let mut v: Vec<u32> = (0..500).collect();
            Rng::new(seed, 7).shuffle(&mut v);
            v
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
        let mut sorted = order(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<_>>(), "a permutation");
        assert_ne!(
            Rng::new(1, 1).next_u64(),
            Rng::new(1, 2).next_u64(),
            "streams of one seed are decorrelated"
        );
    }
}
