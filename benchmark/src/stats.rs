//! Small numeric helpers: percentiles, quartiles, geometric mean, the
//! order-independent answer hash, and the seeded generator behind every
//! operation sequence.

/// The `p`-th percentile (`0.0..=100.0`) by the nearest-rank method: the
/// smallest sample with at least `p` % of the samples at or below it.
/// `samples` need not be sorted. Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, averaging the two middle samples of an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method). With fewer than two samples both
/// are the sample itself.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let at = |q: usize| {
        // Position q·(n+1)/4 on a 1-based scale, clamped into the data.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Geometric mean of positive ratios.
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geometric mean of no ratios");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// FNV-1a over a row's fields, each closed by a separator byte that no
/// UTF-8 text contains.
pub struct RowHash(u64);

impl RowHash {
    pub fn new() -> Self {
        RowHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn field(&mut self, field: &str) {
        for &b in field.as_bytes().iter().chain(&[0xffu8]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The hash of one row of strings.
pub fn row_hash<'a>(fields: impl Iterator<Item = &'a str>) -> u64 {
    let mut h = RowHash::new();
    fields.for_each(|f| h.field(f));
    h.finish()
}

/// Order-independent hash of a set of rows: the wrapping sum of the row
/// hashes.
pub fn rows_hash(rows: &[Vec<String>]) -> u64 {
    rows.iter()
        .map(|r| row_hash(r.iter().map(String::as_str)))
        .fold(0, u64::wrapping_add)
}

/// SplitMix64: the benchmark's own generator, so an operation sequence is
/// a pure function of `--seed` whatever the program under test links.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn geometric_mean_of_reciprocals_is_one() {
        assert!((geometric_mean(&[4.0, 0.25]) - 1.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rows_hash_ignores_order_but_not_content_or_field_boundaries() {
        let row = |f: &[&str]| f.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = vec![row(&["s1", "l2"]), row(&["s2", "l3"])];
        let b = vec![row(&["s2", "l3"]), row(&["s1", "l2"])];
        assert_eq!(rows_hash(&a), rows_hash(&b));
        assert_ne!(rows_hash(&a), rows_hash(&a[..1]));
        assert_ne!(
            rows_hash(&[row(&["ab", "c"])]),
            rows_hash(&[row(&["a", "bc"])])
        );
        // The empty tuple of a true closed query differs from no tuple.
        assert_ne!(rows_hash(&[row(&[])]), rows_hash(&[]));
    }

    #[test]
    fn splitmix_repeats_for_a_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut g = SplitMix64::new(seed);
            (0..8).map(|_| g.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }
}
