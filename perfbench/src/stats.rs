//! Order statistics and the seeded generator behind every op stream.

/// The median of `values` (mean of the middle two for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of `values` (the rule the serve
/// report's latency summary uses). Returns 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// SplitMix64: a small, fully deterministic generator. Every op stream
/// and per-round seed is drawn from one of these, so a run is a pure
/// function of its `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a `stream` label, so the rounds
    /// of one run (and the workloads of one seed) draw independent
    /// streams.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
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

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A balanced op stream: `len` ops over `kinds` kinds, each kind as
/// often as the others (to within one), in a seeded order. Balancing
/// keeps the op mix identical across seeds, so a seed changes the order
/// the program sees, not how much of each kind of work it does.
pub fn balanced_stream(rng: &mut Rng, kinds: usize, len: usize) -> Vec<usize> {
    let mut ops: Vec<usize> = (0..len).map(|i| i % kinds).collect();
    rng.shuffle(&mut ops);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
    }

    #[test]
    fn balanced_streams_keep_the_mix() {
        let ops = balanced_stream(&mut Rng::new(7, 0), 4, 400);
        for kind in 0..4 {
            assert_eq!(ops.iter().filter(|&&k| k == kind).count(), 100);
        }
    }
}
