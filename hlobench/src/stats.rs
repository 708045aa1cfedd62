//! Seeded randomness and exact order statistics.

/// SplitMix64: a small, fast generator whose whole state is the seed, so
/// one `--seed` reproduces every random choice of a run.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    /// An independent stream for one purpose (`tag`) of the same seed, so
    /// adding a draw to one stream never shifts another.
    pub fn fork(&self, tag: u64) -> Rng {
        Rng::new(self.0 ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Draws from a fixed multiset in seeded shuffled rounds: every item
/// comes up exactly as often as it appears in the deck per round, so a
/// run's mix (request classes, programs, edited modules) matches the
/// intended shares instead of drifting with independent draws.
#[derive(Debug, Clone)]
pub struct Deck {
    rng: Rng,
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    /// A deck holding `counts[i]` copies of item `i`.
    pub fn new(rng: Rng, counts: &[usize]) -> Deck {
        let cards = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
            .collect::<Vec<_>>();
        assert!(!cards.is_empty(), "a deck needs at least one card");
        let next = cards.len();
        Deck { rng, cards, next }
    }

    /// A deck holding each of `0..n` once.
    pub fn of(rng: Rng, n: usize) -> Deck {
        Deck::new(rng, &vec![1; n])
    }

    pub fn draw(&mut self) -> usize {
        if self.next == self.cards.len() {
            self.rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of raw samples, by linear interpolation
/// between the two closest ranks (the "type 7" definition numpy and R use
/// by default). `None` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// [`percentile`], reading an empty sample as 0 (a layer the workload
/// never exercised).
pub fn pct_or_zero(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or(0.0)
}

/// Blocks per measured phase: equal time slices, each normalized by the
/// host probes taken within it.
pub const BLOCKS: usize = 10;

/// Every sample divided by the host slowdown of its block, in one list.
pub fn normalized(blocks: &[Vec<f64>], slowdowns: &[f64]) -> Vec<f64> {
    blocks
        .iter()
        .zip(slowdowns)
        .flat_map(|(xs, s)| xs.iter().map(move |x| x / s))
        .collect()
}

/// Arithmetic mean, 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert_eq!(percentile(&xs, 1.0), Some(5.0));
        assert_eq!(percentile(&xs, 0.25), Some(2.0));
        // Between ranks: 0.9 × 4 = 3.6 → 4 + 0.6 × (5 − 4).
        assert!((percentile(&xs, 0.9).unwrap() - 4.6).abs() < 1e-12);
        // Even count: the median is the midpoint of the middle pair.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 10.0], 0.5), Some(2.5));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(pct_or_zero(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_matches_numpy_on_a_p99() {
        // numpy.percentile(range(1, 101), 99) == 99.01
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&xs, 0.99).unwrap() - 99.01).abs() < 1e-9);
    }

    #[test]
    fn normalized_samples_divide_each_block_by_its_slowdown() {
        // The host ran at half speed during the second block and the
        // operations took twice as long: normalized, nothing changed.
        let blocks = [vec![10.0; 2], vec![20.0; 2], vec![10.0]];
        assert_eq!(normalized(&blocks, &[1.0, 2.0, 1.0]), vec![10.0; 5]);
        assert_eq!(normalized(&blocks[..1], &[0.5]), vec![20.0; 2]);
        assert!(normalized(&[], &[]).is_empty());
    }

    #[test]
    fn decks_deal_exact_shares_per_round_in_seeded_order() {
        let mut d = Deck::new(Rng::new(4), &[8, 2]);
        let round: Vec<usize> = (0..10).map(|_| d.draw()).collect();
        assert_eq!(round.iter().filter(|&&c| c == 1).count(), 2);
        let mut again = Deck::new(Rng::new(4), &[8, 2]);
        assert_eq!((0..10).map(|_| again.draw()).collect::<Vec<_>>(), round);
        let mut p = Deck::of(Rng::new(5), 14);
        let mut seen: Vec<usize> = (0..14).map(|_| p.draw()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..14).collect::<Vec<_>>());
    }

    #[test]
    fn rng_streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut r = Rng::new(seed).fork(3);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            assert!(r.below(14) < 14);
        }
    }
}
