//! Seeded inputs: a small deterministic generator for fills, and the deck
//! that orders `serve_mixed`'s arrivals.
//!
//! The seed changes *values* and *order*, never the amount of work: fills
//! keep their lengths, and the deck holds every `(first tenant, batch size)`
//! pair exactly once whatever the seed, so one pass over it submits the same
//! multiset of jobs.

/// SplitMix64 stream. The same seed gives the same sequence.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at deck
    /// sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)` on a 2^-10 grid, so small sums of fills stay
    /// exactly representable in `f32`.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() % 2048) as f32 / 1024.0 - 1.0
    }

    pub fn fill(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.unit_f32()).collect()
    }
}

pub const TENANTS: usize = 12;
pub const MIN_BATCH: usize = 4;
pub const MAX_BATCH: usize = 12;

/// One arrival cycle: `size` contiguous tenants (mod [`TENANTS`]) starting
/// at `first` each submit one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deal {
    pub first: usize,
    pub size: usize,
}

impl Deal {
    pub fn tenants(self) -> impl Iterator<Item = usize> {
        (0..self.size).map(move |i| (self.first + i) % TENANTS)
    }
}

/// Every `(first, size)` pair once, Fisher-Yates shuffled by `seed`.
pub fn deck(seed: u64) -> Vec<Deal> {
    let mut cards: Vec<Deal> = (0..TENANTS)
        .flat_map(|first| (MIN_BATCH..=MAX_BATCH).map(move |size| Deal { first, size }))
        .collect();
    let mut rng = Rng::new(seed ^ 0xDEC4);
    for i in (1..cards.len()).rev() {
        cards.swap(i, rng.below(i + 1));
    }
    cards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order_other_seed_other_order() {
        assert_eq!(deck(7), deck(7));
        assert_ne!(deck(7), deck(8));
    }

    #[test]
    fn every_pair_exactly_once_whatever_the_seed() {
        for seed in [0, 1, 42, u64::MAX] {
            let mut d = deck(seed);
            assert_eq!(d.len(), TENANTS * (MAX_BATCH - MIN_BATCH + 1));
            d.sort();
            d.dedup();
            assert_eq!(d.len(), 108, "no pair twice");
            // Same total work: jobs per pass do not depend on the seed.
            assert_eq!(
                d.iter().map(|c| c.size).sum::<usize>(),
                12 * (4..=12).sum::<usize>()
            );
        }
    }

    #[test]
    fn deal_wraps_around_the_tenant_ring() {
        let d = Deal { first: 10, size: 4 };
        assert_eq!(d.tenants().collect::<Vec<_>>(), vec![10, 11, 0, 1]);
    }

    #[test]
    fn fills_are_seeded_and_bounded() {
        let a = Rng::new(3).fill(64);
        assert_eq!(a, Rng::new(3).fill(64));
        assert_ne!(a, Rng::new(4).fill(64));
        assert!(a.iter().all(|x| (-1.0..1.0).contains(x)));
    }
}
