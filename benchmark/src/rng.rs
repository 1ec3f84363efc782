//! The in-tree PRNG every generated value comes from (SplitMix64). Values
//! drawn from it are uncorrelated across attributes, which `i % n`
//! patterns are not: correlated moduli make a join always or never succeed.

/// SplitMix64 (Steele, Lea & Flood 2014): one 64-bit word of state, full
/// period, and good enough mixing that consecutive seeds give unrelated
/// streams — which is how per-client streams are derived from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻⁴⁰ for the
    /// small `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The SplitMix64 finalizer, also used to hash rows into digests.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_bounds_hold() {
        let mut a = Rng::stream(7, 1);
        let mut b = Rng::stream(7, 1);
        let mut c = Rng::stream(7, 2);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..100).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..10_000 {
            assert!(a.below(10) < 10);
            let v = a.range(-3, 3);
            assert!((-3..=3).contains(&v));
        }
        let mut items: Vec<u32> = (0..10).collect();
        a.shuffle(&mut items);
        items.sort_unstable();
        assert_eq!(items, (0..10).collect::<Vec<_>>());
    }
}
