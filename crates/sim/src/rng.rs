//! A tiny deterministic random number generator.
//!
//! The simulation kernel needs light randomness — jitter on flash array
//! latencies, tie-breaking — without making every downstream crate depend on
//! an external RNG. `SplitMix64` is the standard 64-bit mixer used to seed
//! larger generators; it passes BigCrush on its own and is more than adequate
//! for latency jitter.

/// A `SplitMix64` pseudo-random generator.
///
/// # Examples
///
/// ```
/// use babol_sim::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic per seed
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The state increment γ (the golden-ratio constant).
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        Self::mix(self.state)
    }

    /// The output function: the value `next_u64` returns once the state
    /// has advanced to `state`. The `n`-th output of a generator seeded
    /// with `s` is `mix(s + n·GAMMA)`, which lets bulk generators compute
    /// words independently.
    #[inline(always)]
    pub const fn mix(state: u64) -> u64 {
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value uniformly distributed in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        // Multiply-shift bounded generation (Lemire); bias is negligible for
        // the bounds used in latency jitter.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bounded_stays_in_bounds() {
        let mut r = SplitMix64::new(99);
        for _ in 0..10_000 {
            assert!(r.next_below(10) < 10);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bounded_roughly_uniform() {
        let mut r = SplitMix64::new(123);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[r.next_below(4) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be nonzero")]
    fn zero_bound_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
