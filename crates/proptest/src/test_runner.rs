//! Deterministic case generation for the shim's
//! [`proptest!`](crate::proptest!) macro.

/// The per-run case count: `PROPTEST_CASES` or 64.
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(64)
}

/// SplitMix64 step (the shim keeps its own copy to stay dependency-free).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the test name: a stable, platform-independent seed base.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The case generator handed to strategies: xoshiro256++ seeded from the
/// test name and case index, so every (test, case) pair reproduces.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        TestRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53-bit precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The RNG for one `(test, case)` pair.
pub fn case_rng(test_name: &str, case: u32) -> TestRng {
    TestRng::seed_from_u64(fnv1a(test_name) ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_rng_reproducible_and_distinct() {
        let a = case_rng("t", 0).next_u64();
        let b = case_rng("t", 0).next_u64();
        assert_eq!(a, b);
        assert_ne!(case_rng("t", 1).next_u64(), a);
        assert_ne!(case_rng("u", 0).next_u64(), a);
    }

    #[test]
    fn default_case_count() {
        assert!(cases() >= 1);
    }
}
