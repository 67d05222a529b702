//! Test configuration and the deterministic RNG behind generation.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 96 keeps the workspace's large
        // property suites fast while still exercising the space.
        ProptestConfig { cases: 96 }
    }
}

/// Deterministic RNG: seeded from the test name, so failures reproduce.
pub struct TestRng(StdRng);

impl TestRng {
    /// An RNG whose stream is a pure function of `name`.
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the test name.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }

    /// The next raw word.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}
