//! A small seeded generator (SplitMix64): the same seed gives the same
//! stream on every machine, with no dependency on `rand`.

/// SplitMix64 state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed` and a stream label, so
    /// independent parts of a workload draw from independent streams.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Self(seed ^ h.rotate_left(17))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Zipf-distributed rank in `1..=n` with exponent `s`, by inverting
    /// the continuous approximation of the CDF (exact enough for a load mix).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        let u = self.unit();
        let n = n as f64;
        let rank = if (s - 1.0).abs() < 1e-9 {
            n.powf(u)
        } else {
            let a = 1.0 - s;
            (1.0 + u * (n.powf(a) - 1.0)).powf(1.0 / a)
        };
        (rank.floor() as usize).clamp(1, n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, "x");
        assert!(a.iter().all(|&v| v == r.next_u64()));
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(7, "y").next_u64());
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(8, "x").next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mut r = Rng::new(1, "z");
        let draws: Vec<usize> = (0..10_000).map(|_| r.zipf(1000, 1.1)).collect();
        assert!(draws.iter().all(|&d| (1..=1000).contains(&d)));
        let low = draws.iter().filter(|&&d| d <= 10).count();
        assert!(low > 3000, "ranks 1..=10 must take a large share, got {low}");
    }
}
