//! Seeded input generation. Everything a workload feeds the program is
//! derived from the run's `--seed` through these functions; the program
//! itself never sees the seed.

/// SplitMix64: small, fast, and every seed gives a full-period stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `stream` separates independent uses of one
    /// seed (arrival times, right-hand sides, fault plans).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5851_F42D_4C95_7F2D))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-cell value in `[-1, 1)`: a pure function of the seed and the
/// logical coordinates, so every partitioning builds the same problem.
pub fn cell_value(seed: u64, x: i32, y: i32, z: i32, comp: usize) -> f64 {
    let key = (x as u64 & 0xFFFF)
        | (y as u64 & 0xFFFF) << 16
        | (z as u64 & 0xFFFF) << 32
        | (comp as u64 & 0xFFFF) << 48;
    let h = mix(mix(seed).wrapping_add(key.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Open-loop arrival times on the virtual clock: `n` arrivals over
/// `horizon_us`, one drawn uniformly inside the middle half of each of
/// `n` equal slots, ascending.
///
/// Uniform arrivals over a window are a Poisson stream conditioned on its
/// count. Drawing one per slot keeps that stream's mean rate and
/// irregular gaps (half a slot to one and a half) but removes its bursts.
/// A plain Poisson stream of 42 jobs moves the p95 latency by 40 % from
/// seed to seed, which no regression bound survives; this one moves the
/// virtual metrics by about one percent (README, "serve_mix").
pub fn stratified_arrivals(rng: &mut Rng, n: usize, horizon_us: f64) -> Vec<f64> {
    let slot = horizon_us / n as f64;
    (0..n)
        .map(|i| (i as f64 + rng.range(0.25, 0.75)) * slot)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng::new(8, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c, "neighbouring seeds must diverge");
        let d: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, d, "streams of one seed must be independent");
    }

    #[test]
    fn arrival_stream_is_deterministic_ascending_and_in_its_slots() {
        let gen = |seed| stratified_arrivals(&mut Rng::new(seed, 3), 42, 21_000.0);
        let a = gen(11);
        assert_eq!(a, gen(11));
        assert_ne!(a, gen(12));
        for (i, t) in a.iter().enumerate() {
            let lo = i as f64 * 500.0 + 125.0;
            assert!(
                *t >= lo && *t < lo + 250.0,
                "arrival {i} left its slot: {t}"
            );
        }
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn cell_values_are_bounded_and_seeded() {
        let mut sum = 0.0;
        for x in 0..16 {
            for y in 0..16 {
                let v = cell_value(5, x, y, 3, 0);
                assert!((-1.0..1.0).contains(&v));
                sum += v;
            }
        }
        assert!(sum.abs() < 40.0, "values are not centred: {sum}");
        assert_eq!(cell_value(5, 1, 2, 3, 0), cell_value(5, 1, 2, 3, 0));
        assert_ne!(cell_value(5, 1, 2, 3, 0), cell_value(6, 1, 2, 3, 0));
        assert_ne!(cell_value(5, 1, 2, 3, 0), cell_value(5, 1, 2, 3, 1));
    }
}
