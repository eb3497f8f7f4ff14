//! The benchmark's own random numbers, so that inputs made from `--seed`
//! stay the same when the repository's `rand` stand-in changes.

/// xoshiro256** seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Self { s: [next(), next(), next(), next()] }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-distributed ranks over `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`. The cumulative table makes a draw one
/// uniform number and one binary search, exact for any `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// How many ranks there are.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_repeat_per_seed_and_differ_across_seeds() {
        let z = Zipf::new(10_000, 0.99);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..1000).map(|_| z.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert!(draw(7).iter().all(|&r| r < 10_000));
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = Rng::new(1);
        let n = 100_000;
        let draws: Vec<usize> = (0..n).map(|_| z.draw(&mut rng)).collect();
        let top = draws.iter().filter(|&&r| r == 0).count() as f64 / n as f64;
        // P(rank 0) = 1 / H(10000, 0.99) ~ 0.098.
        assert!((0.09..0.11).contains(&top), "P(rank 0) = {top}");
        let head = draws.iter().filter(|&&r| r < 100).count() as f64 / n as f64;
        assert!(head > 0.45, "top 1% of ranks drew only {head}");
    }

    #[test]
    fn uniform_floats_stay_in_range() {
        let mut rng = Rng::new(3);
        assert!((0..10_000).map(|_| rng.next_f64()).all(|x| (0.0..1.0).contains(&x)));
    }
}
