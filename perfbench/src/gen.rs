//! Seeded input generators. Every key and value the benchmark sends is
//! drawn here from the `--seed` argument, so one seed always yields the
//! same streams and the program under test sees only generated keys.

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The generator for one stream of one run: `seed` is the run's
    /// seed, `client` the client index, `tag` names the stream's use.
    pub fn stream(seed: u64, client: u64, tag: u64) -> Self {
        let mut mix = Rng::new(seed ^ 0x243F_6A88_85A3_08D3);
        let a = mix.next_u64();
        let mut mix = Rng(a ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let b = mix.next_u64();
        Rng(b ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The join workloads' index: pair `i` is `(2i, i)`.
pub fn join_pairs(n: usize) -> Vec<(u64, u64)> {
    (0..n as u64).map(|i| (2 * i, i)).collect()
}

/// One `get_many` call's keys: uniform over `[0, 2n)` for an index of
/// `n` pairs, so half are even (hits) and half odd (misses).
pub fn join_call(rng: &mut Rng, pairs: usize, keys: usize) -> Vec<u64> {
    let span = 2 * pairs as u64;
    (0..keys).map(|_| rng.below(span)).collect()
}

/// The value every KV key holds before any write.
pub fn kv_initial(key: u64) -> u64 {
    key ^ 0x5BD1_E995_0000_0000
}

/// The KV workload's initial store: every key in `[0, n)`.
pub fn kv_pairs(n: usize) -> Vec<(u64, u64)> {
    (0..n as u64).map(|k| (k, kv_initial(k))).collect()
}

/// Zipf-distributed ranks in `[0, n)` with exponent `theta` in `[0, 1)`,
/// after Gray et al.'s quick sampler ("Quickly generating billion-record
/// synthetic databases", SIGMOD 1994). Rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2, "Zipf needs at least two ranks");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let nf = n as f64;
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Self {
            n: nf,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let r = self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha);
            (r as u64).min(self.n as u64 - 1)
        }
    }
}

/// Rows a KV range call asks for: `[lo, lo + RANGE_SPAN - 1]`.
pub const RANGE_SPAN: u64 = 256;

/// One KV client call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    Get(u64),
    Put(u64, u64),
    Remove(u64),
    Range(u64, u64),
}

/// One KV client's call stream: 60% get, 30% put, 5% remove, 5% range,
/// keys Zipf-distributed over the keys this client owns (`k % clients
/// == client`). Hot ranks are scattered over the partition by an odd
/// multiplier, so hot keys do not cluster in one range or one shard.
pub struct KvGen {
    rng: Rng,
    zipf: Zipf,
    client: u64,
    clients: u64,
    part_mask: u64,
}

impl KvGen {
    /// `domain` (a power of two) keys split evenly over `clients` (a
    /// power of two).
    pub fn new(seed: u64, client: u64, clients: u64, domain: u64, zipf: Zipf) -> Self {
        assert!(domain.is_power_of_two() && clients.is_power_of_two());
        Self {
            rng: Rng::stream(seed, client, 2),
            zipf,
            client,
            clients,
            part_mask: domain / clients - 1,
        }
    }

    fn key(&mut self) -> u64 {
        let rank = self.zipf.sample(&mut self.rng);
        let slot = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1) & self.part_mask;
        slot * self.clients + self.client
    }

    pub fn next_op(&mut self) -> KvOp {
        let pick = self.rng.below(100);
        let key = self.key();
        match pick {
            0..=59 => KvOp::Get(key),
            60..=89 => KvOp::Put(key, self.rng.next_u64()),
            90..=94 => KvOp::Remove(key),
            _ => KvOp::Range(key, key + RANGE_SPAN - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_streams() {
        let z = Zipf::new(1 << 12, 0.99);
        let ops = |seed| {
            let mut g = KvGen::new(seed, 1, 2, 1 << 13, z.clone());
            (0..500).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(7), ops(7));
        let keys = |seed| join_call(&mut Rng::stream(seed, 0, 1), 1 << 20, 1000);
        assert_eq!(keys(7), keys(7));
    }

    #[test]
    fn different_seeds_and_clients_differ() {
        let keys = |seed, client| join_call(&mut Rng::stream(seed, client, 1), 1 << 20, 1000);
        assert_ne!(keys(7, 0), keys(8, 0));
        assert_ne!(keys(7, 0), keys(7, 1));
        let z = Zipf::new(1 << 12, 0.99);
        let mut a = KvGen::new(1, 0, 2, 1 << 13, z.clone());
        let mut b = KvGen::new(2, 0, 2, 1 << 13, z);
        let a: Vec<_> = (0..200).map(|_| a.next_op()).collect();
        let b: Vec<_> = (0..200).map(|_| b.next_op()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn kv_keys_stay_in_the_clients_partition() {
        let mut g = KvGen::new(3, 1, 2, 1 << 10, Zipf::new(1 << 9, 0.99));
        for _ in 0..2000 {
            let key = match g.next_op() {
                KvOp::Get(k) | KvOp::Put(k, _) | KvOp::Remove(k) | KvOp::Range(k, _) => k,
            };
            assert_eq!(key % 2, 1);
            assert!(key < 1 << 10);
        }
    }

    #[test]
    fn zipf_is_skewed_and_join_keys_half_hit() {
        let z = Zipf::new(1 << 16, 0.99);
        let mut rng = Rng::new(11);
        let hot = (0..10_000).filter(|_| z.sample(&mut rng) < 16).count();
        // The 16 hottest of 65536 ranks draw about a quarter of samples.
        assert!((1500..4000).contains(&hot), "hot = {hot}");
        let keys = join_call(&mut Rng::new(5), 1 << 20, 10_000);
        let even = keys.iter().filter(|&&k| k % 2 == 0).count();
        assert!((4700..5300).contains(&even), "even = {even}");
        assert!(keys.iter().all(|&k| k < 2 << 20));
    }
}
