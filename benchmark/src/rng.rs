//! The benchmark's own seeded generator: every input (flow ids, payload
//! bytes, which packets get NACKed) is a pure function of `--seed`, so the
//! same seed replays the same inputs and the program under test only ever
//! sees the generated datagrams.

/// SplitMix64 finaliser: a bijective 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a seed with two coordinates (e.g. flow and sequence number).
pub fn mix3(seed: u64, a: u64, b: u64) -> u64 {
    mix(mix(seed ^ mix(a)) ^ b)
}

/// A SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `stream` so different uses of one
    /// seed do not correlate.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix3(seed, stream, 0x6A51))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform integer in `0..n` (`n > 0`); the modulo bias is below 2⁻³²
    /// for every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Fills `buf` with the payload of packet `(flow, seq)` under `seed`.  The
/// receiver regenerates it to check delivered bytes without storing them.
pub fn fill_payload(seed: u64, flow: u32, seq: u64, buf: &mut [u8]) {
    let mut state = mix3(seed, u64::from(flow), seq);
    for chunk in buf.chunks_mut(8) {
        state = mix(state);
        chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
    }
}

/// First flow id of a run: seeded, and leaving room for thousands of
/// consecutive ids below `u32::MAX`.
pub fn flow_base(seed: u64) -> u32 {
    (mix3(seed, 0xF10E, 0) as u32) & 0x3FFF_FFFF
}

/// `relay-cache-recover`: whether data packet `(flow, seq)` is NACKed (a
/// seeded 1 in 8).
pub fn cache_recover_nacked(seed: u64, flow: u32, seq: u64) -> bool {
    mix3(seed ^ 0xCAC4E, u64::from(flow), seq).is_multiple_of(8)
}

/// `relay-coding-1k`: the position within batch number `batch` of `flow`
/// (`0..k`) whose packet is NACKed.
pub fn coding_victim(seed: u64, flow: u32, batch: u64, k: u64) -> u64 {
    mix3(seed ^ 0xC0D1, u64::from(flow), batch) % k
}

/// `relay-cache-nackstorm`: the `n` NACK targets `(flow index, ring
/// position)`, uniform over `flows × ring` positions.
pub fn nackstorm_targets(
    seed: u64,
    trial: u64,
    flows: u64,
    ring: u64,
    n: usize,
) -> Vec<(u32, u64)> {
    let mut rng = Rng::new(seed, 0x5702 + trial);
    (0..n)
        .map(|_| (rng.below(flows) as u32, rng.below(ring)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_differs() {
        let a = nackstorm_targets(42, 0, 256, 64, 1000);
        assert_eq!(a, nackstorm_targets(42, 0, 256, 64, 1000));
        // Held-out seed and a later trial both give another schedule.
        assert_ne!(a, nackstorm_targets(43, 0, 256, 64, 1000));
        assert_ne!(a, nackstorm_targets(42, 1, 256, 64, 1000));
        assert!(a.iter().all(|&(f, p)| f < 256 && p < 64));

        let nacked = |seed| -> Vec<bool> {
            (0..4096u64)
                .map(|i| cache_recover_nacked(seed, (i % 512) as u32, i / 512))
                .collect()
        };
        assert_eq!(nacked(42), nacked(42));
        assert_ne!(nacked(42), nacked(43));
        let share = nacked(42).iter().filter(|&&b| b).count() as f64 / 4096.0;
        assert!((0.09..0.16).contains(&share), "about 1 in 8, got {share}");

        let victims =
            |seed| -> Vec<u64> { (0..512).map(|b| coding_victim(seed, 7, b, 8)).collect() };
        assert_eq!(victims(42), victims(42));
        assert_ne!(victims(42), victims(43));
        assert!(victims(42).iter().all(|&v| v < 8));
    }

    #[test]
    fn payloads_are_reproducible_and_distinct() {
        let mut a = [0u8; 29];
        let mut b = [0u8; 29];
        fill_payload(1, 2, 3, &mut a);
        fill_payload(1, 2, 3, &mut b);
        assert_eq!(a, b);
        fill_payload(1, 2, 4, &mut b);
        assert_ne!(a, b);
        fill_payload(2, 2, 3, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn flow_base_leaves_headroom() {
        for seed in 0..100 {
            assert!(flow_base(seed) < (1 << 30));
        }
        assert_ne!(flow_base(1), flow_base(2));
    }
}
