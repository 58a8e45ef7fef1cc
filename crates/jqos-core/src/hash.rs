//! The hasher of the simulated nodes' per-packet maps.
//!
//! Their keys are small integers the deployment hands out itself (`FlowId`,
//! `SeqNo`, `BatchId`, recovery ids), so SipHash's flood resistance buys
//! nothing and costs most of a lookup.  The hasher is also *fixed* — no
//! per-process random keys — so a map built by the same operations iterates
//! in the same order in every process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over integer writes.
#[derive(Clone, Copy, Default)]
pub(crate) struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` using [`FixedHasher`].
pub(crate) type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;
