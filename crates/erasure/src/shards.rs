//! Recycled slab storage for codeword shards.
//!
//! The original codec API moves `Vec<Vec<u8>>` around: every batch costs
//! `k + m` separate allocations, and handing a parity shard to the network
//! layer costs another copy into a [`Bytes`].  This module replaces that with
//! a *slab* layout:
//!
//! * A [`ShardSet`] is one contiguous `Arc<[u8]>` allocation holding all
//!   `k + m` shards of a codeword back to back (data first, parity after),
//!   so the encoder's inner loops run over cache-friendly contiguous memory.
//! * Finished shards are exported as [`Bytes`] views that share the slab —
//!   zero-copy, one refcount bump per shard.
//! * A [`ShardArena`] keeps a small pool of retired slabs and hands them out
//!   again once every view into them has been dropped, so steady-state
//!   encoding performs **no allocation at all**.
//!
//! The slab is mutated through `Arc::get_mut`, which succeeds only while the
//! set holds the sole reference.  Exporting a view therefore *freezes* the
//! set: further mutation panics rather than racing a reader.

use std::sync::Arc;

use bytes::Bytes;

/// One codeword's worth of shard storage: `data_shards + parity_shards`
/// equal-length shards packed into a single shared slab.
///
/// Build one directly with [`ShardSet::new`] or recycle storage through a
/// [`ShardArena`].  Fill the data region ([`ShardSet::data_mut`] /
/// [`ShardSet::write_data`]), encode into the parity region (e.g.
/// [`crate::rs::ReedSolomon::encode_into`]), then export zero-copy views
/// with [`ShardSet::shard_bytes`].
#[derive(Debug)]
pub struct ShardSet {
    slab: Arc<[u8]>,
    data_shards: usize,
    parity_shards: usize,
    shard_len: usize,
}

impl ShardSet {
    /// Creates a set with freshly allocated (zeroed) storage.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(data_shards: usize, parity_shards: usize, shard_len: usize) -> Self {
        assert!(data_shards > 0, "data_shards must be positive");
        assert!(parity_shards > 0, "parity_shards must be positive");
        assert!(shard_len > 0, "shard_len must be positive");
        let total = (data_shards + parity_shards) * shard_len;
        ShardSet {
            slab: vec![0u8; total].into(),
            data_shards,
            parity_shards,
            shard_len,
        }
    }

    /// Number of data shards `k`.
    pub fn data_shards(&self) -> usize {
        self.data_shards
    }

    /// Number of parity shards `m`.
    pub fn parity_shards(&self) -> usize {
        self.parity_shards
    }

    /// Length of every shard in bytes.
    pub fn shard_len(&self) -> usize {
        self.shard_len
    }

    /// Bytes of the slab actually used by this geometry.
    fn used(&self) -> usize {
        (self.data_shards + self.parity_shards) * self.shard_len
    }

    /// Whether the set still holds the only reference to its slab (no
    /// exported views alive), i.e. whether it is still mutable.
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.slab) == 1
    }

    fn slab_mut(&mut self) -> &mut [u8] {
        Arc::get_mut(&mut self.slab).expect("ShardSet mutated while exported Bytes views are alive")
    }

    /// Read-only view of the `i`-th shard (data shards first, then parity).
    pub fn shard(&self, i: usize) -> &[u8] {
        assert!(i < self.data_shards + self.parity_shards, "shard index {i}");
        &self.slab[i * self.shard_len..(i + 1) * self.shard_len]
    }

    /// Mutable view of the `i`-th data shard.
    ///
    /// # Panics
    /// Panics if a [`Bytes`] view exported from this set is still alive.
    pub fn data_mut(&mut self, i: usize) -> &mut [u8] {
        assert!(i < self.data_shards, "data shard index {i}");
        let len = self.shard_len;
        &mut self.slab_mut()[i * len..(i + 1) * len]
    }

    /// Copies `payload` into the `i`-th data shard and zero-fills the rest of
    /// the shard.
    ///
    /// # Panics
    /// Panics if the payload does not fit or a view is still alive.
    pub fn write_data(&mut self, i: usize, payload: &[u8]) {
        let shard = self.data_mut(i);
        assert!(payload.len() <= shard.len(), "payload longer than shard");
        shard[..payload.len()].copy_from_slice(payload);
        shard[payload.len()..].fill(0);
    }

    /// Splits the used slab into the (read-only) data region and the
    /// (mutable) parity region — the shape the encoder's accumulate loops
    /// need, obtained with one `split_at_mut`.
    ///
    /// # Panics
    /// Panics if a view is still alive.
    pub fn split_data_parity(&mut self) -> (&[u8], &mut [u8]) {
        let boundary = self.data_shards * self.shard_len;
        let used = self.used();
        let (data, parity) = self.slab_mut()[..used].split_at_mut(boundary);
        (&data[..], parity)
    }

    /// Borrows shard `src` read-only and shard `dst` mutably at the same
    /// time — the shape a decoder's accumulate loop needs when it rebuilds a
    /// missing shard from the other shards of the *same* slab (see
    /// [`crate::rs::ReedSolomon::decode_into`]).
    ///
    /// # Panics
    /// Panics if `src == dst`, either index is out of range, or a view is
    /// still alive.
    pub fn shard_pair_mut(&mut self, src: usize, dst: usize) -> (&[u8], &mut [u8]) {
        let total = self.data_shards + self.parity_shards;
        assert!(src < total, "source shard index {src}");
        assert!(dst < total, "destination shard index {dst}");
        assert_ne!(src, dst, "source and destination shards must differ");
        let len = self.shard_len;
        let slab = self.slab_mut();
        if src < dst {
            let (head, tail) = slab.split_at_mut(dst * len);
            (&head[src * len..(src + 1) * len], &mut tail[..len])
        } else {
            let (head, tail) = slab.split_at_mut(src * len);
            (&tail[..len], &mut head[dst * len..(dst + 1) * len])
        }
    }

    /// Exports the `i`-th shard as a zero-copy [`Bytes`] view sharing the
    /// slab.  After the first export the set is frozen: mutating methods
    /// panic until every view (and any [`ShardArena`] recycling of the slab
    /// waits too) has been dropped.
    pub fn shard_bytes(&self, i: usize) -> Bytes {
        assert!(i < self.data_shards + self.parity_shards, "shard index {i}");
        Bytes::from_owner(Arc::clone(&self.slab))
            .slice(i * self.shard_len..(i + 1) * self.shard_len)
    }

    /// Exports the `i`-th parity shard as a zero-copy view (parity shard 0 is
    /// overall shard `k`).
    pub fn parity_bytes(&self, i: usize) -> Bytes {
        assert!(i < self.parity_shards, "parity shard index {i}");
        self.shard_bytes(self.data_shards + i)
    }

    /// Consumes the set, returning the slab for recycling.
    fn into_slab(self) -> Arc<[u8]> {
        self.slab
    }
}

/// A bounded pool of retired slabs.
///
/// [`ShardArena::lease`] prefers to re-zero and reuse a pooled slab whose
/// views have all been dropped; only when none qualifies does it allocate.
/// Encoders that process one batch at a time (the DC1 coding queue, the
/// Figure 10 engine) reach a steady state where every batch reuses the same
/// one or two slabs and the allocator is never called.
#[derive(Debug, Default)]
pub struct ShardArena {
    pool: Vec<Arc<[u8]>>,
}

/// Retired slabs kept per arena; enough to ride out views that outlive a
/// couple of batches without letting a pathological consumer grow the pool
/// unboundedly.
const ARENA_POOL_LIMIT: usize = 8;

impl ShardArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ShardArena::default()
    }

    /// Number of retired slabs currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Produces a [`ShardSet`] of the requested geometry, reusing a pooled
    /// slab when one is big enough and no longer referenced by any view.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn lease(
        &mut self,
        data_shards: usize,
        parity_shards: usize,
        shard_len: usize,
    ) -> ShardSet {
        assert!(data_shards > 0, "data_shards must be positive");
        assert!(parity_shards > 0, "parity_shards must be positive");
        assert!(shard_len > 0, "shard_len must be positive");
        let needed = (data_shards + parity_shards) * shard_len;
        let reusable = self
            .pool
            .iter()
            .position(|slab| slab.len() >= needed && Arc::strong_count(slab) == 1);
        let slab = match reusable {
            Some(idx) => {
                let mut slab = self.pool.swap_remove(idx);
                // Zero only the region this geometry uses; a pooled slab can
                // be much larger than the set it serves.
                Arc::get_mut(&mut slab).expect("uniqueness checked above")[..needed].fill(0);
                slab
            }
            // Round up so a stream of slightly varying batch shapes converges
            // on a few reusable slabs instead of one allocation per shape.
            None => vec![0u8; needed.next_power_of_two()].into(),
        };
        ShardSet {
            slab,
            data_shards,
            parity_shards,
            shard_len,
        }
    }

    /// Returns a set's slab to the pool for future leases.  The slab becomes
    /// reusable as soon as the last exported view is dropped.
    pub fn reclaim(&mut self, set: ShardSet) {
        if self.pool.len() >= ARENA_POOL_LIMIT {
            // Drop the oldest retired slab; its views (if any) stay valid.
            self.pool.remove(0);
        }
        self.pool.push(set.into_slab());
    }
}

/// Cloning an arena yields an *empty* arena: slabs are not shared across
/// clones (each clone builds up its own pool).
impl Clone for ShardArena {
    fn clone(&self) -> Self {
        ShardArena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_are_contiguous_and_addressable() {
        let mut set = ShardSet::new(2, 1, 4);
        set.write_data(0, &[1, 2, 3, 4]);
        set.write_data(1, &[5, 6]);
        assert_eq!(set.shard(0), &[1, 2, 3, 4]);
        assert_eq!(set.shard(1), &[5, 6, 0, 0], "short payload is zero-padded");
        assert_eq!(set.shard(2), &[0, 0, 0, 0]);
        let (data, parity) = set.split_data_parity();
        assert_eq!(data.len(), 8);
        assert_eq!(parity.len(), 4);
        parity[0] = 9;
        assert_eq!(set.shard(2), &[9, 0, 0, 0]);
    }

    #[test]
    fn exported_views_share_the_slab() {
        let mut set = ShardSet::new(2, 2, 3);
        set.write_data(0, &[7, 7, 7]);
        let v0 = set.shard_bytes(0);
        let p1 = set.parity_bytes(1);
        assert_eq!(&v0[..], &[7, 7, 7]);
        assert_eq!(&p1[..], &[0, 0, 0]);
        assert!(!set.is_unique(), "views must share, not copy");
    }

    #[test]
    fn shard_pair_borrows_both_directions() {
        let mut set = ShardSet::new(2, 1, 4);
        set.write_data(0, &[1, 2, 3, 4]);
        set.write_data(1, &[5, 6, 7, 8]);
        let (src, dst) = set.shard_pair_mut(0, 2);
        assert_eq!(src, &[1, 2, 3, 4]);
        dst.copy_from_slice(src);
        // And with the source after the destination.
        let (src, dst) = set.shard_pair_mut(2, 1);
        assert_eq!(src, &[1, 2, 3, 4]);
        dst[0] = 9;
        assert_eq!(set.shard(1), &[9, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn shard_pair_rejects_aliasing() {
        let mut set = ShardSet::new(2, 1, 4);
        let _ = set.shard_pair_mut(1, 1);
    }

    #[test]
    #[should_panic(expected = "views are alive")]
    fn mutation_after_export_panics() {
        let mut set = ShardSet::new(1, 1, 2);
        let _view = set.shard_bytes(0);
        set.write_data(0, &[1]);
    }

    #[test]
    fn arena_recycles_once_views_drop() {
        let mut arena = ShardArena::new();
        let mut set = arena.lease(4, 2, 16);
        set.write_data(0, b"hello");
        let view = set.shard_bytes(0);
        arena.reclaim(set);
        assert_eq!(arena.pooled(), 1);

        // The view is still alive, so the slab cannot be reused yet.
        let other = arena.lease(4, 2, 16);
        assert_eq!(arena.pooled(), 1, "slab with live view must not be reused");
        assert_eq!(&view[..5], b"hello");
        drop(view);
        arena.reclaim(other);

        // Both slabs are now view-free; the next lease reuses instead of
        // allocating, and hands back zeroed storage.
        let recycled = arena.lease(4, 2, 16);
        assert_eq!(arena.pooled(), 1);
        assert!(recycled.shard(0).iter().all(|&b| b == 0));
    }

    #[test]
    fn arena_pool_is_bounded() {
        let mut arena = ShardArena::new();
        let sets: Vec<ShardSet> = (0..ARENA_POOL_LIMIT + 3)
            .map(|_| {
                let set = ShardSet::new(1, 1, 8);
                let _hold = set.shard_bytes(0); // force non-reusable
                set
            })
            .collect();
        for s in sets {
            arena.reclaim(s);
        }
        assert_eq!(arena.pooled(), ARENA_POOL_LIMIT);
    }

    #[test]
    fn lease_serves_smaller_geometries_from_a_big_slab() {
        let mut arena = ShardArena::new();
        let big = arena.lease(8, 4, 256);
        arena.reclaim(big);
        let small = arena.lease(2, 1, 64);
        assert_eq!(arena.pooled(), 0, "big slab must be reused for small set");
        assert_eq!(small.shard_len(), 64);
        assert_eq!(small.data_shards(), 2);
    }
}
