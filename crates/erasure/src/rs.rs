//! Systematic Reed–Solomon codec.
//!
//! The code is constructed from a `(k + m) × k` Vandermonde matrix whose top
//! `k × k` block is normalised to the identity, giving a *systematic* MDS
//! code: shards `0..k` carry the data verbatim and shards `k..k+m` carry
//! parity.  Any `k` shards reconstruct all `k + m`.

use crate::gf256;
use crate::matrix::Matrix;
use crate::shards::ShardSet;

/// Errors returned by the codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RsError {
    /// `data_shards` or `parity_shards` was zero, or the total exceeded 255.
    InvalidParameters {
        /// Requested number of data shards.
        data_shards: usize,
        /// Requested number of parity shards.
        parity_shards: usize,
    },
    /// The number of shards passed to encode/reconstruct does not match the
    /// codec configuration.
    WrongShardCount {
        /// Number expected by the codec.
        expected: usize,
        /// Number actually supplied.
        got: usize,
    },
    /// Shards have inconsistent lengths.
    ShardLengthMismatch,
    /// Fewer than `k` shards are present, so reconstruction is impossible.
    NotEnoughShards {
        /// Shards required.
        needed: usize,
        /// Shards available.
        present: usize,
    },
    /// A shard is empty.
    EmptyShard,
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::InvalidParameters { data_shards, parity_shards } => write!(
                f,
                "invalid Reed-Solomon parameters: k={data_shards}, m={parity_shards} (need k>=1, m>=1, k+m<=255)"
            ),
            RsError::WrongShardCount { expected, got } => {
                write!(f, "wrong shard count: expected {expected}, got {got}")
            }
            RsError::ShardLengthMismatch => write!(f, "shards have different lengths"),
            RsError::NotEnoughShards { needed, present } => {
                write!(f, "not enough shards to reconstruct: need {needed}, have {present}")
            }
            RsError::EmptyShard => write!(f, "shards must be non-empty"),
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic Reed–Solomon codec with `k` data shards and `m` parity
/// shards.
///
/// Any `k` of the `k + m` shards reconstruct the original data:
///
/// ```
/// use erasure::rs::ReedSolomon;
///
/// let rs = ReedSolomon::new(3, 2).unwrap();
/// let data: Vec<Vec<u8>> = vec![b"abcd".to_vec(), b"efgh".to_vec(), b"ijkl".to_vec()];
/// let mut shards: Vec<Option<Vec<u8>>> =
///     rs.encode_all(&data).unwrap().into_iter().map(Some).collect();
///
/// // Lose two shards — one data, one parity — and recover.
/// shards[0] = None;
/// shards[4] = None;
/// rs.reconstruct(&mut shards).unwrap();
/// assert_eq!(shards[0].as_deref(), Some(&b"abcd"[..]));
/// ```
///
/// Construction builds the systematic encoding matrix (an `O(k³)` inversion),
/// so codecs are meant to be **created once and reused** across batches —
/// [`crate::packets::BatchCodec`] caches them per `(k, m)`.  The per-batch
/// hot path is [`ReedSolomon::encode_into`], which is allocation-free.
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    data_shards: usize,
    parity_shards: usize,
    /// The full `(k + m) × k` encoding matrix (top block identity).
    encode_matrix: Matrix,
}

impl ReedSolomon {
    /// Creates a codec.  `data_shards ≥ 1`, `parity_shards ≥ 1` and
    /// `data_shards + parity_shards ≤ 255` (the field size minus one).
    pub fn new(data_shards: usize, parity_shards: usize) -> Result<Self, RsError> {
        if data_shards == 0 || parity_shards == 0 || data_shards + parity_shards > 255 {
            return Err(RsError::InvalidParameters {
                data_shards,
                parity_shards,
            });
        }
        let total = data_shards + parity_shards;
        let vandermonde = Matrix::vandermonde(total, data_shards);
        // Normalise: multiply by the inverse of the top square block so the
        // top k rows become the identity (systematic form).
        let top = vandermonde.select_rows(&(0..data_shards).collect::<Vec<_>>());
        let top_inv = top
            .invert()
            .expect("top block of a Vandermonde matrix is always invertible");
        let encode_matrix = vandermonde.multiply(&top_inv);
        debug_assert!(encode_matrix
            .select_rows(&(0..data_shards).collect::<Vec<_>>())
            .is_identity());
        Ok(ReedSolomon {
            data_shards,
            parity_shards,
            encode_matrix,
        })
    }

    /// Number of data shards `k`.
    pub fn data_shards(&self) -> usize {
        self.data_shards
    }

    /// Number of parity shards `m`.
    pub fn parity_shards(&self) -> usize {
        self.parity_shards
    }

    /// Total number of shards `k + m`.
    pub fn total_shards(&self) -> usize {
        self.data_shards + self.parity_shards
    }

    fn check_shards(&self, shards: &[Vec<u8>]) -> Result<usize, RsError> {
        if shards.len() != self.data_shards {
            return Err(RsError::WrongShardCount {
                expected: self.data_shards,
                got: shards.len(),
            });
        }
        let len = shards[0].len();
        if len == 0 {
            return Err(RsError::EmptyShard);
        }
        if shards.iter().any(|s| s.len() != len) {
            return Err(RsError::ShardLengthMismatch);
        }
        Ok(len)
    }

    /// Encodes `k` equal-length data shards into `m` parity shards.
    ///
    /// Allocates the parity vectors; the allocation-free slab variant is
    /// [`ReedSolomon::encode_into`].
    pub fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, RsError> {
        let len = self.check_shards(data)?;
        let mut parity = vec![vec![0u8; len]; self.parity_shards];
        for (p_idx, parity_shard) in parity.iter_mut().enumerate() {
            let row = self.encode_matrix.row(self.data_shards + p_idx);
            for (d_idx, data_shard) in data.iter().enumerate() {
                gf256::mul_slice_xor(row[d_idx], data_shard, parity_shard);
            }
        }
        Ok(parity)
    }

    /// Computes the parity shards of `shards` in place: reads the already
    /// filled data region of the [`ShardSet`] and overwrites its parity
    /// region.  Performs **no allocation** — this is the batch hot path the
    /// DC1 encoder and the Figure 10 engine run per codeword.
    ///
    /// The set's geometry must match the codec (`k` data shards, `m` parity
    /// shards).
    ///
    /// ```
    /// use erasure::{rs::ReedSolomon, shards::ShardSet};
    ///
    /// let rs = ReedSolomon::new(4, 2).unwrap();
    /// let mut set = ShardSet::new(4, 2, 64);
    /// for i in 0..4 {
    ///     set.write_data(i, &[i as u8; 64]);
    /// }
    /// rs.encode_into(&mut set).unwrap();
    /// // Parity equals the allocating API's output.
    /// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 64]).collect();
    /// assert_eq!(set.shard(4), &rs.encode(&data).unwrap()[0][..]);
    /// ```
    ///
    /// # Panics
    /// Panics if exported [`bytes::Bytes`] views of the set are still alive
    /// (the set is frozen; see [`ShardSet::shard_bytes`]).
    pub fn encode_into(&self, shards: &mut ShardSet) -> Result<(), RsError> {
        if shards.data_shards() != self.data_shards || shards.parity_shards() != self.parity_shards
        {
            return Err(RsError::WrongShardCount {
                expected: self.total_shards(),
                got: shards.data_shards() + shards.parity_shards(),
            });
        }
        let len = shards.shard_len();
        let (data, parity) = shards.split_data_parity();
        parity.fill(0);
        for (p_idx, parity_shard) in parity.chunks_exact_mut(len).enumerate() {
            let row = self.encode_matrix.row(self.data_shards + p_idx);
            for (d_idx, data_shard) in data.chunks_exact(len).enumerate() {
                gf256::mul_slice_xor(row[d_idx], data_shard, parity_shard);
            }
        }
        Ok(())
    }

    /// Rebuilds the missing *data* shards of a [`ShardSet`] in place.
    ///
    /// `present[i]` marks whether overall shard `i` (data shards first, then
    /// parity) currently holds valid bytes; any `k` present shards suffice.
    /// Missing data shards are overwritten with the reconstructed bytes;
    /// present shards are never touched, and missing parity shards are left
    /// alone (re-derive them with [`ReedSolomon::encode_into`] once the data
    /// region is complete, if needed).
    ///
    /// This is the decode counterpart of [`ReedSolomon::encode_into`]: the
    /// per-byte work runs entirely inside the set's slab (sources and
    /// targets are split out of the same allocation via
    /// [`ShardSet::shard_pair_mut`]), so an arena-leased set decodes without
    /// allocating shard buffers — only the small `k × k` decode matrix is
    /// built per call.
    ///
    /// ```
    /// use erasure::{rs::ReedSolomon, shards::ShardSet};
    ///
    /// let rs = ReedSolomon::new(4, 2).unwrap();
    /// let mut set = ShardSet::new(4, 2, 64);
    /// for i in 0..4 {
    ///     set.write_data(i, &[i as u8 + 1; 64]);
    /// }
    /// rs.encode_into(&mut set).unwrap();
    /// // Lose data shards 1 and 3; recover them from the rest.
    /// let mut present = vec![true; 6];
    /// present[1] = false;
    /// present[3] = false;
    /// set.data_mut(1).fill(0);
    /// set.data_mut(3).fill(0);
    /// rs.decode_into(&mut set, &present).unwrap();
    /// assert_eq!(set.shard(1), &[2u8; 64][..]);
    /// assert_eq!(set.shard(3), &[4u8; 64][..]);
    /// ```
    ///
    /// # Panics
    /// Panics if exported [`bytes::Bytes`] views of the set are still alive.
    pub fn decode_into(&self, shards: &mut ShardSet, present: &[bool]) -> Result<(), RsError> {
        let total = self.total_shards();
        if shards.data_shards() != self.data_shards || shards.parity_shards() != self.parity_shards
        {
            return Err(RsError::WrongShardCount {
                expected: total,
                got: shards.data_shards() + shards.parity_shards(),
            });
        }
        if present.len() != total {
            return Err(RsError::WrongShardCount {
                expected: total,
                got: present.len(),
            });
        }
        let present_count = present.iter().filter(|&&p| p).count();
        if present_count < self.data_shards {
            return Err(RsError::NotEnoughShards {
                needed: self.data_shards,
                present: present_count,
            });
        }
        if present[..self.data_shards].iter().all(|&p| p) {
            return Ok(());
        }
        // Solve for the original data from the first k present shards.
        let use_rows: Vec<usize> = (0..total)
            .filter(|&i| present[i])
            .take(self.data_shards)
            .collect();
        let sub = self.encode_matrix.select_rows(&use_rows);
        let decode = sub
            .invert()
            .expect("any k rows of an MDS encoding matrix are invertible");
        for (d, &have) in present.iter().enumerate().take(self.data_shards) {
            if have {
                continue;
            }
            shards.data_mut(d).fill(0);
            // data[d] = sum_j decode[d][j] * shard[use_rows[j]]; the sources
            // are all present shards, so none aliases the target.
            for (j, &src) in use_rows.iter().enumerate() {
                let coeff = decode.get(d, j);
                let (src_shard, dst_shard) = shards.shard_pair_mut(src, d);
                gf256::mul_slice_xor(coeff, src_shard, dst_shard);
            }
        }
        Ok(())
    }

    /// Encodes and returns all `k + m` shards (data shards are cloned).
    pub fn encode_all(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, RsError> {
        let parity = self.encode(data)?;
        let mut all = data.to_vec();
        all.extend(parity);
        Ok(all)
    }

    /// Reconstructs every missing shard in place.  `shards` must have length
    /// `k + m`; present shards are `Some(bytes)` of equal length.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        self.reconstruct_internal(shards, false)
    }

    /// Reconstructs only the missing *data* shards (cheaper when the parity
    /// shards are not needed again, which is the common case in CR-WAN's
    /// cooperative recovery).
    pub fn reconstruct_data(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        self.reconstruct_internal(shards, true)
    }

    fn reconstruct_internal(
        &self,
        shards: &mut [Option<Vec<u8>>],
        data_only: bool,
    ) -> Result<(), RsError> {
        let total = self.total_shards();
        if shards.len() != total {
            return Err(RsError::WrongShardCount {
                expected: total,
                got: shards.len(),
            });
        }
        let present: Vec<usize> = (0..total).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.data_shards {
            return Err(RsError::NotEnoughShards {
                needed: self.data_shards,
                present: present.len(),
            });
        }
        let shard_len = shards[present[0]].as_ref().unwrap().len();
        if shard_len == 0 {
            return Err(RsError::EmptyShard);
        }
        if present
            .iter()
            .any(|&i| shards[i].as_ref().unwrap().len() != shard_len)
        {
            return Err(RsError::ShardLengthMismatch);
        }

        let all_data_present = (0..self.data_shards).all(|i| shards[i].is_some());
        if !all_data_present {
            // Solve for the original data from any k present shards.
            let use_rows: Vec<usize> = present.iter().copied().take(self.data_shards).collect();
            let sub = self.encode_matrix.select_rows(&use_rows);
            let decode = sub
                .invert()
                .expect("any k rows of an MDS encoding matrix are invertible");
            // data[d] = sum_j decode[d][j] * shard[use_rows[j]]
            let mut rebuilt: Vec<Vec<u8>> = vec![vec![0u8; shard_len]; self.data_shards];
            for (d, out) in rebuilt.iter_mut().enumerate() {
                for (j, &row_idx) in use_rows.iter().enumerate() {
                    let coeff = decode.get(d, j);
                    let src = shards[row_idx].as_ref().unwrap();
                    gf256::mul_slice_xor(coeff, src, out);
                }
            }
            for (d, shard) in rebuilt.into_iter().enumerate() {
                if shards[d].is_none() {
                    shards[d] = Some(shard);
                }
            }
        }

        if !data_only {
            // Regenerate any missing parity shards from the (now complete) data.
            let data: Vec<Vec<u8>> = (0..self.data_shards)
                .map(|i| shards[i].clone().expect("data shard rebuilt above"))
                .collect();
            let parity = self.encode(&data)?;
            for (p, shard) in parity.into_iter().enumerate() {
                let idx = self.data_shards + p;
                if shards[idx].is_none() {
                    shards[idx] = Some(shard);
                }
            }
        }
        Ok(())
    }

    /// Verifies that the given full set of shards is consistent (parity
    /// matches the data).
    pub fn verify(&self, shards: &[Vec<u8>]) -> Result<bool, RsError> {
        if shards.len() != self.total_shards() {
            return Err(RsError::WrongShardCount {
                expected: self.total_shards(),
                got: shards.len(),
            });
        }
        let data = &shards[..self.data_shards];
        let expected = self.encode(data)?;
        Ok(expected
            .iter()
            .zip(&shards[self.data_shards..])
            .all(|(a, b)| a == b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_data(k: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| (i as u8).wrapping_mul(31) ^ (j as u8) ^ seed)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn parameter_validation() {
        assert!(ReedSolomon::new(0, 1).is_err());
        assert!(ReedSolomon::new(1, 0).is_err());
        assert!(ReedSolomon::new(200, 56).is_err());
        assert!(ReedSolomon::new(200, 55).is_ok());
        assert!(ReedSolomon::new(6, 2).is_ok());
    }

    #[test]
    fn encode_produces_expected_number_of_parity_shards() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 64, 1);
        let parity = rs.encode(&data).unwrap();
        assert_eq!(parity.len(), 2);
        assert!(parity.iter().all(|p| p.len() == 64));
        assert!(rs.verify(&rs.encode_all(&data).unwrap()).unwrap());
    }

    #[test]
    fn single_data_loss_recovers() {
        let rs = ReedSolomon::new(6, 2).unwrap();
        let data = sample_data(6, 512, 2);
        let mut shards: Vec<Option<Vec<u8>>> = rs
            .encode_all(&data)
            .unwrap()
            .into_iter()
            .map(Some)
            .collect();
        shards[3] = None;
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[3].as_deref(), Some(&data[3][..]));
    }

    #[test]
    fn loss_up_to_parity_count_recovers() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data = sample_data(5, 100, 3);
        let all = rs.encode_all(&data).unwrap();
        // Drop three shards: two data + one parity.
        let mut shards: Vec<Option<Vec<u8>>> = all.iter().cloned().map(Some).collect();
        shards[0] = None;
        shards[4] = None;
        shards[6] = None;
        rs.reconstruct(&mut shards).unwrap();
        for (i, orig) in all.iter().enumerate() {
            assert_eq!(shards[i].as_deref(), Some(&orig[..]), "shard {i}");
        }
    }

    #[test]
    fn too_many_losses_fail() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 32, 4);
        let mut shards: Vec<Option<Vec<u8>>> = rs
            .encode_all(&data)
            .unwrap()
            .into_iter()
            .map(Some)
            .collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(RsError::NotEnoughShards {
                needed: 4,
                present: 3
            })
        );
    }

    #[test]
    fn reconstruct_data_leaves_missing_parity_alone() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 32, 5);
        let mut shards: Vec<Option<Vec<u8>>> = rs
            .encode_all(&data)
            .unwrap()
            .into_iter()
            .map(Some)
            .collect();
        shards[1] = None;
        shards[5] = None;
        rs.reconstruct_data(&mut shards).unwrap();
        assert_eq!(shards[1].as_deref(), Some(&data[1][..]));
        assert!(shards[5].is_none(), "parity should not be rebuilt");
    }

    #[test]
    fn mismatched_shard_lengths_are_rejected() {
        let rs = ReedSolomon::new(3, 1).unwrap();
        let data = vec![vec![1u8; 10], vec![2u8; 10], vec![3u8; 11]];
        assert_eq!(rs.encode(&data), Err(RsError::ShardLengthMismatch));
    }

    #[test]
    fn encode_into_matches_allocating_encode() {
        use crate::shards::ShardSet;
        for (k, m, len) in [(4, 2, 64), (5, 1, 512), (2, 3, 33), (10, 4, 100)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            let data = sample_data(k, len, (k * 7 + m) as u8);
            let expected = rs.encode(&data).unwrap();
            let mut set = ShardSet::new(k, m, len);
            for (i, d) in data.iter().enumerate() {
                set.write_data(i, d);
            }
            rs.encode_into(&mut set).unwrap();
            for (p, exp) in expected.iter().enumerate() {
                assert_eq!(set.shard(k + p), &exp[..], "k={k} m={m} parity {p}");
            }
        }
    }

    #[test]
    fn encode_into_rejects_mismatched_geometry() {
        use crate::shards::ShardSet;
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut set = ShardSet::new(3, 2, 16);
        assert!(matches!(
            rs.encode_into(&mut set),
            Err(RsError::WrongShardCount { expected: 6, .. })
        ));
    }

    #[test]
    fn encode_into_overwrites_stale_parity() {
        use crate::shards::ShardSet;
        let rs = ReedSolomon::new(2, 1).unwrap();
        let mut set = ShardSet::new(2, 1, 8);
        set.write_data(0, &[1; 8]);
        set.write_data(1, &[2; 8]);
        rs.encode_into(&mut set).unwrap();
        let first = set.shard(2).to_vec();
        // Re-encode different data into the same (recycled) set: the parity
        // accumulator must be reset, not XORed on top of the old parity.
        set.write_data(0, &[9; 8]);
        rs.encode_into(&mut set).unwrap();
        let second = set.shard(2).to_vec();
        assert_ne!(first, second);
        let fresh = rs.encode(&[vec![9u8; 8], vec![2u8; 8]]).unwrap();
        assert_eq!(second, fresh[0]);
    }

    #[test]
    fn decode_into_rejects_bad_inputs() {
        use crate::shards::ShardSet;
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut set = ShardSet::new(4, 2, 16);
        // Wrong present-mask length.
        assert!(matches!(
            rs.decode_into(&mut set, &[true; 5]),
            Err(RsError::WrongShardCount {
                expected: 6,
                got: 5
            })
        ));
        // Too few shards present.
        assert_eq!(
            rs.decode_into(&mut set, &[true, true, true, false, false, false]),
            Err(RsError::NotEnoughShards {
                needed: 4,
                present: 3
            })
        );
        // Wrong geometry.
        let mut small = ShardSet::new(3, 2, 16);
        assert!(matches!(
            rs.decode_into(&mut small, &[true; 5]),
            Err(RsError::WrongShardCount { expected: 6, .. })
        ));
        // All data present: a no-op even with parity missing.
        assert_eq!(
            rs.decode_into(&mut set, &[true, true, true, true, false, false]),
            Ok(())
        );
    }

    #[test]
    fn parity_is_deterministic() {
        let rs = ReedSolomon::new(6, 2).unwrap();
        let data = sample_data(6, 256, 6);
        assert_eq!(rs.encode(&data).unwrap(), rs.encode(&data).unwrap());
    }

    #[test]
    fn in_stream_coding_shape_from_paper() {
        // The paper's in-stream default for interactive apps is s = 1/5: one
        // coded packet per five data packets (k=5, m=1).
        let rs = ReedSolomon::new(5, 1).unwrap();
        let data = sample_data(5, 512, 7);
        let parity = rs.encode(&data).unwrap();
        assert_eq!(parity.len(), 1);
        // Losing any single data packet is recoverable.
        for lost in 0..5 {
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .map(Some)
                .chain(parity.iter().cloned().map(Some))
                .collect();
            shards[lost] = None;
            rs.reconstruct_data(&mut shards).unwrap();
            assert_eq!(shards[lost].as_deref(), Some(&data[lost][..]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// MDS property: any erasure pattern with at most `m` losses recovers.
        #[test]
        fn prop_any_erasure_pattern_within_parity_recovers(
            k in 2usize..8,
            m in 1usize..4,
            len in 1usize..128,
            seed: u8,
            pattern in proptest::collection::vec(any::<bool>(), 0..12),
        ) {
            let rs = ReedSolomon::new(k, m).unwrap();
            let data = sample_data(k, len, seed);
            let all = rs.encode_all(&data).unwrap();
            let total = k + m;
            let mut shards: Vec<Option<Vec<u8>>> = all.iter().cloned().map(Some).collect();
            let mut erased = 0;
            for (i, kill) in pattern.iter().enumerate() {
                if i < total && *kill && erased < m {
                    shards[i] = None;
                    erased += 1;
                }
            }
            rs.reconstruct(&mut shards).unwrap();
            for (i, orig) in all.iter().enumerate() {
                prop_assert_eq!(shards[i].as_deref(), Some(&orig[..]));
            }
        }

        /// Roundtrip over *random* payload bytes: for arbitrary `k` data
        /// shards and `r` parity shards, dropping any ≤ `r` shards (chosen by
        /// a random erasure pattern) reconstructs the original payload
        /// bit-exactly.
        #[test]
        fn prop_random_payload_roundtrips_bit_exactly(
            k in 1usize..10,
            r in 1usize..5,
            len in 1usize..96,
            payload in proptest::collection::vec(any::<u8>(), 1..960),
            picks in proptest::collection::vec(any::<u64>(), 0..8),
        ) {
            let rs = ReedSolomon::new(k, r).unwrap();
            // Shape the arbitrary payload into k equal-length shards.
            let data: Vec<Vec<u8>> = (0..k)
                .map(|i| (0..len).map(|j| payload[(i * len + j) % payload.len()]).collect())
                .collect();
            let all = rs.encode_all(&data).unwrap();
            let mut shards: Vec<Option<Vec<u8>>> = all.iter().cloned().map(Some).collect();
            // Drop up to r distinct shards anywhere in the batch.
            for pick in picks.iter().take(r) {
                shards[(*pick as usize) % (k + r)] = None;
            }
            rs.reconstruct(&mut shards).unwrap();
            for (i, orig) in all.iter().enumerate() {
                prop_assert_eq!(shards[i].as_deref(), Some(&orig[..]), "shard {}", i);
            }
            // And the reconstructed set verifies as consistent.
            let full: Vec<Vec<u8>> = shards.into_iter().map(|s| s.unwrap()).collect();
            prop_assert!(rs.verify(&full).unwrap());
        }

        /// Parity is a pure function of the data: re-encoding reconstructed
        /// data yields the original parity shards.
        #[test]
        fn prop_reencoding_reconstructed_data_reproduces_parity(
            k in 2usize..8,
            r in 1usize..4,
            len in 1usize..64,
            seed: u8,
        ) {
            let rs = ReedSolomon::new(k, r).unwrap();
            let data = sample_data(k, len, seed);
            let parity = rs.encode(&data).unwrap();
            // Drop the first data shard, rebuild it, re-encode.
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .map(Some)
                .chain(parity.iter().cloned().map(Some))
                .collect();
            shards[0] = None;
            rs.reconstruct_data(&mut shards).unwrap();
            let rebuilt: Vec<Vec<u8>> = shards[..k].iter().map(|s| s.clone().unwrap()).collect();
            prop_assert_eq!(rs.encode(&rebuilt).unwrap(), parity);
        }

        /// In-place decode round-trips against the in-place encode: for any
        /// shape and random payload, `encode_into` followed by ≤ r random
        /// drops and `decode_into` restores the data region bit-exactly —
        /// even when the dropped shards are scribbled over first.
        #[test]
        fn prop_decode_into_roundtrips_encode_into(
            k in 1usize..10,
            r in 1usize..5,
            len in 1usize..96,
            payload in proptest::collection::vec(any::<u8>(), 1..960),
            picks in proptest::collection::vec(any::<u64>(), 0..8),
        ) {
            use crate::shards::ShardSet;
            let rs = ReedSolomon::new(k, r).unwrap();
            let total = k + r;
            let mut set = ShardSet::new(k, r, len);
            for i in 0..k {
                let shard: Vec<u8> =
                    (0..len).map(|j| payload[(i * len + j) % payload.len()]).collect();
                set.write_data(i, &shard);
            }
            rs.encode_into(&mut set).unwrap();
            let original: Vec<Vec<u8>> = (0..total).map(|i| set.shard(i).to_vec()).collect();

            // Drop up to r distinct shards anywhere in the batch, scribbling
            // over the dropped bytes so stale content cannot pass the check.
            let mut present = vec![true; total];
            for pick in picks.iter().take(r) {
                present[(*pick as usize) % total] = false;
            }
            for (i, &have) in present.iter().enumerate().take(k) {
                if !have {
                    set.data_mut(i).fill(0xAA);
                }
            }
            rs.decode_into(&mut set, &present).unwrap();
            for (d, orig) in original.iter().take(k).enumerate() {
                prop_assert_eq!(set.shard(d), &orig[..], "data shard {}", d);
            }
            // Present parity shards were never touched.
            for p in k..total {
                if present[p] {
                    prop_assert_eq!(set.shard(p), &original[p][..], "parity shard {}", p);
                }
            }
            // With the data region complete, re-encoding in place restores
            // any dropped parity to the original bytes.
            rs.encode_into(&mut set).unwrap();
            for (i, orig) in original.iter().enumerate() {
                prop_assert_eq!(set.shard(i), &orig[..], "shard {} after re-encode", i);
            }
        }

        /// Cooperative-recovery shape: one coded packet plus k-1 of the data
        /// packets always rebuilds the single missing data packet.
        #[test]
        fn prop_one_coded_plus_k_minus_one_data_recovers(
            k in 2usize..10,
            lost in 0usize..10,
            len in 1usize..64,
            seed: u8,
        ) {
            let lost = lost % k;
            let rs = ReedSolomon::new(k, 2).unwrap();
            let data = sample_data(k, len, seed);
            let parity = rs.encode(&data).unwrap();
            let mut shards: Vec<Option<Vec<u8>>> = vec![None; k + 2];
            for (i, d) in data.iter().enumerate() {
                if i != lost {
                    shards[i] = Some(d.clone());
                }
            }
            // Only the first coded packet is available at DC2.
            shards[k] = Some(parity[0].clone());
            rs.reconstruct_data(&mut shards).unwrap();
            prop_assert_eq!(shards[lost].as_deref(), Some(&data[lost][..]));
        }
    }
}
