//! Packet-oriented convenience layer on top of the shard codec.
//!
//! CR-WAN codes *packets of different lengths* from different application
//! streams together (Figure 5 of the paper).  Reed–Solomon requires equal
//! shard lengths, so this module handles the framing: each packet is prefixed
//! with its 16-bit length and padded with zeros up to the batch's maximum,
//! and the parity shards carry enough information to recover any packet once
//! `k` shards of the batch are available again.
//!
//! [`BatchCodec`] is the long-lived entry point for a relay's coding queue:
//! it caches one [`ReedSolomon`] per `(k, m)` shape (codec construction
//! inverts a `k × k` matrix — far too expensive per batch) and recycles slab
//! storage through a [`ShardArena`], so steady-state encoding allocates
//! nothing and parity leaves as zero-copy [`Bytes`] views.  The free
//! functions [`encode_packets`] / [`decode_packets`] remain as one-shot
//! conveniences with the original `Vec`-based signatures.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use bytes::Bytes;

use crate::rs::{ReedSolomon, RsError};
use crate::shards::ShardArena;

/// The result of encoding one batch of packets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodedBatch {
    /// Number of data packets in the batch (`k`).
    pub data_count: usize,
    /// Length of every padded shard, including the 2-byte length prefix.
    pub shard_len: usize,
    /// The parity shards (`m` of them).
    pub parity: Vec<Vec<u8>>,
}

impl CodedBatch {
    /// Total bytes of parity produced (the cloud-path overhead of the batch).
    pub fn parity_bytes(&self) -> usize {
        self.parity.iter().map(|p| p.len()).sum()
    }
}

/// Pads a packet into shard form: 2-byte big-endian length prefix followed by
/// the payload and zero padding up to `shard_len`.
pub fn pad_packet(packet: &[u8], shard_len: usize) -> Vec<u8> {
    assert!(packet.len() + 2 <= shard_len, "packet longer than shard");
    assert!(
        packet.len() <= u16::MAX as usize,
        "packet too large for length prefix"
    );
    let mut shard = Vec::with_capacity(shard_len);
    shard.extend_from_slice(&(packet.len() as u16).to_be_bytes());
    shard.extend_from_slice(packet);
    shard.resize(shard_len, 0);
    shard
}

/// Strips the length prefix and padding from a recovered shard.
pub fn unpad_packet(shard: &[u8]) -> Option<Vec<u8>> {
    if shard.len() < 2 {
        return None;
    }
    let len = u16::from_be_bytes([shard[0], shard[1]]) as usize;
    if shard.len() < 2 + len {
        return None;
    }
    Some(shard[2..2 + len].to_vec())
}

/// The shard length needed to hold every packet in a batch.
pub fn shard_len_for(packets: &[&[u8]]) -> usize {
    2 + packets.iter().map(|p| p.len()).max().unwrap_or(0)
}

/// The result of batch-encoding one set of packets: parity shards as
/// zero-copy views into a shared slab (see [`BatchCodec::encode_batch`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodedBatchView {
    /// Number of data packets in the batch (`k`).
    pub data_count: usize,
    /// Length of every padded shard, including the 2-byte length prefix.
    pub shard_len: usize,
    /// The parity shards (`m` of them), sharing one slab allocation.
    pub parity: Vec<Bytes>,
}

impl CodedBatchView {
    /// Total bytes of parity produced (the cloud-path overhead of the batch).
    pub fn parity_bytes(&self) -> usize {
        self.parity.iter().map(|p| p.len()).sum()
    }
}

/// A reusable packet codec: cached [`ReedSolomon`] instances per batch shape
/// plus recycled slab storage.
///
/// Keep one per encoding site (e.g. per DC1 node) and feed it every batch:
///
/// ```
/// use erasure::packets::BatchCodec;
///
/// let mut codec = BatchCodec::new();
/// let packets: Vec<&[u8]> = vec![b"short", b"a somewhat longer packet"];
/// let batch = codec.encode_batch(&packets, 1).unwrap();
/// assert_eq!(batch.data_count, 2);
///
/// // Recover packet 0 from packet 1 plus the parity shard.
/// let recovered = codec
///     .decode_batch(2, batch.shard_len, &[(1, packets[1])], &[(0, &batch.parity[0])])
///     .unwrap();
/// assert_eq!(recovered[0], b"short");
/// ```
#[derive(Clone, Debug, Default)]
pub struct BatchCodec {
    arena: ShardArena,
    codecs: BTreeMap<(usize, usize), ReedSolomon>,
}

impl BatchCodec {
    /// Creates an empty codec (no cached shapes, no pooled slabs).
    pub fn new() -> Self {
        BatchCodec::default()
    }

    /// The cached codec for `(data_shards, parity_shards)`, constructing and
    /// memoising it on first use.
    pub fn codec(
        &mut self,
        data_shards: usize,
        parity_shards: usize,
    ) -> Result<&ReedSolomon, RsError> {
        match self.codecs.entry((data_shards, parity_shards)) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(v) => Ok(v.insert(ReedSolomon::new(data_shards, parity_shards)?)),
        }
    }

    /// Encodes a batch of (possibly unequal-length) packets into
    /// `parity_count` coded shards.
    ///
    /// This is the allocation-free hot path: packets are padded straight into
    /// a recycled slab, parity is computed in place, and the returned views
    /// share that slab.  Once every view is dropped the slab is reused by a
    /// later batch.
    pub fn encode_batch(
        &mut self,
        packets: &[&[u8]],
        parity_count: usize,
    ) -> Result<CodedBatchView, RsError> {
        let k = packets.len();
        // Populate the cache up front; the codec is indexed again after the
        // arena lease because both borrow `self` mutably.
        self.codec(k, parity_count)?;
        let shard_len = shard_len_for(packets);
        let mut set = self.arena.lease(k, parity_count, shard_len);
        for (i, packet) in packets.iter().enumerate() {
            assert!(
                packet.len() <= u16::MAX as usize,
                "packet too large for length prefix"
            );
            let shard = set.data_mut(i);
            shard[..2].copy_from_slice(&(packet.len() as u16).to_be_bytes());
            shard[2..2 + packet.len()].copy_from_slice(packet);
            shard[2 + packet.len()..].fill(0);
        }
        self.codecs[&(k, parity_count)].encode_into(&mut set)?;
        let parity: Vec<Bytes> = (0..parity_count).map(|i| set.parity_bytes(i)).collect();
        self.arena.reclaim(set);
        Ok(CodedBatchView {
            data_count: k,
            shard_len,
            parity,
        })
    }

    /// Reconstructs the original packets of a batch, like [`decode_packets`]
    /// but reusing this codec's cached [`ReedSolomon`] instances.
    pub fn decode_batch(
        &mut self,
        data_count: usize,
        shard_len: usize,
        available_data: &[(usize, &[u8])],
        available_parity: &[(usize, &[u8])],
    ) -> Result<Vec<Vec<u8>>, RsError> {
        let parity_count = parity_count_for(available_parity);
        let rs = self.codec(data_count, parity_count)?;
        decode_with(rs, data_count, shard_len, available_data, available_parity)
    }
}

/// Encodes a batch of (possibly unequal-length) packets into `parity_count`
/// coded packets.
///
/// One-shot convenience around [`BatchCodec::encode_batch`]; constructs a
/// codec per call and returns owned parity vectors.  Long-lived encoders
/// should hold a [`BatchCodec`] instead.
pub fn encode_packets(packets: &[&[u8]], parity_count: usize) -> Result<CodedBatch, RsError> {
    let mut codec = BatchCodec::new();
    let view = codec.encode_batch(packets, parity_count)?;
    Ok(CodedBatch {
        data_count: view.data_count,
        shard_len: view.shard_len,
        parity: view.parity.iter().map(|p| p.to_vec()).collect(),
    })
}

/// The codec shape implied by the parity shards at hand: `parity_count` only
/// needs to be large enough to address the highest parity index held.
fn parity_count_for(available_parity: &[(usize, &[u8])]) -> usize {
    available_parity
        .iter()
        .map(|(i, _)| i + 1)
        .max()
        .unwrap_or(0)
        .max(1)
}

/// Shared reconstruction core of [`decode_packets`] and
/// [`BatchCodec::decode_batch`].
fn decode_with(
    rs: &ReedSolomon,
    data_count: usize,
    shard_len: usize,
    available_data: &[(usize, &[u8])],
    available_parity: &[(usize, &[u8])],
) -> Result<Vec<Vec<u8>>, RsError> {
    let parity_count = rs.parity_shards();
    let mut shards: Vec<Option<Vec<u8>>> = vec![None; data_count + parity_count];
    for (idx, pkt) in available_data {
        if *idx < data_count && pkt.len() + 2 <= shard_len {
            shards[*idx] = Some(pad_packet(pkt, shard_len));
        }
    }
    for (idx, shard) in available_parity {
        if *idx < parity_count && shard.len() == shard_len {
            shards[data_count + *idx] = Some(shard.to_vec());
        }
    }
    rs.reconstruct_data(&mut shards)?;
    let mut out = Vec::with_capacity(data_count);
    for shard in shards.into_iter().take(data_count) {
        let shard = shard.expect("data shard present after reconstruct");
        out.push(unpad_packet(&shard).ok_or(RsError::ShardLengthMismatch)?);
    }
    Ok(out)
}

/// Reconstructs the original packets of a batch.
///
/// * `data_count` / `shard_len` come from the [`CodedBatch`].
/// * `available_data` maps data-shard index → original packet bytes.
/// * `available_parity` maps parity-shard index → parity shard bytes.
///
/// Returns the full list of `data_count` packets on success.
pub fn decode_packets(
    data_count: usize,
    shard_len: usize,
    available_data: &[(usize, &[u8])],
    available_parity: &[(usize, &[u8])],
) -> Result<Vec<Vec<u8>>, RsError> {
    let parity_count = parity_count_for(available_parity);
    let rs = ReedSolomon::new(data_count, parity_count)?;
    decode_with(&rs, data_count, shard_len, available_data, available_parity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pad_unpad_round_trip() {
        let pkt = b"hello, overlay".to_vec();
        let shard = pad_packet(&pkt, 64);
        assert_eq!(shard.len(), 64);
        assert_eq!(unpad_packet(&shard), Some(pkt));
    }

    #[test]
    fn unpad_rejects_truncated_shards() {
        assert_eq!(unpad_packet(&[0x00]), None);
        // Length prefix says 10 bytes but only 3 are present.
        assert_eq!(unpad_packet(&[0x00, 0x0A, 1, 2, 3]), None);
    }

    #[test]
    fn unequal_length_packets_encode_and_recover() {
        let packets: Vec<Vec<u8>> = vec![
            b"short".to_vec(),
            vec![7u8; 900],
            b"medium-length packet".to_vec(),
            vec![3u8; 300],
        ];
        let refs: Vec<&[u8]> = packets.iter().map(|p| p.as_slice()).collect();
        let batch = encode_packets(&refs, 2).unwrap();
        assert_eq!(batch.data_count, 4);
        assert_eq!(batch.shard_len, 902);

        // Packet 1 (the longest) is lost; recover it from the others plus one
        // coded packet.
        let available_data: Vec<(usize, &[u8])> = vec![
            (0, packets[0].as_slice()),
            (2, packets[2].as_slice()),
            (3, packets[3].as_slice()),
        ];
        let available_parity: Vec<(usize, &[u8])> = vec![(0, batch.parity[0].as_slice())];
        let recovered =
            decode_packets(4, batch.shard_len, &available_data, &available_parity).unwrap();
        assert_eq!(recovered[1], packets[1]);
        assert_eq!(recovered[0], packets[0]);
    }

    #[test]
    fn recovery_with_second_parity_shard_only() {
        let packets: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8 + 1; 100 + i * 10]).collect();
        let refs: Vec<&[u8]> = packets.iter().map(|p| p.as_slice()).collect();
        let batch = encode_packets(&refs, 2).unwrap();
        // Lose packet 5; only the *second* coded packet reached DC2.
        let available_data: Vec<(usize, &[u8])> =
            (0..5).map(|i| (i, packets[i].as_slice())).collect();
        let available_parity: Vec<(usize, &[u8])> = vec![(1, batch.parity[1].as_slice())];
        let recovered =
            decode_packets(6, batch.shard_len, &available_data, &available_parity).unwrap();
        assert_eq!(recovered[5], packets[5]);
    }

    #[test]
    fn not_enough_shards_errors() {
        let packets: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 50]).collect();
        let refs: Vec<&[u8]> = packets.iter().map(|p| p.as_slice()).collect();
        let batch = encode_packets(&refs, 1).unwrap();
        // Two data packets missing but only one coded packet exists.
        let available_data: Vec<(usize, &[u8])> =
            vec![(0, packets[0].as_slice()), (1, packets[1].as_slice())];
        let available_parity: Vec<(usize, &[u8])> = vec![(0, batch.parity[0].as_slice())];
        let err =
            decode_packets(4, batch.shard_len, &available_data, &available_parity).unwrap_err();
        assert!(matches!(err, RsError::NotEnoughShards { .. }));
    }

    #[test]
    fn batch_codec_matches_one_shot_encoding() {
        let packets: Vec<Vec<u8>> = vec![b"alpha".to_vec(), vec![42u8; 777], b"bravo!".to_vec()];
        let refs: Vec<&[u8]> = packets.iter().map(|p| p.as_slice()).collect();
        let mut codec = BatchCodec::new();
        let view = codec.encode_batch(&refs, 2).unwrap();
        let one_shot = encode_packets(&refs, 2).unwrap();
        assert_eq!(view.data_count, one_shot.data_count);
        assert_eq!(view.shard_len, one_shot.shard_len);
        assert_eq!(view.parity.len(), one_shot.parity.len());
        for (a, b) in view.parity.iter().zip(&one_shot.parity) {
            assert_eq!(&a[..], &b[..]);
        }
        assert_eq!(view.parity_bytes(), one_shot.parity_bytes());
    }

    #[test]
    fn batch_codec_reuses_codecs_and_slabs() {
        let mut codec = BatchCodec::new();
        for round in 0..5u8 {
            let packets: Vec<Vec<u8>> = (0..4).map(|i| vec![round ^ i as u8; 100]).collect();
            let refs: Vec<&[u8]> = packets.iter().map(|p| p.as_slice()).collect();
            let view = codec.encode_batch(&refs, 2).unwrap();
            drop(view); // release the slab before the next batch
        }
        assert_eq!(codec.codecs.len(), 1, "one cached codec per (k, m) shape");
        assert_eq!(
            codec.arena.pooled(),
            1,
            "steady state reuses a single slab across batches"
        );
    }

    #[test]
    fn batch_codec_parity_views_stay_valid_after_recycling() {
        let mut codec = BatchCodec::new();
        let packets: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8 + 1; 50]).collect();
        let refs: Vec<&[u8]> = packets.iter().map(|p| p.as_slice()).collect();
        let first = codec.encode_batch(&refs, 1).unwrap();
        let snapshot = first.parity[0].to_vec();
        // Encode more batches while `first` is alive: its slab must not be
        // reused, so the view's contents cannot change underneath it.
        for _ in 0..3 {
            let _ = codec.encode_batch(&refs, 1).unwrap();
        }
        assert_eq!(&first.parity[0][..], &snapshot[..]);
    }

    #[test]
    fn batch_codec_decode_roundtrip() {
        let packets: Vec<Vec<u8>> = vec![vec![9u8; 33], vec![8u8; 900], vec![7u8; 1]];
        let refs: Vec<&[u8]> = packets.iter().map(|p| p.as_slice()).collect();
        let mut codec = BatchCodec::new();
        let batch = codec.encode_batch(&refs, 2).unwrap();
        let available_data: Vec<(usize, &[u8])> =
            vec![(0, packets[0].as_slice()), (2, packets[2].as_slice())];
        let available_parity: Vec<(usize, &[u8])> = vec![(1, batch.parity[1].as_ref())];
        let recovered = codec
            .decode_batch(3, batch.shard_len, &available_data, &available_parity)
            .unwrap();
        assert_eq!(recovered, packets);
    }

    #[test]
    fn parity_bytes_accounting() {
        let packets: Vec<Vec<u8>> = (0..5).map(|_| vec![0u8; 510]).collect();
        let refs: Vec<&[u8]> = packets.iter().map(|p| p.as_slice()).collect();
        let batch = encode_packets(&refs, 2).unwrap();
        assert_eq!(batch.parity_bytes(), 2 * 512);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_any_single_packet_loss_recovers(
            sizes in proptest::collection::vec(1usize..200, 2..8),
            lost_idx in 0usize..8,
            fill: u8,
        ) {
            let k = sizes.len();
            let lost = lost_idx % k;
            let packets: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| vec![fill.wrapping_add(i as u8); s])
                .collect();
            let refs: Vec<&[u8]> = packets.iter().map(|p| p.as_slice()).collect();
            let batch = encode_packets(&refs, 2).unwrap();
            let available_data: Vec<(usize, &[u8])> = packets
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != lost)
                .map(|(i, p)| (i, p.as_slice()))
                .collect();
            let available_parity: Vec<(usize, &[u8])> = vec![(0, batch.parity[0].as_slice())];
            let recovered =
                decode_packets(k, batch.shard_len, &available_data, &available_parity).unwrap();
            prop_assert_eq!(&recovered[lost], &packets[lost]);
        }
    }
}
