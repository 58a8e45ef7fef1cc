//! Turning ready batches into coded packets, and decoding them back.
//!
//! The encoder takes a [`ReadyBatch`] produced by the coding plan and emits
//! the configured number of parity packets using the systematic Reed–Solomon
//! codec from the `erasure` crate.  Each coded packet carries the member list
//! (flow, sequence number, receiver, payload length) so that DC2 can later
//! run cooperative recovery without any other state.

use bytes::Bytes;
use netsim::Time;

use erasure::packets::{shard_len_for, BatchCodec};
use erasure::rs::RsError;
use erasure::shards::ShardArena;

use crate::coding::params::CodingParams;
use crate::coding::queues::{QueuedPacket, ReadyBatch};
use crate::packet::{BatchId, BatchMember, CodedPacket, CodingKind, DataPacket, FlowId, SeqNo};

/// Counters for the encoder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncoderStats {
    /// Batches encoded.
    pub batches: u64,
    /// Coded (parity) packets produced.
    pub coded_packets: u64,
    /// Total data bytes that entered the encoder.
    pub data_bytes: u64,
    /// Total coded bytes produced (the cloud-path overhead).
    pub coded_bytes: u64,
}

impl EncoderStats {
    /// Byte overhead ratio: coded bytes / data bytes.
    pub fn overhead(&self) -> f64 {
        if self.data_bytes == 0 {
            0.0
        } else {
            self.coded_bytes as f64 / self.data_bytes as f64
        }
    }
}

/// The batch encoder living at DC1.
///
/// Holds a [`BatchCodec`] so that codec matrices are built once per batch
/// shape, and codes every batch inside one recycled [`ShardArena`] slab;
/// the emitted [`CodedPacket`] shards are views of one buffer per batch
/// that holds the parity and nothing else.
#[derive(Clone, Debug)]
pub struct BatchEncoder {
    params: CodingParams,
    codec: BatchCodec,
    arena: ShardArena,
    next_batch: u64,
    stats: EncoderStats,
}

impl BatchEncoder {
    /// Creates an encoder.
    pub fn new(params: CodingParams) -> Self {
        BatchEncoder {
            params,
            codec: BatchCodec::new(),
            arena: ShardArena::new(),
            next_batch: 0,
            stats: EncoderStats::default(),
        }
    }

    /// Counters gathered so far.
    pub fn stats(&self) -> EncoderStats {
        self.stats
    }

    /// Encodes a batch into its parity packets.  Single-member batches are
    /// allowed (they arise when a queue timer expires before any companion
    /// flow contributed a packet); their parity shard is effectively a cloud
    /// copy of the lone packet.
    pub fn encode(&mut self, batch: &ReadyBatch, now: Time) -> Vec<CodedPacket> {
        if batch.packets.is_empty() {
            return vec![];
        }
        let parity_count = match batch.kind {
            CodingKind::InStream => self.params.in_stream_parity,
            CodingKind::CrossStream => self.params.cross_parity,
        };
        if parity_count == 0 {
            return vec![];
        }

        let k = batch.packets.len();
        let payload_len = |p: &QueuedPacket| p.packet.payload.len();
        let shard_len = 2 + batch.packets.iter().map(payload_len).max().unwrap_or(0);
        let Ok(rs) = self.codec.codec(k, parity_count) else {
            return vec![];
        };
        // DC2 holds the parity for seconds, so it leaves in a buffer of its
        // own; the slab with the padded data beside it is reused at once.
        let mut set = self.arena.lease(k, parity_count, shard_len);
        for (i, p) in batch.packets.iter().enumerate() {
            pad_into(set.data_mut(i), &p.packet.payload);
        }
        let coded = rs.encode_into(&mut set);
        let parity = Bytes::from_owner((&*set.split_data_parity().1).into());
        self.arena.reclaim(set);
        if coded.is_err() {
            return vec![];
        }

        let members: Vec<BatchMember> = batch
            .packets
            .iter()
            .map(|p| BatchMember {
                flow: p.packet.flow,
                seq: p.packet.seq,
                receiver: p.receiver,
                payload_len: p.packet.payload.len(),
            })
            .collect();

        let batch_id = BatchId(self.next_batch);
        self.next_batch += 1;
        self.stats.batches += 1;
        self.stats.data_bytes += batch.packets.iter().map(payload_len).sum::<usize>() as u64;

        (0..parity_count)
            .map(|idx| {
                self.stats.coded_packets += 1;
                self.stats.coded_bytes += shard_len as u64;
                CodedPacket {
                    batch: batch_id,
                    parity_index: idx,
                    parity_count,
                    members: members.clone(),
                    shard_len,
                    shard: parity.slice(idx * shard_len..(idx + 1) * shard_len),
                    kind: batch.kind,
                    created_at: now,
                }
            })
            .collect()
    }
}

/// The batch decoder living at DC2: the counterpart of [`BatchEncoder`].
///
/// Holds a [`BatchCodec`] so a codec matrix is built once per batch shape,
/// and a [`ShardArena`] so that a decode runs inside one recycled slab
/// instead of a fresh buffer per shard.
#[derive(Clone, Debug, Default)]
pub struct BatchDecoder {
    codec: BatchCodec,
    arena: ShardArena,
}

impl BatchDecoder {
    /// Creates a decoder (no cached shapes, no pooled slabs).
    pub fn new() -> Self {
        BatchDecoder::default()
    }

    /// Attempts to rebuild member `wanted` of a batch from the coded packets
    /// DC2 holds and the data packets collected from receivers.
    ///
    /// Accepts and rejects exactly what the `erasure` crate's one-shot
    /// packet decoder (the oracle of this module's tests) does: collected
    /// packets that are not members or do not fit a shard, and parity of the
    /// wrong length, are ignored; too few shards, or a rebuilt shard with a
    /// bad length prefix, is an error.  Returns `None` when `wanted` is not
    /// a member.  (A zero `shard_len`, which no encoder produces, is always
    /// [`RsError::EmptyShard`].)
    pub fn decode_batch(
        &mut self,
        coded: &[CodedPacket],
        collected: &[DataPacket],
        wanted: (FlowId, SeqNo),
        now: Time,
    ) -> Result<Option<DataPacket>, RsError> {
        let first = coded.first().ok_or(RsError::NotEnoughShards {
            needed: 1,
            present: 0,
        })?;
        let (members, shard_len) = (&first.members, first.shard_len);
        let k = members.len();
        // The codec only has to address the highest parity index held.
        let m = coded.iter().map(|c| c.parity_index + 1).max().unwrap_or(1);
        let rs = self.codec.codec(k, m)?;
        if shard_len == 0 {
            return Err(RsError::EmptyShard);
        }

        // Pad the shards at hand straight into a leased (zeroed) slab.
        let mut set = self.arena.lease(k, m, shard_len);
        let mut present = [false; 255];
        for (slot, member) in members.iter().enumerate() {
            let held = collected
                .iter()
                .find(|p| p.flow == member.flow && p.seq == member.seq)
                .filter(|p| p.payload.len() + 2 <= shard_len);
            if let Some(p) = held {
                pad_into(set.data_mut(slot), &p.payload);
                present[slot] = true;
            }
        }
        let (_, parity) = set.split_data_parity();
        for c in coded.iter().filter(|c| c.shard.len() == shard_len) {
            parity[c.parity_index * shard_len..][..shard_len].copy_from_slice(&c.shard);
            present[k + c.parity_index] = true;
        }

        let rebuilt = rs.decode_into(&mut set, &present[..k + m]);
        let recovered = rebuilt.and_then(|()| {
            let mut out = None;
            for (slot, member) in members.iter().enumerate() {
                let payload = unpadded(set.shard(slot))?;
                if out.is_none() && (member.flow, member.seq) == wanted {
                    out = Some(DataPacket::new(
                        member.flow,
                        member.seq,
                        Bytes::from_owner(payload.into()),
                        now,
                    ));
                }
            }
            Ok(out)
        });
        self.arena.reclaim(set);
        recovered
    }
}

/// Writes a packet into a zeroed shard: 2-byte big-endian length, payload.
fn pad_into(shard: &mut [u8], payload: &[u8]) {
    let len = u16::try_from(payload.len()).expect("packet too large for length prefix");
    shard[..2].copy_from_slice(&len.to_be_bytes());
    shard[2..2 + payload.len()].copy_from_slice(payload);
}

/// The payload of a padded shard: what its 2-byte length prefix delimits.
fn unpadded(shard: &[u8]) -> Result<&[u8], RsError> {
    match shard {
        [hi, lo, rest @ ..] => rest.get(..u16::from_be_bytes([*hi, *lo]) as usize),
        _ => None,
    }
    .ok_or(RsError::ShardLengthMismatch)
}

/// The shard length DC1 will use for a set of payloads (exposed for tests and
/// capacity planning).
pub fn batch_shard_len(payloads: &[&[u8]]) -> usize {
    shard_len_for(payloads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::queues::QueuedPacket;
    use netsim::NodeId;
    use proptest::prelude::*;

    fn batch(kind: CodingKind, sizes: &[(u32, u64, usize)]) -> ReadyBatch {
        ReadyBatch {
            kind,
            dc2: NodeId(50),
            packets: sizes
                .iter()
                .map(|(flow, seq, size)| QueuedPacket {
                    packet: DataPacket::new(
                        FlowId(*flow),
                        *seq,
                        Bytes::from(vec![(*flow as u8) ^ (*seq as u8); *size]),
                        Time::ZERO,
                    ),
                    receiver: NodeId(200 + *flow as usize),
                })
                .collect(),
        }
    }

    fn default_encoder() -> BatchEncoder {
        BatchEncoder::new(CodingParams {
            cross_parity: 2,
            ..CodingParams::planetlab_defaults()
        })
    }

    #[test]
    fn cross_batch_produces_two_parity_packets() {
        let mut enc = default_encoder();
        let b = batch(
            CodingKind::CrossStream,
            &[(0, 1, 100), (1, 5, 200), (2, 9, 150), (3, 2, 120)],
        );
        let coded = enc.encode(&b, Time::from_millis(1));
        assert_eq!(coded.len(), 2);
        assert_eq!(coded[0].parity_index, 0);
        assert_eq!(coded[1].parity_index, 1);
        assert_eq!(coded[0].members.len(), 4);
        assert_eq!(coded[0].shard_len, 202);
        assert!(coded[0].covers(FlowId(1), 5));
        assert_eq!(enc.stats().batches, 1);
        assert_eq!(enc.stats().coded_packets, 2);
        assert!(enc.stats().overhead() > 0.0);
    }

    #[test]
    fn in_stream_batch_uses_in_stream_parity() {
        let mut enc = default_encoder();
        let b = batch(
            CodingKind::InStream,
            &[(7, 0, 90), (7, 1, 90), (7, 2, 90), (7, 3, 90), (7, 4, 90)],
        );
        let coded = enc.encode(&b, Time::ZERO);
        assert_eq!(coded.len(), 1);
        assert_eq!(coded[0].kind, CodingKind::InStream);
    }

    #[test]
    fn single_member_batches_become_cloud_copies() {
        let mut enc = default_encoder();
        let b = batch(CodingKind::CrossStream, &[(0, 1, 100)]);
        let coded = enc.encode(&b, Time::ZERO);
        assert_eq!(coded.len(), 2);
        assert_eq!(coded[0].members.len(), 1);
        // The lone member is recoverable from the parity shard alone.
        let recovered = BatchDecoder::new()
            .decode_batch(&coded[..1], &[], (FlowId(0), 1), Time::ZERO)
            .unwrap()
            .unwrap();
        assert_eq!(recovered.payload, b.packets[0].packet.payload);
    }

    #[test]
    fn parity_is_what_the_one_shot_codec_produces() {
        // Unequal lengths, an empty payload, two batch shapes through one
        // encoder: every shard equals `erasure::packets::encode_packets`'s,
        // and the shards of a batch are windows of one parity-only buffer.
        let mut enc = default_encoder();
        for sizes in [&[100usize, 0, 1400, 33][..], &[7, 900][..], &[64][..]] {
            let members: Vec<(u32, u64, usize)> = sizes
                .iter()
                .enumerate()
                .map(|(i, size)| (i as u32, 3, *size))
                .collect();
            let b = batch(CodingKind::CrossStream, &members);
            let payloads: Vec<&[u8]> = b.packets.iter().map(|p| &p.packet.payload[..]).collect();
            let expected = erasure::packets::encode_packets(&payloads, 2).unwrap();
            let coded = enc.encode(&b, Time::ZERO);
            assert_eq!(coded.len(), 2);
            for (c, parity) in coded.iter().zip(&expected.parity) {
                assert_eq!(c.shard_len, expected.shard_len);
                assert_eq!(c.shard_len, batch_shard_len(&payloads));
                assert_eq!(&c.shard[..], &parity[..]);
            }
        }
        assert_eq!(enc.stats().coded_bytes, 2 * (1402 + 902 + 66));
        assert_eq!(enc.stats().data_bytes, 100 + 1400 + 33 + 7 + 900 + 64);
    }

    #[test]
    fn empty_batches_are_skipped() {
        let mut enc = default_encoder();
        let b = ReadyBatch {
            kind: CodingKind::CrossStream,
            dc2: NodeId(50),
            packets: vec![],
        };
        assert!(enc.encode(&b, Time::ZERO).is_empty());
        assert_eq!(enc.stats().batches, 0);
    }

    #[test]
    fn decode_recovers_a_missing_member_from_k_minus_one_plus_parity() {
        let mut enc = default_encoder();
        let b = batch(
            CodingKind::CrossStream,
            &[(0, 1, 100), (1, 5, 200), (2, 9, 150), (3, 2, 120)],
        );
        let coded = enc.encode(&b, Time::ZERO);

        // Flow 2's packet (seq 9) was lost on the Internet path; the other
        // three receivers supply their packets.
        let collected: Vec<DataPacket> = b
            .packets
            .iter()
            .filter(|p| p.packet.flow != FlowId(2))
            .map(|p| p.packet.clone())
            .collect();
        let recovered = BatchDecoder::new()
            .decode_batch(
                &coded[..1],
                &collected,
                (FlowId(2), 9),
                Time::from_millis(200),
            )
            .unwrap()
            .expect("flow 2's packet is a member");
        assert_eq!(recovered.flow, FlowId(2));
        assert_eq!(recovered.seq, 9);
        assert_eq!(recovered.sent_at, Time::from_millis(200));
        assert_eq!(recovered.payload, b.packets[2].packet.payload);
    }

    #[test]
    fn decode_with_straggler_needs_second_parity_packet() {
        let mut enc = default_encoder();
        let b = batch(
            CodingKind::CrossStream,
            &[(0, 1, 100), (1, 5, 100), (2, 9, 100), (3, 2, 100)],
        );
        let coded = enc.encode(&b, Time::ZERO);
        // Flow 2 lost its packet AND flow 3 is a straggler that never
        // responded: only two data packets were collected.
        let collected: Vec<DataPacket> = b
            .packets
            .iter()
            .filter(|p| p.packet.flow == FlowId(0) || p.packet.flow == FlowId(1))
            .map(|p| p.packet.clone())
            .collect();

        // With one coded packet recovery is impossible...
        let mut decoder = BatchDecoder::new();
        assert!(decoder
            .decode_batch(&coded[..1], &collected, (FlowId(2), 9), Time::ZERO)
            .is_err());

        // ...but the second cross-stream packet (straggler protection, §4.2)
        // makes it possible.
        let recovered = decoder
            .decode_batch(&coded[..2], &collected, (FlowId(2), 9), Time::ZERO)
            .unwrap()
            .unwrap();
        assert_eq!(recovered.payload, b.packets[2].packet.payload);
    }

    #[test]
    fn decode_ignores_unrelated_collected_packets() {
        let mut enc = default_encoder();
        let b = batch(
            CodingKind::CrossStream,
            &[(0, 1, 80), (1, 2, 80), (2, 3, 80)],
        );
        let coded = enc.encode(&b, Time::ZERO);
        let mut collected: Vec<DataPacket> = b
            .packets
            .iter()
            .filter(|p| p.packet.flow != FlowId(0))
            .map(|p| p.packet.clone())
            .collect();
        // A stray packet from a flow not in the batch must not confuse decode.
        collected.push(DataPacket::synthetic(FlowId(77), 1, 80, Time::ZERO));
        let recovered = BatchDecoder::new()
            .decode_batch(&coded, &collected, (FlowId(0), 1), Time::ZERO)
            .unwrap()
            .unwrap();
        assert_eq!(recovered.payload, b.packets[0].packet.payload);
    }

    /// The decode [`BatchDecoder::decode_batch`] replaced: member slots and
    /// parity indices handed to `erasure::packets::decode_packets`, which
    /// rebuilds every member into fresh buffers.
    fn decode_through_packets(
        coded: &[CodedPacket],
        collected: &[DataPacket],
        wanted: (FlowId, SeqNo),
    ) -> Result<Option<Vec<u8>>, RsError> {
        let first = &coded[0];
        let data: Vec<(usize, &[u8])> = first
            .members
            .iter()
            .enumerate()
            .filter_map(|(slot, m)| {
                let held = collected
                    .iter()
                    .find(|p| p.flow == m.flow && p.seq == m.seq)?;
                Some((slot, held.payload.as_ref()))
            })
            .collect();
        let parity: Vec<(usize, &[u8])> = coded
            .iter()
            .map(|c| (c.parity_index, c.shard.as_ref()))
            .collect();
        let rebuilt =
            erasure::packets::decode_packets(first.members.len(), first.shard_len, &data, &parity)?;
        let slot = first.members.iter().position(|m| (m.flow, m.seq) == wanted);
        Ok(slot.map(|slot| rebuilt[slot].clone()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn decode_batch_matches_decode_packets(
            sizes in proptest::collection::vec(0usize..=1400, 1..11),
            parity in 1usize..=2,
            collected_mask in 0u32..1024,
            held_mask in 1usize..4,
            wanted_slot in 0usize..11,
            oversize_slot in 0usize..22,
            fill: u8,
        ) {
            let k = sizes.len();
            let members: Vec<(u32, u64, usize)> = sizes
                .iter()
                .enumerate()
                .map(|(i, size)| (i as u32, 100 + i as u64, *size))
                .collect();
            let mut b = batch(CodingKind::CrossStream, &members);
            for (i, qp) in b.packets.iter_mut().enumerate() {
                let bytes: Vec<u8> = (0..sizes[i])
                    .map(|j| fill.wrapping_mul(i as u8 + 1).wrapping_add(j as u8))
                    .collect();
                qp.packet.payload = Bytes::from(bytes);
            }
            let mut enc = BatchEncoder::new(CodingParams {
                cross_parity: parity,
                ..CodingParams::planetlab_defaults()
            });
            let coded: Vec<CodedPacket> = enc
                .encode(&b, Time::ZERO)
                .into_iter()
                .filter(|c| held_mask & (1 << c.parity_index) != 0)
                .collect();
            if coded.is_empty() {
                // Only the second parity packet was asked for and m = 1.
                return;
            }

            // Receivers answer for a random subset of the members; one answer
            // may be a packet too long for the batch's shards, and a packet
            // of a flow outside the batch always tags along.
            let mut collected: Vec<DataPacket> = b
                .packets
                .iter()
                .enumerate()
                .filter(|(i, _)| collected_mask & (1 << i) != 0)
                .map(|(_, qp)| qp.packet.clone())
                .collect();
            if let Some(p) = collected.get_mut(oversize_slot) {
                p.payload = Bytes::from(vec![fill; coded[0].shard_len - 1]);
            }
            collected.push(DataPacket::synthetic(FlowId(77), 1, 80, Time::ZERO));

            // Slot k is no member: both sides must say so, not fail.
            let wanted = match members.get(wanted_slot % (k + 1)) {
                Some(&(flow, seq, _)) => (FlowId(flow), seq),
                None => (FlowId(99), 0),
            };
            let now = Time::from_millis(5);
            let got = BatchDecoder::new().decode_batch(&coded, &collected, wanted, now);
            let expected = decode_through_packets(&coded, &collected, wanted);
            match (got, expected) {
                (Ok(Some(packet)), Ok(Some(payload))) => {
                    prop_assert_eq!((packet.flow, packet.seq), wanted);
                    prop_assert_eq!(packet.sent_at, now);
                    prop_assert_eq!(&packet.payload[..], &payload[..]);
                }
                (got, expected) => {
                    prop_assert_eq!(got.map(|p| p.map(|p| p.payload.to_vec())), expected);
                }
            }
        }
    }

    #[test]
    fn one_decoder_serves_batches_of_different_shapes() {
        let mut enc = default_encoder();
        let mut decoder = BatchDecoder::new();
        for (round, k) in [4usize, 2, 6, 4].into_iter().enumerate() {
            let members: Vec<(u32, u64, usize)> = (0..k)
                .map(|i| (i as u32, round as u64, 50 + 100 * i))
                .collect();
            let b = batch(CodingKind::CrossStream, &members);
            let coded = enc.encode(&b, Time::ZERO);
            let collected: Vec<DataPacket> =
                b.packets[1..].iter().map(|p| p.packet.clone()).collect();
            let recovered = decoder
                .decode_batch(
                    &coded[1..],
                    &collected,
                    (FlowId(0), round as u64),
                    Time::ZERO,
                )
                .unwrap()
                .unwrap();
            assert_eq!(recovered.payload, b.packets[0].packet.payload);
        }
    }
}
