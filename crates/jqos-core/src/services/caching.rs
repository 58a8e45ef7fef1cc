//! The caching service (§3.2).
//!
//! A DC near the receiver keeps a short-lived, in-memory copy of packets so
//! that the receiver (or a set of multicast receivers, or a mobile host that
//! was offline) can pull them later.  Every cached packet has an associated
//! timeout after which it is evicted; the cache is also bounded in size and
//! evicts the oldest entries first when full.

use std::collections::{BTreeMap, VecDeque};

use netsim::{Dur, Time};

use crate::hash::FixedMap;
use crate::packet::{DataPacket, FlowId, SeqNo};

/// Configuration of a packet cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// How long a packet stays retrievable.
    pub ttl: Dur,
    /// Maximum number of packets held across all flows.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // A few seconds of in-memory storage is enough for loss recovery; the
        // mobility use case configures a much larger TTL explicitly.
        CacheConfig {
            ttl: Dur::from_secs(10),
            capacity: 100_000,
        }
    }
}

/// Counters exposed by the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Packets inserted.
    pub inserted: u64,
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups (missing or expired).
    pub misses: u64,
    /// Packets evicted because their TTL expired.
    pub expired: u64,
    /// Packets evicted because the cache was full.
    pub evicted_capacity: u64,
}

impl CacheStats {
    /// Hit ratio over all lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Short-term packet storage at a data center.
#[derive(Clone, Debug)]
pub struct PacketCache {
    config: CacheConfig,
    by_flow: FixedMap<FlowId, BTreeMap<SeqNo, (DataPacket, Time)>>,
    insertion_order: VecDeque<(FlowId, SeqNo, Time)>,
    len: usize,
    stats: CacheStats,
}

impl PacketCache {
    /// Creates a cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        PacketCache {
            config,
            by_flow: FixedMap::default(),
            insertion_order: VecDeque::new(),
            len: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of packets currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the cache holds no packets.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counters gathered so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Inserts a packet at time `now`.  Re-inserting the same `(flow, seq)`
    /// refreshes the stored copy and its expiry.
    pub fn insert(&mut self, packet: DataPacket, now: Time) {
        self.expire(now);
        while self.len >= self.config.capacity {
            self.evict_oldest();
        }
        let flow = packet.flow;
        let seq = packet.seq;
        let entry = self.by_flow.entry(flow).or_default();
        if entry.insert(seq, (packet, now)).is_none() {
            self.len += 1;
        }
        self.insertion_order.push_back((flow, seq, now));
        self.stats.inserted += 1;
    }

    /// Looks up a packet, honouring the TTL.
    pub fn get(&mut self, flow: FlowId, seq: SeqNo, now: Time) -> Option<DataPacket> {
        self.expire(now);
        let found = self
            .by_flow
            .get(&flow)
            .and_then(|m| m.get(&seq))
            .map(|(p, _)| p.clone());
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// Returns every cached packet of `flow` with sequence number in
    /// `[from, to]` — the pull-range operation used by the mobility use case.
    pub fn get_range(
        &mut self,
        flow: FlowId,
        from: SeqNo,
        to: SeqNo,
        now: Time,
    ) -> Vec<DataPacket> {
        self.expire(now);
        let out: Vec<DataPacket> = self
            .by_flow
            .get(&flow)
            .map(|m| m.range(from..=to).map(|(_, (p, _))| p.clone()).collect())
            .unwrap_or_default();
        if out.is_empty() {
            self.stats.misses += 1;
        } else {
            self.stats.hits += out.len() as u64;
        }
        out
    }

    /// Whether a packet is currently cached (does not count as a lookup).
    pub fn contains(&self, flow: FlowId, seq: SeqNo) -> bool {
        self.by_flow
            .get(&flow)
            .map(|m| m.contains_key(&seq))
            .unwrap_or(false)
    }

    /// Drops entries older than the TTL.
    pub fn expire(&mut self, now: Time) {
        while let Some((flow, seq, inserted)) = self.insertion_order.front().copied() {
            if now.saturating_since(inserted) < self.config.ttl {
                break;
            }
            self.insertion_order.pop_front();
            // Only remove if the stored entry is from this insertion (it may
            // have been refreshed since).
            if let Some(m) = self.by_flow.get_mut(&flow) {
                if let Some((_, stored_at)) = m.get(&seq) {
                    if *stored_at == inserted {
                        m.remove(&seq);
                        self.len -= 1;
                        self.stats.expired += 1;
                    }
                }
            }
        }
    }

    fn evict_oldest(&mut self) {
        while let Some((flow, seq, inserted)) = self.insertion_order.pop_front() {
            if let Some(m) = self.by_flow.get_mut(&flow) {
                if let Some((_, stored_at)) = m.get(&seq) {
                    if *stored_at == inserted {
                        m.remove(&seq);
                        self.len -= 1;
                        self.stats.evicted_capacity += 1;
                        return;
                    }
                }
            }
        }
    }
}

impl Default for PacketCache {
    fn default() -> Self {
        PacketCache::new(CacheConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn pkt(flow: u32, seq: SeqNo) -> DataPacket {
        DataPacket::new(
            FlowId(flow),
            seq,
            Bytes::from_static(b"payload"),
            Time::ZERO,
        )
    }

    #[test]
    fn insert_then_get_hits() {
        let mut c = PacketCache::default();
        c.insert(pkt(1, 5), Time::from_millis(0));
        let got = c.get(FlowId(1), 5, Time::from_millis(10)).expect("hit");
        assert_eq!(got.seq, 5);
        assert_eq!(c.stats().hits, 1);
        assert!(c.get(FlowId(1), 6, Time::from_millis(10)).is_none());
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ttl_expires_entries() {
        let mut c = PacketCache::new(CacheConfig {
            ttl: Dur::from_secs(1),
            capacity: 100,
        });
        c.insert(pkt(1, 1), Time::from_millis(0));
        assert!(c.get(FlowId(1), 1, Time::from_millis(999)).is_some());
        assert!(c.get(FlowId(1), 1, Time::from_millis(1000)).is_none());
        assert_eq!(c.stats().expired, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut c = PacketCache::new(CacheConfig {
            ttl: Dur::from_secs(60),
            capacity: 3,
        });
        for seq in 0..5 {
            c.insert(pkt(1, seq), Time::from_millis(seq));
        }
        assert_eq!(c.len(), 3);
        assert!(!c.contains(FlowId(1), 0));
        assert!(!c.contains(FlowId(1), 1));
        assert!(c.contains(FlowId(1), 2));
        assert!(c.contains(FlowId(1), 4));
        assert_eq!(c.stats().evicted_capacity, 2);
    }

    #[test]
    fn range_pull_returns_in_order() {
        let mut c = PacketCache::default();
        for seq in [3u64, 1, 7, 5] {
            c.insert(pkt(2, seq), Time::from_millis(0));
        }
        let got = c.get_range(FlowId(2), 2, 6, Time::from_millis(1));
        let seqs: Vec<SeqNo> = got.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![3, 5]);
        // Pull on an unknown flow is a miss.
        assert!(c
            .get_range(FlowId(9), 0, 10, Time::from_millis(1))
            .is_empty());
    }

    #[test]
    fn reinsert_refreshes_ttl() {
        let mut c = PacketCache::new(CacheConfig {
            ttl: Dur::from_secs(1),
            capacity: 10,
        });
        c.insert(pkt(1, 1), Time::from_millis(0));
        c.insert(pkt(1, 1), Time::from_millis(900));
        // Original copy would have expired at t=1000, but the refresh keeps
        // it alive until t=1900.
        assert!(c.get(FlowId(1), 1, Time::from_millis(1500)).is_some());
        assert_eq!(c.len(), 1);
        assert!(c.get(FlowId(1), 1, Time::from_millis(2000)).is_none());
    }

    #[test]
    fn different_flows_do_not_collide() {
        let mut c = PacketCache::default();
        c.insert(pkt(1, 1), Time::ZERO);
        c.insert(pkt(2, 1), Time::ZERO);
        assert_eq!(c.len(), 2);
        assert!(c.get(FlowId(1), 1, Time::ZERO).is_some());
        assert!(c.get(FlowId(2), 1, Time::ZERO).is_some());
    }
}
