//! The shard's pure parts, checked without a socket.
//!
//! 1. [`SeqRing`], the slot ring caching and coding retain into, behaves
//!    exactly like a plain `VecDeque` model of "the `capacity` newest keys"
//!    over random inserts with gaps, duplicates, stale keys and jumps that
//!    wrap the slot index many times: same hits, same misses, same
//!    evictions, same bytes.
//! 2. The coalescing rule picks blocking or lingering from the last
//!    receive's wait and batch, as documented.

use std::collections::VecDeque;
use std::time::Duration;

use jqos_net::ring::SeqRing;
use jqos_net::shard::{next_pace, Pace, BUSY_WAIT, MIN_HARVEST};
use proptest::prelude::*;

/// The obviously correct window: keys sorted oldest first, scanned
/// linearly.
struct Model {
    entries: VecDeque<(u64, Vec<u8>)>,
    cap: u64,
    newest: Option<u64>,
}

impl Model {
    fn insert(&mut self, key: u64, bytes: &[u8]) -> u64 {
        if self.cap == 0 || self.newest.is_some_and(|n| key <= n && n - key >= self.cap) {
            return 1;
        }
        match self.entries.iter().position(|(k, _)| *k >= key) {
            Some(i) if self.entries[i].0 == key => self.entries[i].1 = bytes.to_vec(),
            Some(i) => self.entries.insert(i, (key, bytes.to_vec())),
            None => self.entries.push_back((key, bytes.to_vec())),
        }
        let newest = self.newest.map_or(key, |n| n.max(key));
        self.newest = Some(newest);
        let mut evicted = 0;
        while self
            .entries
            .front()
            .is_some_and(|(k, _)| newest - k >= self.cap)
        {
            self.entries.pop_front();
            evicted += 1;
        }
        evicted
    }

    fn get(&self, key: u64) -> Option<&[u8]> {
        self.entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, b)| b.as_slice())
    }

    fn clear(&mut self) -> u64 {
        self.newest = None;
        let n = self.entries.len() as u64;
        self.entries.clear();
        n
    }
}

/// One step: insert, look up or clear, at a key `step − 20` from the
/// newest so far (a negative offset reaches back behind it), with a fill
/// byte.
fn ops() -> impl Strategy<Value = Vec<(u8, u64, u8)>> {
    proptest::collection::vec((0u8..10, 0u64..60, any::<u8>()), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn slot_ring_matches_a_vecdeque_model(cap in 0usize..12, start in any::<u64>(), ops in ops()) {
        let mut ring = SeqRing::new(cap);
        let mut model = Model { entries: VecDeque::new(), cap: cap as u64, newest: None };
        let mut cursor = start;
        for (kind, step, fill) in ops {
            let key = cursor.saturating_add(step).saturating_sub(20);
            match kind {
                0..=5 => {
                    cursor = cursor.max(key);
                    let bytes = vec![fill; usize::from(fill % 7)];
                    let got = ring.insert_with(key, |b| b.extend_from_slice(&bytes));
                    prop_assert_eq!(got, model.insert(key, &bytes), "insert {}", key);
                }
                6..=8 => prop_assert_eq!(ring.get(key), model.get(key), "get {}", key),
                _ => prop_assert_eq!(ring.clear(), model.clear()),
            }
        }
        for key in cursor.saturating_sub(2 * cap as u64)..=cursor {
            prop_assert_eq!(ring.get(key), model.get(key), "final get {}", key);
        }
    }
}

#[test]
fn coalescing_rule_table() {
    use Pace::{Block, Busy, Linger};
    let us = Duration::from_micros;
    // (pace before, receive waited, datagrams it returned) → pace next.
    let table = [
        (Block, us(90), 1, Block),   // 10 kpps: a wake-up per packet
        (Block, us(90), 3, Block),   // a slow wait is not a busy socket
        (Block, us(5), 1, Busy),     // one quick receive: not yet
        (Busy, us(90), 1, Block),    // a data + NACK pair, then quiet
        (Busy, us(5), 1, Linger),    // two in a row: busy socket
        (Busy, us(5), 40, Linger),   // a burst was already queued
        (Busy, BUSY_WAIT, 1, Block), // the threshold itself waits
        (Linger, us(0), 40, Linger), // the linger harvested a batch
        (Linger, us(0), MIN_HARVEST, Linger),
        (Linger, us(0), MIN_HARVEST - 1, Block), // too few: back to blocking
        (Linger, us(0), 2, Block),
    ];
    for (pace, waited, got, want) in table {
        assert_eq!(
            next_pace(pace, waited, got),
            want,
            "{pace:?}, waited {waited:?}, got {got}"
        );
    }
}
