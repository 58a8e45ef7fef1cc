//! The simulator's internal event representation and scheduler backends.
//!
//! Events are ordered by `(time, sequence)` where the sequence number is a
//! monotonically increasing tie-breaker, giving a deterministic total order
//! even when many events share a timestamp.  [`EventQueue`] owns that
//! contract and offers two interchangeable backends ([`QueueKind`]):
//!
//! * **Heap** — the seed implementation: one `BinaryHeap` storing whole
//!   [`Event`]s.  Every sift moves the full payload `M`, which for realistic
//!   message enums is ~100 bytes per level.  Kept as the reference scheduler
//!   the replay tests compare the calendar backend against.
//! * **Calendar** — the hot-loop backend: payloads live in a *slab* (a vector
//!   with a free list, so slots are recycled without allocation) and the
//!   scheduler only moves 24-byte keys.  Keys within a sliding time horizon
//!   go into a ring of time buckets (a classic calendar queue — O(1)
//!   amortised insert/pop in the high-event-rate regime); keys beyond the
//!   horizon fall back to a small binary heap of keys.  Pop order is exactly
//!   the heap backend's `(time, sequence)` order — a property enforced by
//!   the `queue_equivalence` property tests.
//!
//! Both backends support pre-sizing ([`EventQueue::with_capacity`]) and
//! recycling ([`EventQueue::recycle`]) so per-sweep-point simulators start
//! from already-grown allocations.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::node::{NodeId, TimerId};
use crate::time::Time;

/// What happens when an event is popped from the queue.
pub enum EventKind<M> {
    /// Deliver a message to a node.
    Deliver {
        /// Destination node.
        to: NodeId,
        /// Originating node.
        from: NodeId,
        /// The message payload.
        msg: M,
    },
    /// Fire a timer on a node.
    Timer {
        /// Owner of the timer.
        node: NodeId,
        /// Identifier returned by `set_timer`.
        timer: TimerId,
        /// User-chosen tag.
        tag: u64,
    },
}

/// A scheduled event.
pub struct Event<M> {
    /// When the event fires.
    pub at: Time,
    /// Tie-breaking sequence number (FIFO for equal timestamps).
    pub seq: u64,
    /// The action to perform.
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) pops the earliest event first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Which scheduler backend an [`EventQueue`] uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// The seed `BinaryHeap<Event<M>>`: whole events (payload included) sift
    /// through the heap.  Reference implementation and benchmark baseline.
    Heap,
    /// Slab-stored payloads scheduled by a bucketed calendar queue of keys,
    /// with a key heap for events beyond the calendar horizon.
    #[default]
    Calendar,
}

/// Scheduling key of a slab-stored event: 24 bytes, ordered by `(at, seq)`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: Time,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Payload storage for the calendar backend: a vector of slots plus a free
/// list, so steady-state push/pop recycles slots without touching the
/// allocator and the scheduler never moves a payload once written.
struct Slab<M> {
    slots: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
}

impl<M> Slab<M> {
    fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity.min(1024)),
        }
    }

    fn insert(&mut self, kind: EventKind<M>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab exceeded u32 slots");
                self.slots.push(Some(kind));
                slot
            }
        }
    }

    fn take(&mut self, slot: u32) -> EventKind<M> {
        let kind = self.slots[slot as usize]
            .take()
            .expect("event slot already vacated");
        self.free.push(slot);
        kind
    }

    fn recycle(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

/// Number of buckets in the calendar ring (power of two).
const BUCKET_COUNT: u64 = 1024;
/// log2 of the bucket width in microseconds: each bucket covers ~1 ms, so the
/// ring's horizon is ~1.05 s — wide enough that in-flight deliveries over
/// wide-area latencies stay in the ring; longer timers use the key heap.
const BUCKET_SHIFT: u32 = 10;
const BUCKET_MASK: u64 = BUCKET_COUNT - 1;

/// The calendar-queue backend: a ring of time buckets over slab keys.
///
/// Invariants:
/// * `head` is the global minimum key whenever the queue is non-empty.
/// * Every key stored in the ring satisfies `bucket(at) >= cur_abs`: keys
///   that would land behind the cursor (the anchor is a snapshot of an old
///   head, so keys between the current head and the anchor can appear) go to
///   the overflow heap, whose minimum is compared against the ring minimum
///   by full `(at, seq)` key on every pop.
/// * A ring bucket only ever holds keys of a single horizon lap, because
///   inserts beyond `cur_abs + BUCKET_COUNT` also go to the overflow heap.
struct Calendar<M> {
    slab: Slab<M>,
    /// One-slot lookahead holding the minimum key, so `peek_at` is O(1).
    head: Option<Key>,
    buckets: Vec<Vec<Key>>,
    /// Keys currently stored in `buckets`.
    ring_len: usize,
    /// Absolute bucket index (`at_us >> BUCKET_SHIFT`) of the cursor.
    cur_abs: u64,
    /// Absolute bucket index currently sorted in descending order, if any.
    active_abs: Option<u64>,
    /// Keys beyond the ring horizon; `Reverse` turns the max-heap into the
    /// min-heap pop order we need.
    overflow: BinaryHeap<std::cmp::Reverse<Key>>,
    len: usize,
}

impl<M> Calendar<M> {
    fn with_capacity(capacity: usize) -> Self {
        Calendar {
            slab: Slab::with_capacity(capacity),
            head: None,
            buckets: (0..BUCKET_COUNT).map(|_| Vec::new()).collect(),
            ring_len: 0,
            cur_abs: 0,
            active_abs: None,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    fn push(&mut self, key: Key) {
        self.len += 1;
        match self.head {
            None => self.head = Some(key),
            Some(h) if key < h => {
                self.head = Some(key);
                self.insert(h);
            }
            Some(_) => self.insert(key),
        }
    }

    fn insert(&mut self, key: Key) {
        let abs = key.at.as_micros() >> BUCKET_SHIFT;
        if self.ring_len == 0 && self.overflow.is_empty() {
            // The structure is empty: re-anchor the ring so the bucket spread
            // starts fresh instead of clamping.  Anchor at the *head*, not at
            // this key: `push` guarantees every key reaching `insert` is >=
            // the head, so the head's bucket is the true lower bound of all
            // future ring content.  (Anchoring at `key` would clamp every
            // earlier-but-not-minimal key into one ever-growing cursor
            // bucket, degenerating fill-up into O(n) sorted inserts.)
            self.cur_abs = self.head.map_or(abs, |h| h.at.as_micros() >> BUCKET_SHIFT);
            self.active_abs = None;
        }
        // Keys behind the cursor (the anchor may lag the shrinking head) or
        // beyond the horizon both take the overflow heap: near-past keys pop
        // back out almost immediately via the full-key min comparison, and
        // far-future keys wait there until the window reaches them.  Clamping
        // behind-cursor keys into the cursor bucket instead would be ordered
        // correctly too, but degenerates to O(n) memmoves when many keys land
        // behind a stale anchor (e.g. while filling a deep queue).
        if abs < self.cur_abs || abs - self.cur_abs >= BUCKET_COUNT {
            self.overflow.push(std::cmp::Reverse(key));
            return;
        }
        let target = abs;
        let bucket = &mut self.buckets[(target & BUCKET_MASK) as usize];
        if self.active_abs == Some(target) {
            // The cursor bucket is kept sorted in descending order (pop takes
            // from the back); insert in place to preserve that.
            let pos = bucket.partition_point(|k| *k > key);
            bucket.insert(pos, key);
        } else {
            bucket.push(key);
        }
        self.ring_len += 1;
    }

    /// Removes and returns the minimum key stored in the ring or overflow
    /// (the head slot is managed by the caller).
    fn extract_min(&mut self) -> Option<Key> {
        if self.ring_len == 0 {
            let std::cmp::Reverse(key) = self.overflow.pop()?;
            // Re-anchor the ring at the popped key so subsequent inserts
            // spread over the new horizon window.
            self.cur_abs = key.at.as_micros() >> BUCKET_SHIFT;
            self.active_abs = None;
            return Some(key);
        }
        // Advance the cursor to the first non-empty bucket.  Buckets hold a
        // single lap each, so ring order is time order.
        while self.buckets[(self.cur_abs & BUCKET_MASK) as usize].is_empty() {
            self.cur_abs += 1;
        }
        let idx = (self.cur_abs & BUCKET_MASK) as usize;
        if self.active_abs != Some(self.cur_abs) {
            self.buckets[idx].sort_unstable_by(|a, b| b.cmp(a));
            self.active_abs = Some(self.cur_abs);
        }
        let ring_min = *self.buckets[idx].last().expect("bucket checked non-empty");
        if let Some(std::cmp::Reverse(over_min)) = self.overflow.peek() {
            // An overflow key can precede the ring minimum after the window
            // has advanced past its original horizon; compare explicitly.
            if *over_min < ring_min {
                let std::cmp::Reverse(key) = self.overflow.pop().expect("peeked above");
                return Some(key);
            }
        }
        self.buckets[idx].pop();
        self.ring_len -= 1;
        Some(ring_min)
    }

    fn pop(&mut self) -> Option<Key> {
        let key = self.head.take()?;
        self.len -= 1;
        self.head = self.extract_min();
        Some(key)
    }

    fn peek_at(&self) -> Option<Time> {
        self.head.map(|k| k.at)
    }

    fn recycle(&mut self) {
        self.slab.recycle();
        self.head = None;
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.ring_len = 0;
        self.cur_abs = 0;
        self.active_abs = None;
        self.overflow.clear();
        self.len = 0;
    }
}

enum Backend<M> {
    Heap(BinaryHeap<Event<M>>),
    Calendar(Calendar<M>),
}

/// The simulator's pending-event queue: a min-order priority queue with a
/// monotonically increasing sequence number as tie-breaker.
///
/// Sequence numbers are assigned by the queue itself so callers cannot break
/// the deterministic total order, and the backing storage can be reserved up front
/// ([`EventQueue::with_capacity`]) so per-sweep-point simulators start with a
/// single allocation instead of growing through the doubling schedule.
///
/// The scheduler backend is chosen at construction ([`QueueKind`]); both
/// backends pop in the identical `(time, sequence)` order.
pub struct EventQueue<M> {
    backend: Backend<M>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    /// An empty queue with no pre-allocated capacity, on the default
    /// (calendar) backend.
    pub fn new() -> Self {
        EventQueue::with_kind(QueueKind::default(), 0)
    }

    /// An empty queue with room for `capacity` pending events, on the
    /// default (calendar) backend.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue::with_kind(QueueKind::default(), capacity)
    }

    /// An empty queue on the given backend with room for `capacity` pending
    /// events.
    pub fn with_kind(kind: QueueKind, capacity: usize) -> Self {
        let backend = match kind {
            QueueKind::Heap => Backend::Heap(BinaryHeap::with_capacity(capacity)),
            QueueKind::Calendar => Backend::Calendar(Calendar::with_capacity(capacity)),
        };
        EventQueue {
            backend,
            next_seq: 0,
        }
    }

    /// Which scheduler backend this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match self.backend {
            Backend::Heap(_) => QueueKind::Heap,
            Backend::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// Schedules `kind` at time `at`; events scheduled earlier (or at the
    /// same time but pushed first) pop first.
    pub fn push(&mut self, at: Time, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(Event { at, seq, kind }),
            Backend::Calendar(cal) => {
                let slot = cal.slab.insert(kind);
                cal.push(Key { at, seq, slot });
            }
        }
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Event<M>> {
        match &mut self.backend {
            Backend::Heap(heap) => heap.pop(),
            Backend::Calendar(cal) => {
                let key = cal.pop()?;
                let kind = cal.slab.take(key.slot);
                Some(Event {
                    at: key.at,
                    seq: key.seq,
                    kind,
                })
            }
        }
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_at(&self) -> Option<Time> {
        match &self.backend {
            Backend::Heap(heap) => heap.peek().map(|e| e.at),
            Backend::Calendar(cal) => cal.peek_at(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.len(),
            Backend::Calendar(cal) => cal.len,
        }
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocated capacity of the backing event storage (the heap for the
    /// heap backend, the payload slab for the calendar backend).
    pub fn capacity(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.capacity(),
            Backend::Calendar(cal) => cal.slab.slots.capacity(),
        }
    }

    /// Drops all pending events but keeps the allocations, so a recycled
    /// simulator re-starts from already-grown storage.  Sequence numbering
    /// restarts from zero.
    pub fn recycle(&mut self) {
        match &mut self.backend {
            Backend::Heap(heap) => heap.clear(),
            Backend::Calendar(cal) => cal.recycle(),
        }
        self.next_seq = 0;
    }
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(at_ms: u64, seq: u64) -> Event<()> {
        Event {
            at: Time::from_millis(at_ms),
            seq,
            kind: EventKind::Timer {
                node: NodeId(0),
                timer: TimerId(seq),
                tag: 0,
            },
        }
    }

    #[test]
    fn heap_pops_earliest_first() {
        let mut heap = BinaryHeap::new();
        heap.push(ev(30, 1));
        heap.push(ev(10, 2));
        heap.push(ev(20, 3));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop())
            .map(|e| e.at.as_micros())
            .collect();
        assert_eq!(order, vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn ties_break_by_sequence_number() {
        let mut heap = BinaryHeap::new();
        heap.push(ev(10, 5));
        heap.push(ev(10, 2));
        heap.push(ev(10, 9));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    fn drain_order(mut q: EventQueue<()>) -> Vec<u64> {
        std::iter::from_fn(move || q.pop())
            .map(|e| e.at.as_micros())
            .collect()
    }

    fn push_at(q: &mut EventQueue<()>, at_ms: u64) {
        q.push(
            Time::from_millis(at_ms),
            EventKind::Timer {
                node: NodeId(0),
                timer: TimerId(0),
                tag: at_ms,
            },
        );
    }

    #[test]
    fn event_queue_orders_and_recycles_without_reallocating() {
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            let mut q: EventQueue<()> = EventQueue::with_kind(kind, 64);
            let cap = q.capacity();
            assert!(cap >= 64, "{kind:?}");
            for at in [30u64, 10, 20, 10] {
                push_at(&mut q, at);
            }
            assert_eq!(q.len(), 4);
            assert_eq!(q.peek_at(), Some(Time::from_millis(10)));
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|e| e.at.as_micros())
                .collect();
            // FIFO among the two t=10 events, then 20, then 30.
            assert_eq!(order, vec![10_000, 10_000, 20_000, 30_000]);
            q.recycle();
            assert!(q.is_empty());
            assert_eq!(q.capacity(), cap, "recycling must keep the allocation");
        }
    }

    #[test]
    fn default_queue_uses_the_calendar_backend() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.kind(), QueueKind::Calendar);
        let q: EventQueue<()> = EventQueue::with_kind(QueueKind::Heap, 0);
        assert_eq!(q.kind(), QueueKind::Heap);
    }

    #[test]
    fn calendar_far_future_events_take_the_overflow_path() {
        // Events far beyond the ring horizon (~1 s) must still pop in order.
        let mut q: EventQueue<()> = EventQueue::with_kind(QueueKind::Calendar, 0);
        for at in [5_000u64, 1, 90_000, 2_500, 40_000, 2] {
            push_at(&mut q, at);
        }
        assert_eq!(
            drain_order(q),
            vec![1_000, 2_000, 2_500_000, 5_000_000, 40_000_000, 90_000_000]
        );
    }

    #[test]
    fn calendar_interleaved_pushes_and_pops_stay_ordered() {
        let mut q: EventQueue<()> = EventQueue::with_kind(QueueKind::Calendar, 0);
        push_at(&mut q, 50);
        push_at(&mut q, 10);
        assert_eq!(q.pop().unwrap().at, Time::from_millis(10));
        // Push something earlier than everything pending (non-monotone).
        push_at(&mut q, 5);
        push_at(&mut q, 2_000);
        assert_eq!(q.pop().unwrap().at, Time::from_millis(5));
        assert_eq!(q.pop().unwrap().at, Time::from_millis(50));
        assert_eq!(q.pop().unwrap().at, Time::from_millis(2_000));
        assert!(q.pop().is_none());
    }
}
