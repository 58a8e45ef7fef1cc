//! The discrete-event simulation engine.
//!
//! [`Simulator`] owns the nodes, the links between them and the event queue.
//! Experiments build a topology, add protocol nodes, run the clock forward
//! and then inspect node state (via [`Simulator::node_as`]) and link
//! statistics to produce the data series reported in `EXPERIMENTS.md`.
//!
//! The inner loop is allocation- and hash-free: nodes live in an index-based
//! [`NodeSlab`], links are resolved through per-node sorted adjacency rows
//! (binary search over a dense `Vec`, no hasher), timer cancellations are a
//! bitset keyed by the monotone timer id, and the event queue defaults to the
//! slab + calendar backend (see [`crate::event`]).  Every constructor takes
//! or defaults a [`QueueKind`] so tests can pin either scheduler.

use rand::rngs::SmallRng;

use crate::event::{EventKind, EventQueue, QueueKind};
use crate::link::{Link, LinkOutcome, LinkSpec, LinkStats};
use crate::node::{Context, Node, NodeId, NodeSlab, TimerId};
use crate::rng::{component_rng, link_rng};
use crate::time::{Dur, Time};

/// Global counters kept by the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages successfully scheduled for delivery.
    pub messages_sent: u64,
    /// Messages handed to nodes.
    pub messages_delivered: u64,
    /// Messages dropped by a loss model.
    pub messages_dropped_loss: u64,
    /// Messages dropped by a queue overflow.
    pub messages_dropped_queue: u64,
    /// Sends attempted without a registered link.
    pub no_route: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Events processed in total.
    pub events_processed: u64,
    /// Messages dropped because the destination node was down (crashed DC)
    /// when delivery came due — in-flight traffic dies with the node.
    pub messages_dropped_down: u64,
    /// Timer events suppressed because their node was down when they fired.
    pub timers_suppressed_down: u64,
}

/// Directed links stored densely, resolved through per-source adjacency rows
/// kept sorted by destination.  Lookup is a binary search over a few
/// cache-resident `(u32, u32)` pairs — no hashing on the send path.
#[derive(Default)]
struct LinkTable {
    links: Vec<Link>,
    /// `adj[from]` lists `(to, index into links)` sorted by `to`.
    adj: Vec<Vec<(u32, u32)>>,
}

impl LinkTable {
    fn index_of(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let row = self.adj.get(from.0)?;
        row.binary_search_by_key(&(to.0 as u32), |&(t, _)| t)
            .ok()
            .map(|pos| row[pos].1 as usize)
    }

    /// Registers (or replaces — same semantics as the seed `HashMap::insert`)
    /// the link from `from` to `to`.
    fn insert(&mut self, from: NodeId, to: NodeId, link: Link) {
        if from.0 >= self.adj.len() {
            self.adj.resize_with(from.0 + 1, Vec::new);
        }
        let row = &mut self.adj[from.0];
        match row.binary_search_by_key(&(to.0 as u32), |&(t, _)| t) {
            Ok(pos) => self.links[row[pos].1 as usize] = link,
            Err(pos) => {
                let idx = u32::try_from(self.links.len()).expect("link table exceeded u32 links");
                self.links.push(link);
                row.insert(pos, (to.0 as u32, idx));
            }
        }
    }

    fn get_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut Link> {
        let idx = self.index_of(from, to)?;
        Some(&mut self.links[idx])
    }

    fn get(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        self.index_of(from, to).map(|idx| &self.links[idx])
    }
}

/// Pending timer cancellations as a bitset over the monotone timer id —
/// replaces the seed's `HashSet<u64>` (one hash + probe per fired timer)
/// with a word index and a mask.
#[derive(Default)]
struct CancelSet {
    words: Vec<u64>,
}

impl CancelSet {
    fn insert(&mut self, id: u64) {
        let word = (id / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (id % 64);
    }

    /// Tests and clears the bit for `id`; returns whether it was set.
    fn take(&mut self, id: u64) -> bool {
        let word = (id / 64) as usize;
        match self.words.get_mut(word) {
            Some(w) => {
                let bit = 1u64 << (id % 64);
                let was = *w & bit != 0;
                *w &= !bit;
                was
            }
            None => false,
        }
    }
}

/// The part of the engine visible to nodes through [`Context`]; split from
/// [`Simulator`] so a node handler can borrow it mutably while the node
/// itself is checked out of the node slab.
pub struct SimCore<M> {
    pub(crate) now: Time,
    queue: EventQueue<M>,
    links: LinkTable,
    node_rngs: Vec<SmallRng>,
    next_timer: u64,
    cancelled: CancelSet,
    stats: SimStats,
    master_seed: u64,
}

impl<M: Clone + 'static> SimCore<M> {
    fn new(master_seed: u64, kind: QueueKind, events_hint: usize) -> Self {
        SimCore {
            now: Time::ZERO,
            queue: EventQueue::with_kind(kind, events_hint),
            links: LinkTable::default(),
            node_rngs: Vec::new(),
            next_timer: 0,
            cancelled: CancelSet::default(),
            stats: SimStats::default(),
            master_seed,
        }
    }

    fn push(&mut self, at: Time, kind: EventKind<M>) {
        self.queue.push(at, kind);
    }

    pub(crate) fn send(&mut self, from: NodeId, to: NodeId, msg: M, size_bytes: usize) {
        let now = self.now;
        let outcome = match self.links.get_mut(from, to) {
            Some(link) => link.offer(now, size_bytes),
            None => {
                self.stats.no_route += 1;
                return;
            }
        };
        match outcome {
            LinkOutcome::Deliver(latency) => {
                self.stats.messages_sent += 1;
                self.push(now + latency, EventKind::Deliver { to, from, msg });
            }
            LinkOutcome::DroppedLoss => self.stats.messages_dropped_loss += 1,
            LinkOutcome::DroppedQueue => self.stats.messages_dropped_queue += 1,
        }
    }

    pub(crate) fn send_local(&mut self, node: NodeId, msg: M, delay: Dur) {
        self.stats.messages_sent += 1;
        let at = self.now + delay;
        self.push(
            at,
            EventKind::Deliver {
                to: node,
                from: node,
                msg,
            },
        );
    }

    pub(crate) fn set_timer(&mut self, node: NodeId, delay: Dur, tag: u64) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        let at = self.now + delay;
        self.push(
            at,
            EventKind::Timer {
                node,
                timer: id,
                tag,
            },
        );
        id
    }

    pub(crate) fn cancel_timer(&mut self, timer: TimerId) {
        self.cancelled.insert(timer.0);
    }

    pub(crate) fn node_rng(&mut self, node: NodeId) -> &mut SmallRng {
        &mut self.node_rngs[node.0]
    }

    pub(crate) fn has_link(&self, from: NodeId, to: NodeId) -> bool {
        self.links.index_of(from, to).is_some()
    }

    pub(crate) fn nominal_latency(&self, from: NodeId, to: NodeId) -> Option<Dur> {
        self.links.get(from, to).map(|l| l.nominal_latency())
    }
}

/// A scheduled liveness transition of one node (see
/// [`Simulator::schedule_down`]).
#[derive(Clone, Copy, Debug)]
struct LivenessEvent {
    at: Time,
    seq: u64,
    node: NodeId,
    down: bool,
}

/// The discrete-event simulator.
pub struct Simulator<M> {
    core: SimCore<M>,
    nodes: NodeSlab<M>,
    started: Vec<bool>,
    /// Nodes whose `on_start` has not run yet; lets [`Simulator::step`] skip
    /// the start scan entirely on the hot path once every node is live.
    unstarted: usize,
    /// Per-node down flags; empty until the first liveness schedule so the
    /// default hot path pays nothing.
    down: Vec<bool>,
    /// Pending liveness transitions sorted by `(at, seq)`; applied lazily as
    /// the clock passes them.
    liveness: Vec<LivenessEvent>,
    /// Index of the next unapplied entry of `liveness`.
    liveness_cursor: usize,
    liveness_seq: u64,
}

impl<M: Clone + 'static> Simulator<M> {
    /// Creates an empty simulator with the given master seed.  All randomness
    /// (link loss, jitter, node RNGs) derives deterministically from it.
    pub fn new(master_seed: u64) -> Self {
        Simulator::with_capacity(master_seed, 0, 0)
    }

    /// Creates an empty simulator on the given scheduler backend.  Both
    /// backends process events in the identical deterministic order (a
    /// test-enforced invariant), so the choice only affects throughput.
    pub fn with_queue(master_seed: u64, kind: QueueKind) -> Self {
        Simulator::with_capacity_and_queue(master_seed, kind, 0, 0)
    }

    /// Creates an empty simulator with pre-reserved node and event-queue
    /// allocations, so sweep harnesses that build one simulator per grid
    /// point pay a single up-front allocation instead of growing through the
    /// doubling schedule.  Hints of zero behave like [`Simulator::new`].
    pub fn with_capacity(master_seed: u64, nodes_hint: usize, events_hint: usize) -> Self {
        Simulator::with_capacity_and_queue(
            master_seed,
            QueueKind::default(),
            nodes_hint,
            events_hint,
        )
    }

    /// [`Simulator::with_capacity`] with an explicit scheduler backend.
    pub fn with_capacity_and_queue(
        master_seed: u64,
        kind: QueueKind,
        nodes_hint: usize,
        events_hint: usize,
    ) -> Self {
        Simulator {
            core: SimCore::new(master_seed, kind, events_hint),
            nodes: NodeSlab::with_capacity(nodes_hint),
            started: Vec::with_capacity(nodes_hint),
            unstarted: 0,
            down: Vec::new(),
            liveness: Vec::new(),
            liveness_cursor: 0,
            liveness_seq: 0,
        }
    }

    /// Which scheduler backend this simulator runs on.
    pub fn queue_kind(&self) -> QueueKind {
        self.core.queue.kind()
    }

    /// Adds a node and returns its identifier.
    pub fn add_node<N: Node<M>>(&mut self, node: N) -> NodeId {
        let id = self.nodes.insert(Box::new(node));
        self.started.push(false);
        self.unstarted += 1;
        let seed_stream = id.0 as u64;
        self.core
            .node_rngs
            .push(component_rng(self.core.master_seed, seed_stream));
        id
    }

    /// Adds a unidirectional link from `a` to `b`.
    ///
    /// Every link owns a `SmallRng` derived from `(master_seed, a, b)` — the
    /// same scheme node RNGs use — so the loss realisation of one link never
    /// depends on traffic carried by other links, and re-registering the same
    /// endpoint pair reproduces the same stream.
    pub fn add_oneway_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        let master = self.core.master_seed;
        self.core
            .links
            .insert(a, b, spec.build(link_rng(master, a.0 as u64, b.0 as u64)));
    }

    /// Adds a bidirectional link (two independent unidirectional links built
    /// from the same spec, so loss processes on each direction are
    /// independent — as they are on real paths).
    pub fn add_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.add_oneway_link(a, b, spec.clone());
        self.add_oneway_link(b, a, spec);
    }

    /// Adds an asymmetric pair of links (e.g. cellular uplink/downlink).
    pub fn add_asymmetric_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        forward: LinkSpec,
        reverse: LinkSpec,
    ) {
        self.add_oneway_link(a, b, forward);
        self.add_oneway_link(b, a, reverse);
    }

    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// Schedules `node` to go down (crash) at simulated time `at`.
    ///
    /// From that instant on, messages due for delivery to the node are
    /// dropped (counted in [`SimStats::messages_dropped_down`] — in-flight
    /// packets die with the node) and its timers are suppressed
    /// ([`SimStats::timers_suppressed_down`]).  The node sends nothing
    /// because its handlers never run.  Transitions are applied in `(time,
    /// schedule order)` — deterministic regardless of scheduler backend or
    /// event load, so fault-injection scenarios replay byte-identically.
    pub fn schedule_down(&mut self, node: NodeId, at: Time) {
        self.schedule_liveness(node, at, true);
    }

    /// Schedules `node` to come back up at simulated time `at` (e.g. a DC
    /// returning after a rolling upgrade).  A revived node keeps its state;
    /// timers that fired while it was down are gone for good.
    pub fn schedule_up(&mut self, node: NodeId, at: Time) {
        self.schedule_liveness(node, at, false);
    }

    /// Whether `node` is currently down (as of the simulated clock).
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.get(node.0).copied().unwrap_or(false)
    }

    fn schedule_liveness(&mut self, node: NodeId, at: Time, down: bool) {
        assert!(
            at >= self.core.now,
            "liveness transitions cannot be scheduled in the past"
        );
        let event = LivenessEvent {
            at,
            seq: self.liveness_seq,
            node,
            down,
        };
        self.liveness_seq += 1;
        // Keep the unapplied tail sorted by (at, seq); schedules are tiny and
        // almost always appended in time order, so this is effectively a push.
        let pos = self.liveness[self.liveness_cursor..]
            .partition_point(|e| (e.at, e.seq) <= (at, event.seq))
            + self.liveness_cursor;
        self.liveness.insert(pos, event);
    }

    /// Applies every liveness transition due at or before `upto`.
    fn apply_liveness(&mut self, upto: Time) {
        while let Some(event) = self.liveness.get(self.liveness_cursor) {
            if event.at > upto {
                break;
            }
            let event = *event;
            self.liveness_cursor += 1;
            if event.node.0 >= self.down.len() {
                self.down.resize(event.node.0 + 1, false);
            }
            self.down[event.node.0] = event.down;
        }
    }

    /// Engine counters.
    pub fn stats(&self) -> SimStats {
        self.core.stats
    }

    /// Per-link counters for the link from `a` to `b`.
    pub fn link_stats(&self, a: NodeId, b: NodeId) -> Option<LinkStats> {
        self.core.links.get(a, b).map(|l| l.stats())
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Downcasts a node to its concrete type for post-run inspection.
    ///
    /// # Panics
    /// Panics if the node id is unknown or the type does not match.
    pub fn node_as<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes
            .get_mut(id)
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch in node_as")
    }

    /// Calls `on_start` on any node that has not been started yet.
    fn start_pending(&mut self) {
        if self.unstarted == 0 {
            return;
        }
        for idx in 0..self.nodes.len() {
            if self.started[idx] {
                continue;
            }
            self.started[idx] = true;
            self.unstarted -= 1;
            let id = NodeId(idx);
            let mut node = self.nodes.checkout(id);
            {
                let mut ctx = Context {
                    core: &mut self.core,
                    node: id,
                };
                node.on_start(&mut ctx);
            }
            self.nodes.checkin(id, node);
        }
    }

    /// Processes a single event.  Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.start_pending();
        let event = match self.core.queue.pop() {
            Some(e) => e,
            None => return false,
        };
        debug_assert!(event.at >= self.core.now, "time went backwards");
        self.core.now = event.at;
        self.core.stats.events_processed += 1;
        if self.liveness_cursor < self.liveness.len() {
            self.apply_liveness(event.at);
        }
        match event.kind {
            EventKind::Deliver { to, from, msg } => {
                if !self.nodes.contains(to) {
                    return true;
                }
                if self.is_down(to) {
                    self.core.stats.messages_dropped_down += 1;
                    return true;
                }
                self.core.stats.messages_delivered += 1;
                let mut node = self.nodes.checkout(to);
                {
                    let mut ctx = Context {
                        core: &mut self.core,
                        node: to,
                    };
                    node.on_message(&mut ctx, from, msg);
                }
                self.nodes.checkin(to, node);
            }
            EventKind::Timer {
                node: nid,
                timer,
                tag,
            } => {
                if self.core.cancelled.take(timer.0) {
                    return true;
                }
                if !self.nodes.contains(nid) {
                    return true;
                }
                if self.is_down(nid) {
                    self.core.stats.timers_suppressed_down += 1;
                    return true;
                }
                self.core.stats.timers_fired += 1;
                let mut node = self.nodes.checkout(nid);
                {
                    let mut ctx = Context {
                        core: &mut self.core,
                        node: nid,
                    };
                    node.on_timer(&mut ctx, timer, tag);
                }
                self.nodes.checkin(nid, node);
            }
        }
        true
    }

    /// Runs until the event queue is empty or the clock reaches `deadline`,
    /// whichever happens first.  Events scheduled exactly at the deadline are
    /// processed.
    pub fn run_until(&mut self, deadline: Time) {
        self.start_pending();
        while let Some(next_at) = self.core.queue.peek_at() {
            if next_at > deadline {
                break;
            }
            self.step();
        }
        if self.core.now < deadline {
            self.core.now = deadline;
        }
        // Transitions due inside an idle tail still take effect, so post-run
        // `is_down` queries reflect the clock, not the last processed event.
        self.apply_liveness(self.core.now);
    }

    /// Runs for `dur` of simulated time from the current clock.
    pub fn run_for(&mut self, dur: Dur) {
        let deadline = self.core.now + dur;
        self.run_until(deadline);
    }

    /// Runs until the event queue drains completely (or `max_events` events
    /// have been processed, as a runaway guard).
    pub fn run_to_completion(&mut self, max_events: u64) {
        self.start_pending();
        let mut processed = 0;
        while processed < max_events && self.step() {
            processed += 1;
        }
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.core.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LossSpec;
    use std::any::Any;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Echo;
    impl Node<Msg> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            if let Msg::Ping(n) = msg {
                ctx.send(from, Msg::Pong(n));
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct Client {
        server: NodeId,
        to_send: u32,
        pongs: Vec<(u32, Time)>,
    }
    impl Node<Msg> for Client {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for i in 0..self.to_send {
                ctx.send(self.server, Msg::Ping(i));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Pong(n) = msg {
                self.pongs.push((n, ctx.now()));
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn ping_pong_round_trip_takes_two_link_delays() {
        let mut sim = Simulator::new(42);
        let server = sim.add_node(Echo);
        let client = sim.add_node(Client {
            server,
            to_send: 3,
            pongs: vec![],
        });
        sim.add_link(client, server, LinkSpec::symmetric(Dur::from_millis(40)));
        sim.run_for(Dur::from_secs(1));
        let c = sim.node_as::<Client>(client);
        assert_eq!(c.pongs.len(), 3);
        for (_, t) in &c.pongs {
            assert_eq!(*t, Time::from_millis(80));
        }
    }

    #[test]
    fn lossy_link_drops_are_counted() {
        let mut sim = Simulator::new(1);
        let server = sim.add_node(Echo);
        let client = sim.add_node(Client {
            server,
            to_send: 2_000,
            pongs: vec![],
        });
        sim.add_link(
            client,
            server,
            LinkSpec::symmetric(Dur::from_millis(10)).loss(LossSpec::Bernoulli(0.5)),
        );
        sim.run_for(Dur::from_secs(5));
        let stats = sim.stats();
        assert!(stats.messages_dropped_loss > 500);
        let c = sim.node_as::<Client>(client);
        // Each direction loses ~half, so roughly a quarter of pings get pongs.
        assert!(
            c.pongs.len() > 300 && c.pongs.len() < 700,
            "{}",
            c.pongs.len()
        );
    }

    #[test]
    fn missing_route_counts_no_route() {
        let mut sim = Simulator::new(3);
        let server = sim.add_node(Echo);
        let client = sim.add_node(Client {
            server,
            to_send: 5,
            pongs: vec![],
        });
        // No link registered.
        sim.run_for(Dur::from_secs(1));
        assert_eq!(sim.stats().no_route, 5);
        assert!(sim.node_as::<Client>(client).pongs.is_empty());
    }

    struct TimerNode {
        fired: Vec<(u64, Time)>,
        cancel_second: bool,
    }
    impl Node<Msg> for TimerNode {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(Dur::from_millis(10), 1);
            let t2 = ctx.set_timer(Dur::from_millis(20), 2);
            ctx.set_timer(Dur::from_millis(30), 3);
            if self.cancel_second {
                ctx.cancel_timer(t2);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: TimerId, tag: u64) {
            self.fired.push((tag, ctx.now()));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn timers_fire_in_order_and_respect_cancellation() {
        let mut sim = Simulator::new(9);
        let n = sim.add_node(TimerNode {
            fired: vec![],
            cancel_second: true,
        });
        sim.run_for(Dur::from_secs(1));
        let node = sim.node_as::<TimerNode>(n);
        let tags: Vec<u64> = node.fired.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, vec![1, 3]);
        assert_eq!(node.fired[0].1, Time::from_millis(10));
        assert_eq!(node.fired[1].1, Time::from_millis(30));
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim: Simulator<Msg> = Simulator::new(5);
        sim.run_until(Time::from_secs(10));
        assert_eq!(sim.now(), Time::from_secs(10));
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(seed);
            let server = sim.add_node(Echo);
            let client = sim.add_node(Client {
                server,
                to_send: 500,
                pongs: vec![],
            });
            sim.add_link(
                client,
                server,
                LinkSpec::symmetric(Dur::from_millis(10)).loss(LossSpec::Bernoulli(0.3)),
            );
            sim.run_for(Dur::from_secs(2));
            sim.node_as::<Client>(client).pongs.clone()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn with_capacity_pre_sizes_and_behaves_like_new() {
        let run = |mut sim: Simulator<Msg>| {
            let server = sim.add_node(Echo);
            let client = sim.add_node(Client {
                server,
                to_send: 100,
                pongs: vec![],
            });
            sim.add_link(
                client,
                server,
                LinkSpec::symmetric(Dur::from_millis(10)).loss(LossSpec::Bernoulli(0.2)),
            );
            sim.run_for(Dur::from_secs(1));
            sim.node_as::<Client>(client).pongs.clone()
        };
        // Pre-sizing is purely an allocation hint: results are identical.
        assert_eq!(
            run(Simulator::new(4)),
            run(Simulator::with_capacity(4, 8, 1024))
        );
    }

    #[test]
    fn heap_and_calendar_backends_produce_identical_runs() {
        let run = |kind: QueueKind| {
            let mut sim = Simulator::with_queue(33, kind);
            let server = sim.add_node(Echo);
            let client = sim.add_node(Client {
                server,
                to_send: 400,
                pongs: vec![],
            });
            sim.add_link(
                client,
                server,
                LinkSpec::symmetric(Dur::from_millis(10)).loss(LossSpec::Bernoulli(0.25)),
            );
            sim.run_for(Dur::from_secs(2));
            (sim.node_as::<Client>(client).pongs.clone(), sim.stats())
        };
        assert_eq!(run(QueueKind::Heap), run(QueueKind::Calendar));
    }

    #[test]
    fn loss_on_one_link_does_not_perturb_another() {
        // Two independent client/server pairs.  The pongs observed by pair A
        // must be identical whether or not pair B exists and sends traffic —
        // the property per-link RNG streams exist to provide.
        let run = |with_b: bool| {
            let mut sim = Simulator::new(11);
            let server_a = sim.add_node(Echo);
            let client_a = sim.add_node(Client {
                server: server_a,
                to_send: 300,
                pongs: vec![],
            });
            sim.add_link(
                client_a,
                server_a,
                LinkSpec::symmetric(Dur::from_millis(10)).loss(LossSpec::Bernoulli(0.3)),
            );
            if with_b {
                let server_b = sim.add_node(Echo);
                let client_b = sim.add_node(Client {
                    server: server_b,
                    to_send: 300,
                    pongs: vec![],
                });
                sim.add_link(
                    client_b,
                    server_b,
                    LinkSpec::symmetric(Dur::from_millis(5)).loss(LossSpec::Bernoulli(0.5)),
                );
            }
            sim.run_for(Dur::from_secs(2));
            sim.node_as::<Client>(client_a).pongs.clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn down_nodes_drop_deliveries_and_suppress_timers() {
        let mut sim = Simulator::new(21);
        let server = sim.add_node(Echo);
        let client = sim.add_node(Client {
            server,
            to_send: 0,
            pongs: vec![],
        });
        sim.add_link(client, server, LinkSpec::symmetric(Dur::from_millis(10)));
        // A timer-driven pinger: sends one ping per 100 ms via timers.
        struct Pinger {
            server: NodeId,
            sent: u32,
        }
        impl Node<Msg> for Pinger {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(Dur::from_millis(100), 0);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerId, _tag: u64) {
                ctx.send(self.server, Msg::Ping(self.sent));
                self.sent += 1;
                ctx.set_timer(Dur::from_millis(100), 0);
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let pinger = sim.add_node(Pinger { server, sent: 0 });
        sim.add_link(pinger, server, LinkSpec::symmetric(Dur::from_millis(10)));

        // The server dies at t = 450 ms: pings 0..4 (due 110..410 ms) get
        // answered, later ones are dropped at the dead server.
        sim.schedule_down(server, Time::from_millis(450));
        sim.run_for(Dur::from_secs(1));
        assert!(sim.is_down(server));
        let stats = sim.stats();
        assert_eq!(stats.messages_dropped_down, 5, "pings 5..9 die at the DC");
        assert_eq!(sim.node_as::<Pinger>(pinger).sent, 10);

        // The pinger itself dies next run; its periodic timer is suppressed.
        let mut sim2 = Simulator::new(21);
        let server2 = sim2.add_node(Echo);
        let pinger2 = sim2.add_node(Pinger {
            server: server2,
            sent: 0,
        });
        sim2.add_link(pinger2, server2, LinkSpec::symmetric(Dur::from_millis(10)));
        sim2.schedule_down(pinger2, Time::from_millis(250));
        sim2.run_for(Dur::from_secs(1));
        assert_eq!(sim2.node_as::<Pinger>(pinger2).sent, 2);
        assert_eq!(sim2.stats().timers_suppressed_down, 1);
        let _ = client;
    }

    #[test]
    fn schedule_up_revives_a_node() {
        let mut sim = Simulator::new(22);
        let server = sim.add_node(Echo);
        let client = sim.add_node(Client {
            server,
            to_send: 0,
            pongs: vec![],
        });
        sim.add_link(client, server, LinkSpec::symmetric(Dur::from_millis(10)));
        sim.schedule_down(server, Time::from_millis(100));
        sim.schedule_up(server, Time::from_millis(300));
        sim.run_until(Time::from_millis(200));
        assert!(sim.is_down(server));
        sim.run_until(Time::from_millis(400));
        assert!(!sim.is_down(server));
    }

    #[test]
    fn down_transitions_replay_identically_across_backends() {
        let run = |kind: QueueKind| {
            let mut sim = Simulator::with_queue(33, kind);
            let server = sim.add_node(Echo);
            let client = sim.add_node(Client {
                server,
                to_send: 400,
                pongs: vec![],
            });
            sim.add_link(
                client,
                server,
                LinkSpec::symmetric(Dur::from_millis(10)).loss(LossSpec::Bernoulli(0.1)),
            );
            sim.schedule_down(server, Time::from_millis(5));
            sim.schedule_up(server, Time::from_millis(15));
            sim.run_for(Dur::from_secs(2));
            (sim.node_as::<Client>(client).pongs.clone(), sim.stats())
        };
        let heap = run(QueueKind::Heap);
        assert_eq!(heap, run(QueueKind::Calendar));
        assert!(heap.1.messages_dropped_down > 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn lossy_run(
            kind: QueueKind,
            seed: u64,
            loss_millis: u64,
            to_send: u32,
        ) -> (Vec<(u32, Time)>, SimStats) {
            let mut sim = Simulator::with_queue(seed, kind);
            let server = sim.add_node(Echo);
            let client = sim.add_node(Client {
                server,
                to_send,
                pongs: vec![],
            });
            sim.add_link(
                client,
                server,
                LinkSpec::symmetric(Dur::from_millis(10))
                    .loss(LossSpec::Bernoulli(loss_millis as f64 / 1000.0)),
            );
            sim.run_for(Dur::from_secs(2));
            let pongs = sim.node_as::<Client>(client).pongs.clone();
            (pongs, sim.stats())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Replay determinism holds for arbitrary seeds and loss rates,
            /// not just the hand-picked ones in the unit tests.
            #[test]
            fn prop_identical_seeds_replay_identically(
                seed: u64,
                loss_millis in 0u64..1000,
                to_send in 1u32..200,
            ) {
                prop_assert_eq!(
                    lossy_run(QueueKind::Calendar, seed, loss_millis, to_send),
                    lossy_run(QueueKind::Calendar, seed, loss_millis, to_send)
                );
            }

            /// The two scheduler backends are observationally identical for
            /// whole simulations, not just for raw pop order.
            #[test]
            fn prop_backends_replay_identically(
                seed: u64,
                loss_millis in 0u64..1000,
                to_send in 1u32..200,
            ) {
                prop_assert_eq!(
                    lossy_run(QueueKind::Heap, seed, loss_millis, to_send),
                    lossy_run(QueueKind::Calendar, seed, loss_millis, to_send)
                );
            }

            /// Conservation: every offered message is delivered, dropped by
            /// loss, or dropped by a queue — never silently lost — and the
            /// engine's counters agree with that.
            #[test]
            fn prop_message_accounting_balances(
                seed: u64,
                loss_millis in 0u64..1000,
                to_send in 1u32..200,
            ) {
                let (pongs, stats) = lossy_run(QueueKind::Calendar, seed, loss_millis, to_send);
                // Sent = delivered (queue drains fully within the horizon).
                prop_assert_eq!(stats.messages_sent, stats.messages_delivered);
                // Offered = pings from the client plus one pong per ping that
                // reached the server; every offer is either scheduled or
                // dropped by loss (no queue on this link).
                let pings_at_server = stats.messages_delivered - pongs.len() as u64;
                prop_assert_eq!(
                    stats.messages_sent + stats.messages_dropped_loss,
                    to_send as u64 + pings_at_server
                );
                // Pongs can never exceed pings.
                prop_assert!(pongs.len() as u64 <= to_send as u64);
                prop_assert_eq!(stats.no_route, 0);
            }

            /// The clock never runs backwards and all deliveries happen at
            /// link latency granularity.
            #[test]
            fn prop_delivery_times_are_monotone(seed: u64, to_send in 1u32..100) {
                let (pongs, _) = lossy_run(QueueKind::Calendar, seed, 100, to_send);
                for w in pongs.windows(2) {
                    prop_assert!(w[1].1 >= w[0].1, "pong times must be non-decreasing");
                }
                for (_, t) in &pongs {
                    // Round trip over two 10 ms hops.
                    prop_assert!(*t >= Time::from_millis(20));
                }
            }
        }
    }
}
