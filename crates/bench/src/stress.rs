//! Large-topology stress scenario for the netsim hot loop.
//!
//! The scenario is built for scheduler benchmarking, not protocol fidelity:
//! a hub node per *link group* serves hundreds of clients, every client
//! fires a burst of [`Msg::Nack`] pings per timer tick and the hub answers
//! each with a [`Msg::NackCheck`] — producing a deep, constantly churning
//! event backlog of realistic (~100-byte enum) messages, which is exactly
//! the regime where the seed `BinaryHeap` scheduler pays `O(log n)` payload
//! sifts per event and the calendar queue does not.
//!
//! Determinism is *defined* by the decomposition into link groups: each
//! group is its own [`Simulator`] seeded by
//! [`netsim::rng::group_seed`]`(master, group)`, so running the groups
//! serially or on worker threads ([`jqos_core::run_link_groups`]) produces
//! byte-identical results — a property the end-to-end replay tests pin.
//! Links use constant latencies and Bernoulli loss derived from integer
//! client indices, so the per-group digests are platform-stable (no libm in
//! the event path) and safe to hard-code in golden tests.

use std::any::Any;

use jqos_core::packet::{FlowId, Msg, NackReason};
use jqos_core::run_link_groups;
use netsim::prelude::*;
use netsim::rng::group_seed;
use netsim::sim::SimStats;

/// Parameters of the stress scenario.
#[derive(Clone, Copy, Debug)]
pub struct StressConfig {
    /// Independent link groups (each is its own sub-simulation).
    pub groups: usize,
    /// Clients attached to each group's hub.
    pub clients_per_group: usize,
    /// Pings each client sends per timer tick.
    pub pings_per_tick: usize,
    /// Client timer period.
    pub tick: Dur,
    /// Time during which clients generate traffic; after this the queue
    /// drains completely (exact message conservation).
    pub duration: Dur,
    /// Scheduler backend to run on.
    pub queue: QueueKind,
}

impl StressConfig {
    /// The full-size benchmark shape (~10⁷ events across all groups, with
    /// ~10⁶ of them in flight at steady state — deep enough that the seed
    /// heap's payload sifts run far outside cache).
    pub fn full() -> Self {
        StressConfig {
            groups: 2,
            clients_per_group: 1000,
            pings_per_tick: 10,
            tick: Dur::from_millis(5),
            duration: Dur::from_millis(1500),
            queue: QueueKind::default(),
        }
    }

    /// A CI-scale shape that keeps the same topology but finishes in well
    /// under a second.
    pub fn quick() -> Self {
        StressConfig {
            groups: 2,
            clients_per_group: 60,
            pings_per_tick: 3,
            tick: Dur::from_millis(20),
            duration: Dur::from_millis(400),
            queue: QueueKind::default(),
        }
    }

    /// Returns the config pinned to a specific scheduler backend.
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }
}

/// One-way latency of client `idx`'s link: constant 20–500 ms, spread
/// deterministically across clients (long tails keep a large event backlog
/// in flight).
fn client_latency(idx: usize) -> Dur {
    Dur::from_millis(20 + ((idx as u64).wrapping_mul(37) % 481))
}

/// Loss probability of client `idx`'s link in permille (0–49‰).
fn client_loss_permille(idx: usize) -> u64 {
    (idx as u64).wrapping_mul(13) % 50
}

struct Hub {
    pings: u64,
}

impl Node<Msg> for Hub {
    /// The hub's whole protocol: count each ping and answer it.
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        if let Msg::Nack { flow, seq, .. } = msg {
            self.pings += 1;
            ctx.send(from, Msg::NackCheck { flow, seq });
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct StressClient {
    hub: NodeId,
    flow: FlowId,
    next_seq: u64,
    pongs: u64,
    end: Time,
    tick: Dur,
    burst: usize,
}

impl Node<Msg> for StressClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        // Stagger first ticks across 10 ms so bursts do not all land on the
        // same timestamp (they would still be ordered deterministically, but
        // spreading them exercises the calendar buckets realistically).
        ctx.set_timer(Dur::from_millis(1 + self.flow.0 as u64 % 10), 0);
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        if matches!(msg, Msg::NackCheck { .. }) {
            self.pongs += 1;
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: TimerId, _tag: u64) {
        // Once traffic generation is over nothing is rescheduled, so the
        // queue drains completely.
        if ctx.now() >= self.end {
            return;
        }
        for _ in 0..self.burst {
            let ping = Msg::Nack {
                flow: self.flow,
                seq: self.next_seq,
                reason: NackReason::ShortTimeout,
            };
            self.next_seq += 1;
            ctx.send(self.hub, ping);
        }
        ctx.set_timer(self.tick, 0);
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Outcome of one link group's sub-simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupResult {
    /// Engine counters of the group's simulator.
    pub stats: SimStats,
    /// FNV-1a digest over the counters and every client's final state.
    pub digest: u64,
}

/// Aggregated outcome of a stress run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StressReport {
    /// Per-group results, in group order.
    pub groups: Vec<GroupResult>,
    /// Events processed across all groups.
    pub events_processed: u64,
    /// Messages scheduled for delivery across all groups.
    pub messages_sent: u64,
    /// Messages handed to nodes across all groups.
    pub messages_delivered: u64,
    /// Messages dropped by loss models across all groups.
    pub messages_dropped_loss: u64,
    /// Timers fired across all groups.
    pub timers_fired: u64,
    /// FNV-1a digest folding the per-group digests in group order; equal
    /// digests mean byte-identical runs.
    pub digest: u64,
}

/// The node template for client `c` of a group whose hub is `hub`.
fn client_node(cfg: &StressConfig, hub: NodeId, c: usize) -> StressClient {
    StressClient {
        hub,
        flow: FlowId(c as u32),
        next_seq: 0,
        pongs: 0,
        end: Time::ZERO + cfg.duration,
        tick: cfg.tick,
        burst: cfg.pings_per_tick,
    }
}

/// The link spec of client `c` (constant latency, Bernoulli loss).
fn client_link(c: usize) -> LinkSpec {
    LinkSpec::symmetric(client_latency(c))
        .loss(LossSpec::Bernoulli(client_loss_permille(c) as f64 / 1000.0))
}

/// Runs one link group's sub-simulation to completion and digests it.
pub fn run_group(cfg: &StressConfig, master_seed: u64, group: usize) -> GroupResult {
    let seed = group_seed(master_seed, group as u64);
    let mut sim: Simulator<Msg> =
        Simulator::with_capacity_and_queue(seed, cfg.queue, cfg.clients_per_group + 1, 64 * 1024);
    let hub = sim.add_node(Hub { pings: 0 });
    let end = Time::ZERO + cfg.duration;
    let mut clients = Vec::with_capacity(cfg.clients_per_group);
    for c in 0..cfg.clients_per_group {
        let client = sim.add_node(client_node(cfg, hub, c));
        sim.add_link(client, hub, client_link(c));
        clients.push(client);
    }
    // Clients stop scheduling at `end`; one extra second covers the final
    // in-flight round trips (max one-way latency is 500 ms).
    sim.run_until(end + Dur::from_secs(1));
    assert_eq!(sim.pending_events(), 0, "stress queue must drain");

    // The digest folds the engine counters and every node's final state.
    let stats = sim.stats();
    let mut digest = FNV_OFFSET;
    for counter in [
        stats.messages_sent,
        stats.messages_delivered,
        stats.messages_dropped_loss,
        stats.timers_fired,
        stats.events_processed,
        sim.node_as::<Hub>(hub).pings,
    ] {
        fnv_mix(&mut digest, counter);
    }
    for &id in &clients {
        let client = sim.node_as::<StressClient>(id);
        fnv_mix(&mut digest, client.next_seq);
        fnv_mix(&mut digest, client.pongs);
    }
    GroupResult { stats, digest }
}

/// Runs the whole stress scenario: `cfg.groups` independent sub-simulations
/// on up to `intra_threads` workers (1 = intra-point parallelism off).
///
/// The report — including its digest — is byte-identical for any
/// `intra_threads` value and for either scheduler backend.
pub fn run_stress(cfg: &StressConfig, master_seed: u64, intra_threads: usize) -> StressReport {
    let groups = run_link_groups(cfg.groups, intra_threads, |g| {
        run_group(cfg, master_seed, g)
    });
    let mut digest = FNV_OFFSET;
    let mut report = StressReport {
        events_processed: 0,
        messages_sent: 0,
        messages_delivered: 0,
        messages_dropped_loss: 0,
        timers_fired: 0,
        digest: 0,
        groups,
    };
    for g in &report.groups {
        report.events_processed += g.stats.events_processed;
        report.messages_sent += g.stats.messages_sent;
        report.messages_delivered += g.stats.messages_delivered;
        report.messages_dropped_loss += g.stats.messages_dropped_loss;
        report.timers_fired += g.stats.timers_fired;
        fnv_mix(&mut digest, g.digest);
    }
    report.digest = digest;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_conserves_messages_and_replays_identically() {
        let cfg = StressConfig::quick();
        let a = run_stress(&cfg, 42, 1);
        assert_eq!(a.messages_sent, a.messages_delivered, "queue must drain");
        assert!(a.events_processed > 10_000, "{}", a.events_processed);
        assert!(a.messages_dropped_loss > 0, "loss models must engage");
        let b = run_stress(&cfg, 42, 1);
        assert_eq!(a, b);
        assert_ne!(a.digest, run_stress(&cfg, 43, 1).digest);
    }

    #[test]
    fn backends_and_intra_threads_agree() {
        let heap = StressConfig::quick().with_queue(QueueKind::Heap);
        let cal = StressConfig::quick().with_queue(QueueKind::Calendar);
        let serial = run_stress(&cal, 7, 1);
        assert_eq!(serial, run_stress(&heap, 7, 1), "backends must agree");
        assert_eq!(
            serial,
            run_stress(&cal, 7, 3),
            "intra threads must not matter"
        );
    }
}
