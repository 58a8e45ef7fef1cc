//! Relay observability: per-shard counters and whole-relay snapshots.
//!
//! The loopback tests and the benchmark's `relay-*` workloads (`benchmark/`)
//! read the relay through these, so each counter is documented with the
//! event that bumps it.  Shard counters are plain atomics updated by the owning shard task
//! (and read by anyone), which keeps the hot path free of locks for
//! accounting.

use std::sync::atomic::{AtomicU64, Ordering};

use jqos_core::select::ServiceKind;

use crate::wire::RejectReason;

/// Why a shard shed (deliberately dropped) a packet.  Shedding is always
/// counted — the relay never lets a queue or cache grow without bound, and
/// it never drops silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded per-shard ingress queue was full for this wakeup.
    QueueFull,
    /// The datagram did not parse as a [`crate::wire::WireMsg`].
    Malformed,
    /// Data or NACK for a flow the shard has no admission record for.
    UnknownFlow,
    /// The egress socket buffer was full (`try_send_to` back-pressure).
    EgressFull,
}

/// Live counters for one shard (updated lock-free by the shard task).
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Data packets accepted and processed.
    pub data_rx: AtomicU64,
    /// NACKs received.
    pub nacks_rx: AtomicU64,
    /// Recoveries served from the caching ring.
    pub recoveries_served: AtomicU64,
    /// NACKs that found nothing cached (already evicted or never seen).
    pub recovery_misses: AtomicU64,
    /// Parity shards sent in answer to coding-service NACKs.
    pub parity_served: AtomicU64,
    /// Packets forwarded downstream (forwarding service).
    pub forwarded: AtomicU64,
    /// Payloads inserted into caching rings.
    pub cached: AtomicU64,
    /// Cache-ring entries evicted to stay within the per-flow bound.
    pub cache_evicted: AtomicU64,
    /// Parity batches evicted to stay within the per-flow bound.
    pub parity_evicted: AtomicU64,
    /// Coded batches produced by the live `erasure::BatchCodec` path.
    pub batches_encoded: AtomicU64,
    /// Coding accumulators restarted on a sequence gap (the dropped partial
    /// batch can never serve recovery, so the restart is counted).
    pub coding_resyncs: AtomicU64,
    /// Wakeups of the shard task that found at least one datagram.
    pub wakeups: AtomicU64,
    /// `recvfrom` syscalls issued (including the empty one ending a batch).
    pub recv_syscalls: AtomicU64,
    /// Datagrams pulled off the socket (across all wakeups).
    pub datagrams_rx: AtomicU64,
    /// Datagrams written to the socket.
    pub datagrams_tx: AtomicU64,
    /// Sheds by reason.
    pub shed_queue_full: AtomicU64,
    /// Malformed datagrams (counted, never silently dropped).
    pub malformed_rx: AtomicU64,
    /// Packets for unadmitted flows.
    pub shed_unknown_flow: AtomicU64,
    /// Egress datagrams dropped because the socket buffer was full.
    pub shed_egress_full: AtomicU64,
    /// Highest ingress-queue depth ever observed (≤ configured capacity).
    pub queue_highwater: AtomicU64,
}

impl ShardCounters {
    /// Bumps the shed counter for `reason`.
    pub fn shed(&self, reason: ShedReason) {
        let ctr = match reason {
            ShedReason::QueueFull => &self.shed_queue_full,
            ShedReason::Malformed => &self.malformed_rx,
            ShedReason::UnknownFlow => &self.shed_unknown_flow,
            ShedReason::EgressFull => &self.shed_egress_full,
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the queue highwater mark to `depth` if it is a new maximum.
    pub fn note_queue_depth(&self, depth: usize) {
        self.queue_highwater
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Copies the live counters into a plain snapshot.
    pub fn snapshot(&self, shard: usize, flows: usize) -> ShardSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ShardSnapshot {
            shard,
            flows,
            data_rx: load(&self.data_rx),
            nacks_rx: load(&self.nacks_rx),
            recoveries_served: load(&self.recoveries_served),
            recovery_misses: load(&self.recovery_misses),
            parity_served: load(&self.parity_served),
            forwarded: load(&self.forwarded),
            cached: load(&self.cached),
            cache_evicted: load(&self.cache_evicted),
            parity_evicted: load(&self.parity_evicted),
            batches_encoded: load(&self.batches_encoded),
            coding_resyncs: load(&self.coding_resyncs),
            wakeups: load(&self.wakeups),
            recv_syscalls: load(&self.recv_syscalls),
            datagrams_rx: load(&self.datagrams_rx),
            datagrams_tx: load(&self.datagrams_tx),
            shed_queue_full: load(&self.shed_queue_full),
            malformed_rx: load(&self.malformed_rx),
            shed_unknown_flow: load(&self.shed_unknown_flow),
            shed_egress_full: load(&self.shed_egress_full),
            queue_highwater: load(&self.queue_highwater),
        }
    }
}

/// A point-in-time copy of one shard's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Flows currently resident in this shard's table.
    pub flows: usize,
    /// See [`ShardCounters::data_rx`].
    pub data_rx: u64,
    /// See [`ShardCounters::nacks_rx`].
    pub nacks_rx: u64,
    /// See [`ShardCounters::recoveries_served`].
    pub recoveries_served: u64,
    /// See [`ShardCounters::recovery_misses`].
    pub recovery_misses: u64,
    /// See [`ShardCounters::parity_served`].
    pub parity_served: u64,
    /// See [`ShardCounters::forwarded`].
    pub forwarded: u64,
    /// See [`ShardCounters::cached`].
    pub cached: u64,
    /// See [`ShardCounters::cache_evicted`].
    pub cache_evicted: u64,
    /// See [`ShardCounters::parity_evicted`].
    pub parity_evicted: u64,
    /// See [`ShardCounters::batches_encoded`].
    pub batches_encoded: u64,
    /// See [`ShardCounters::coding_resyncs`].
    pub coding_resyncs: u64,
    /// See [`ShardCounters::wakeups`].
    pub wakeups: u64,
    /// See [`ShardCounters::recv_syscalls`].
    pub recv_syscalls: u64,
    /// See [`ShardCounters::datagrams_rx`].
    pub datagrams_rx: u64,
    /// See [`ShardCounters::datagrams_tx`].
    pub datagrams_tx: u64,
    /// See [`ShardCounters::shed_queue_full`].
    pub shed_queue_full: u64,
    /// See [`ShardCounters::malformed_rx`].
    pub malformed_rx: u64,
    /// See [`ShardCounters::shed_unknown_flow`].
    pub shed_unknown_flow: u64,
    /// See [`ShardCounters::shed_egress_full`].
    pub shed_egress_full: u64,
    /// See [`ShardCounters::queue_highwater`].
    pub queue_highwater: u64,
}

impl ShardSnapshot {
    /// Datagrams per ingress wakeup — the syscall-batching win (1.0 means no
    /// batching ever happened).
    pub fn avg_batch(&self) -> f64 {
        if self.wakeups == 0 {
            0.0
        } else {
            self.datagrams_rx as f64 / self.wakeups as f64
        }
    }

    /// Field-wise sum (shard/flows aside), used for whole-relay totals and
    /// for differencing two snapshots of a measurement window.
    pub fn merge(&mut self, other: &ShardSnapshot) {
        self.flows += other.flows;
        self.data_rx += other.data_rx;
        self.nacks_rx += other.nacks_rx;
        self.recoveries_served += other.recoveries_served;
        self.recovery_misses += other.recovery_misses;
        self.parity_served += other.parity_served;
        self.forwarded += other.forwarded;
        self.cached += other.cached;
        self.cache_evicted += other.cache_evicted;
        self.parity_evicted += other.parity_evicted;
        self.batches_encoded += other.batches_encoded;
        self.coding_resyncs += other.coding_resyncs;
        self.wakeups += other.wakeups;
        self.recv_syscalls += other.recv_syscalls;
        self.datagrams_rx += other.datagrams_rx;
        self.datagrams_tx += other.datagrams_tx;
        self.shed_queue_full += other.shed_queue_full;
        self.malformed_rx += other.malformed_rx;
        self.shed_unknown_flow += other.shed_unknown_flow;
        self.shed_egress_full += other.shed_egress_full;
        self.queue_highwater = self.queue_highwater.max(other.queue_highwater);
    }

    /// Total deliberately-shed packets (all reasons).
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.malformed_rx + self.shed_unknown_flow + self.shed_egress_full
    }
}

/// One admitted flow as the relay sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowInfo {
    /// Flow identifier.
    pub flow: u32,
    /// Shard owning the flow.
    pub shard: usize,
    /// Service the admission path assigned (the live `select.rs` decision).
    pub service: ServiceKind,
    /// The budget the flow registered with.
    pub budget_ms: u32,
}

/// A whole-relay snapshot: control-plane counters, per-shard counters and
/// the admitted flow table.
#[derive(Clone, Debug, Default)]
pub struct RelayMetrics {
    /// Flows admitted by the control task.
    pub admitted: u64,
    /// Flows rejected for an infeasible latency budget.
    pub rejected_budget: u64,
    /// Flows rejected because the target shard was full.
    pub rejected_shard_full: u64,
    /// Malformed datagrams on the control socket.
    pub control_malformed: u64,
    /// Recently rejected flows with their reasons (bounded history).
    pub rejections: Vec<(u32, RejectReason)>,
    /// Per-shard counter snapshots, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// Every admitted flow (flow id, shard, assigned service, budget).
    pub flows: Vec<FlowInfo>,
}

impl RelayMetrics {
    /// Sum of all shard counters.
    pub fn totals(&self) -> ShardSnapshot {
        let mut total = ShardSnapshot::default();
        for s in &self.shards {
            total.merge(s);
        }
        total
    }

    /// The service the relay assigned to `flow`, if admitted.
    pub fn service_of(&self, flow: u32) -> Option<ServiceKind> {
        self.flows
            .iter()
            .find(|f| f.flow == flow)
            .map(|f| f.service)
    }

    /// The recorded rejection reason for `flow`, if it was refused.
    pub fn rejection_of(&self, flow: u32) -> Option<RejectReason> {
        self.rejections
            .iter()
            .find(|(f, _)| *f == flow)
            .map(|(_, r)| *r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_reasons_land_in_distinct_counters() {
        let c = ShardCounters::default();
        c.shed(ShedReason::QueueFull);
        c.shed(ShedReason::Malformed);
        c.shed(ShedReason::Malformed);
        c.shed(ShedReason::UnknownFlow);
        c.shed(ShedReason::EgressFull);
        let snap = c.snapshot(0, 0);
        assert_eq!(snap.shed_queue_full, 1);
        assert_eq!(snap.malformed_rx, 2);
        assert_eq!(snap.shed_unknown_flow, 1);
        assert_eq!(snap.shed_egress_full, 1);
        assert_eq!(snap.shed_total(), 5);
    }

    #[test]
    fn highwater_is_monotone() {
        let c = ShardCounters::default();
        c.note_queue_depth(4);
        c.note_queue_depth(9);
        c.note_queue_depth(2);
        assert_eq!(c.snapshot(0, 0).queue_highwater, 9);
    }

    #[test]
    fn totals_merge_and_lookups_work() {
        let mut m = RelayMetrics::default();
        let c = ShardCounters::default();
        c.data_rx.store(5, Ordering::Relaxed);
        m.shards.push(c.snapshot(0, 2));
        c.data_rx.store(7, Ordering::Relaxed);
        m.shards.push(c.snapshot(1, 3));
        m.flows.push(FlowInfo {
            flow: 9,
            shard: 1,
            service: ServiceKind::Caching,
            budget_ms: 100,
        });
        m.rejections.push((11, RejectReason::BudgetInfeasible));
        let t = m.totals();
        assert_eq!(t.data_rx, 12);
        assert_eq!(t.flows, 5);
        assert_eq!(m.service_of(9), Some(ServiceKind::Caching));
        assert_eq!(m.service_of(1), None);
        assert_eq!(m.rejection_of(11), Some(RejectReason::BudgetInfeasible));
    }
}
