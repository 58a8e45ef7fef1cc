//! Live UDP prototype of the J-QoS data path.
//!
//! The simulator (`netsim` + `jqos-core`) answers *what the overlay should
//! do*; this crate answers *whether a real relay process can do it*.  It is
//! a sharded, multi-tenant relay dataplane over real loopback sockets:
//!
//! * [`wire`] — the datagram format shared by relay and endpoints, now
//!   including flow registration (`register(latency_budget)` → ack/nack);
//! * [`admission`] — the live admission path, which runs the *same*
//!   [`ServiceSelector`] logic the simulator uses to pick forwarding,
//!   caching, or coding per flow, plus the FNV flow→shard partitioner;
//! * [`shard`] — the per-shard worker loop: batched non-blocking reads,
//!   a bounded ingress queue with explicit shedding, per-service packet
//!   handling (forward / cache / encode parity) under a per-shard lock;
//! * [`relay`] — the [`Relay`] server wiring it together: one control
//!   socket for admission, N shard sockets/tasks, graceful shutdown with
//!   queue drain;
//! * [`metrics`] — per-shard counters and the [`RelayMetrics`] snapshot
//!   (admissions, rejections by reason, sheds by reason, queue highwater,
//!   per-flow service assignments);
//! * [`client`] — [`LoadWorker`], a multiplexed load-generation endpoint
//!   that drives hundreds of flows per socket with loss injection, NACK
//!   recovery and parity reconstruction.
//!
//! Everything is bounded: ingress queues shed (and count) when full, cache
//! and parity rings evict, the rejection history is capped.  Nothing on the
//! datagram hot path takes a cross-shard lock.
//!
//! [`ServiceSelector`]: jqos_core::select::ServiceSelector

pub mod admission;
pub mod client;
pub mod metrics;
pub mod relay;
pub mod shard;
pub mod wire;

pub use admission::{shard_for, Admission, AdmissionPolicy};
pub use client::{FlowSpec, FlowView, LoadWorker, WorkerStats};
pub use metrics::{FlowInfo, RelayMetrics, ShardSnapshot, ShedReason};
pub use relay::{Relay, RelayConfig};
pub use wire::{RejectReason, WireMsg};
