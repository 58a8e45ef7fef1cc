//! The sharded DC relay server.
//!
//! A [`Relay`] is one data-center relay process: a control socket running
//! the wire admission path ([`crate::admission`]) plus `shards` dataplane
//! sockets, each owned by one thread ([`crate::shard`]).  Flows are
//! hash-partitioned onto shards at admission; the `RegisterAck` tells the
//! client which shard port its data plane lives on, so after admission the
//! hot path touches only per-shard state.
//!
//! Lifecycle: [`Relay::bind`] → [`Relay::start`] → traffic →
//! [`Relay::shutdown`].  Every thread blocks in a receive with a
//! [`STOP_POLL`] read timeout, so it wakes on a datagram and notices a stop
//! within that bound.  Shutdown is graceful: a stop flag is raised, every
//! shard drains its socket, and `shutdown` joins every thread before
//! returning the final [`RelayMetrics`] — no aborted threads, no packets
//! silently stranded (the seed prototype's `run()` could only be aborted
//! mid-loop).

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use jqos_core::select::{PathDelays, ServiceKind};
use netsim::Dur;

use crate::admission::{shard_for, Admission, AdmissionPolicy};
use crate::metrics::{FlowInfo, RelayMetrics};
use crate::shard::{run_shard, FlowState, ShardState, STOP_POLL};
use crate::sys::MAX_BATCH;
use crate::wire::{service_to_wire, RejectReason, Wire, WireMsg, WireView};

/// How many rejection records the control plane keeps for metrics/tests.
const REJECTION_HISTORY: usize = 1024;

/// Configuration of a [`Relay`].
#[derive(Clone, Copy, Debug)]
pub struct RelayConfig {
    /// Number of dataplane shards (threads / sockets).
    pub shards: usize,
    /// Path-delay model the admission selector prices services against
    /// (the relay's view of the Figure-2 segments).
    pub delays: PathDelays,
    /// Reject flows whose budget not even forwarding can meet (instead of
    /// degrading them to forwarding like the simulator's selector does).
    pub strict_admission: bool,
    /// Receive slots per shard: the most datagrams one receive returns
    /// (1 to 64).
    pub recv_batch: usize,
    /// Caching service: copies retained per flow.
    pub cache_per_flow: usize,
    /// Coding service: encoded batches retained per flow.
    pub parity_per_flow: usize,
    /// Coding service: data packets per batch (`k`).
    pub coding_k: usize,
    /// Coding service: parity shards per batch (`m`).
    pub coding_m: usize,
    /// Admission bound on each shard's flow table.
    pub max_flows_per_shard: usize,
}

impl RelayConfig {
    /// The §6.1 wide-area delay model (75 ms direct path, 10 ms access
    /// segments, 70 ms inter-DC), the default the relay prices services
    /// against.
    pub fn wide_area_delays() -> PathDelays {
        PathDelays::symmetric(
            Dur::from_millis(75),
            Dur::from_millis(10),
            Dur::from_millis(70),
            Dur::from_millis(10),
        )
    }
}

impl Default for RelayConfig {
    fn default() -> Self {
        RelayConfig {
            shards: 2,
            delays: RelayConfig::wide_area_delays(),
            strict_admission: true,
            recv_batch: 64,
            cache_per_flow: 64,
            parity_per_flow: 8,
            coding_k: 8,
            coding_m: 2,
            max_flows_per_shard: 8192,
        }
    }
}

/// Control-plane counters and rejection history.
#[derive(Default)]
struct ControlState {
    admitted: AtomicU64,
    rejected_budget: AtomicU64,
    rejected_shard_full: AtomicU64,
    malformed: AtomicU64,
    rejections: Mutex<VecDeque<(u32, RejectReason)>>,
}

/// Everything the relay's threads share.
struct Shared {
    cfg: RelayConfig,
    policy: AdmissionPolicy,
    control: UdpSocket,
    control_state: ControlState,
    shards: Vec<ShardState>,
    shard_addrs: Vec<SocketAddr>,
    stop: AtomicBool,
}

/// A sharded, multi-tenant DC relay on real UDP sockets.
pub struct Relay {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Relay {
    /// Binds the control socket on `addr` (use port 0 for an ephemeral
    /// port) and one dataplane socket per shard on the same interface.
    // `async` only because the benchmark calls it through `tokio::runtime::block_on`.
    pub async fn bind(addr: &str, cfg: RelayConfig) -> io::Result<Relay> {
        assert!(cfg.shards >= 1, "a relay needs at least one shard");
        assert!(
            (1..=MAX_BATCH).contains(&cfg.recv_batch),
            "recv_batch must be 1..={MAX_BATCH}"
        );
        assert!(
            cfg.coding_k >= 2 && cfg.coding_m >= 1 && cfg.coding_k + cfg.coding_m <= 255,
            "coding parameters must satisfy 2 <= k, 1 <= m, k + m <= 255"
        );
        let control = UdpSocket::bind(addr)?;
        control.set_read_timeout(Some(STOP_POLL))?;
        let ip = control.local_addr()?.ip();
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut shard_addrs = Vec::with_capacity(cfg.shards);
        for index in 0..cfg.shards {
            let socket = UdpSocket::bind((ip, 0))?;
            socket.set_read_timeout(Some(STOP_POLL))?;
            shard_addrs.push(socket.local_addr()?);
            let (flows, counters) = Default::default();
            shards.push(ShardState {
                index,
                socket,
                flows,
                counters,
            });
        }
        let policy =
            AdmissionPolicy::new(cfg.delays, cfg.strict_admission, cfg.max_flows_per_shard);
        let shared = Shared {
            cfg,
            policy,
            control,
            control_state: ControlState::default(),
            shards,
            shard_addrs,
            stop: AtomicBool::new(false),
        };
        Ok(Relay {
            shared: Arc::new(shared),
            threads: Vec::new(),
        })
    }

    /// The admission (control) socket address clients register against.
    pub fn control_addr(&self) -> io::Result<SocketAddr> {
        self.shared.control.local_addr()
    }

    /// Dataplane socket addresses, indexed by shard.
    pub fn shard_addrs(&self) -> &[SocketAddr] {
        &self.shared.shard_addrs
    }

    /// Spawns the control thread and one thread per shard.  Idempotent
    /// calls are a bug: panics if already started.
    pub fn start(&mut self) {
        assert!(self.threads.is_empty(), "relay already started");
        for i in 0..self.shared.shards.len() {
            let s = self.shared.clone();
            let shard = move || run_shard(&s.shards[i], &s.cfg, &s.stop);
            self.threads.push(spawn(format!("jqos-shard-{i}"), shard));
        }
        let s = self.shared.clone();
        let control = move || s.run_control();
        self.threads
            .push(spawn("jqos-control".to_string(), control));
    }

    /// Raises the graceful-stop signal, waits for every thread to drain its
    /// socket and exit, and returns the final metrics snapshot.
    // `async` only because the benchmark calls it through `tokio::runtime::block_on`.
    pub async fn shutdown(&mut self) -> RelayMetrics {
        self.stop();
        self.metrics()
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            // A panicked thread must not wedge shutdown: its counters are
            // still reported.
            let _ = thread.join();
        }
    }

    /// A point-in-time snapshot of control-plane and per-shard counters
    /// plus the admitted flow table.
    pub fn metrics(&self) -> RelayMetrics {
        let c = &self.shared.control_state;
        let mut m = RelayMetrics {
            admitted: c.admitted.load(Ordering::Relaxed),
            rejected_budget: c.rejected_budget.load(Ordering::Relaxed),
            rejected_shard_full: c.rejected_shard_full.load(Ordering::Relaxed),
            control_malformed: c.malformed.load(Ordering::Relaxed),
            rejections: c
                .rejections
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .copied()
                .collect(),
            shards: Vec::with_capacity(self.shared.shards.len()),
            flows: Vec::new(),
        };
        for shard in &self.shared.shards {
            let flows = shard.flows.lock().unwrap_or_else(PoisonError::into_inner);
            m.shards
                .push(shard.counters.snapshot(shard.index, flows.len()));
            for (flow, fs) in flows.iter() {
                m.flows.push(FlowInfo {
                    flow: *flow,
                    shard: shard.index,
                    service: fs.service,
                    budget_ms: fs.budget_ms,
                });
            }
        }
        m.flows.sort_by_key(|f| f.flow);
        m
    }
}

impl Drop for Relay {
    /// A relay dropped without [`Relay::shutdown`] still stops and joins its
    /// threads (within [`STOP_POLL`] plus the drain).
    fn drop(&mut self) {
        self.stop();
    }
}

fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("spawn relay thread")
}

impl Shared {
    /// The control thread: admission over the wire.
    fn run_control(&self) {
        let mut buf = vec![0u8; 2048];
        let mut reply = Vec::with_capacity(16);
        while !self.stop.load(Ordering::Relaxed) {
            // A timeout only re-checks the stop flag.
            let Ok((len, from)) = self.control.recv_from(&mut buf) else {
                continue;
            };
            match WireView::parse(&buf[..len]) {
                Some(Wire::Register {
                    flow,
                    budget_ms,
                    loss_tolerant,
                }) => {
                    self.admit(flow, budget_ms, loss_tolerant, from)
                        .encode_into(&mut reply);
                    // The socket blocks: a momentarily full buffer delays an
                    // admission verdict instead of dropping it.
                    let _ = self.control.send_to(&reply, from);
                }
                // Garbage, and data-plane traffic on the control socket (a
                // client bug), are counted together.
                _ => {
                    self.control_state.malformed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Decides one registration; a duplicate (a retry) is re-acked
    /// idempotently.
    fn admit(&self, flow: u32, budget_ms: u32, loss_tolerant: bool, from: SocketAddr) -> WireMsg {
        let shard = shard_for(flow, self.cfg.shards);
        let mut flows = self.shards[shard]
            .flows
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = flows.get(&flow) {
            return self.ack(flow, existing.service, shard);
        }
        match self.policy.decide(budget_ms, loss_tolerant, flows.len()) {
            Admission::Accept(sel) => {
                flows.insert(
                    flow,
                    FlowState::new(sel.service, from, budget_ms, &self.cfg),
                );
                self.control_state.admitted.fetch_add(1, Ordering::Relaxed);
                self.ack(flow, sel.service, shard)
            }
            Admission::Reject(reason) => {
                self.reject(flow, reason);
                WireMsg::RegisterNack {
                    flow,
                    reason: reason.as_u8(),
                }
            }
        }
    }

    /// Counts a rejection and keeps it in the bounded history.
    fn reject(&self, flow: u32, reason: RejectReason) {
        let c = &self.control_state;
        match reason {
            RejectReason::BudgetInfeasible => &c.rejected_budget,
            RejectReason::ShardFull => &c.rejected_shard_full,
        }
        .fetch_add(1, Ordering::Relaxed);
        let mut hist = c.rejections.lock().unwrap_or_else(PoisonError::into_inner);
        if hist.len() >= REJECTION_HISTORY {
            hist.pop_front();
        }
        hist.push_back((flow, reason));
    }

    /// The `RegisterAck` for a flow admitted to `shard`.
    fn ack(&self, flow: u32, service: ServiceKind, shard: usize) -> WireMsg {
        let coding = service == ServiceKind::Coding;
        WireMsg::RegisterAck {
            flow,
            service: service_to_wire(service),
            shard: shard as u16,
            port: self.shard_addrs[shard].port(),
            coding_k: if coding { self.cfg.coding_k as u8 } else { 0 },
            coding_m: if coding { self.cfg.coding_m as u8 } else { 0 },
        }
    }
}
