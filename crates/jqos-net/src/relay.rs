//! The sharded DC relay server.
//!
//! A [`Relay`] is one data-center relay process: a control socket running
//! the wire admission path ([`crate::admission`]) plus `shards` dataplane
//! sockets, each owned by one worker task ([`crate::shard`]).  Flows are
//! hash-partitioned onto shards at admission; the `RegisterAck` tells the
//! client which shard port its data plane lives on, so after admission the
//! hot path touches only per-shard state.
//!
//! Lifecycle: [`Relay::bind`] → [`Relay::start`] → traffic →
//! [`Relay::shutdown`].  Shutdown is graceful: a stop flag is raised, every
//! task drains its socket and bounded queue, and `shutdown` awaits all task
//! exits before returning the final [`RelayMetrics`] — no aborted tasks, no
//! packets silently stranded in a queue (the seed prototype's `run()` could
//! only be aborted mid-loop).

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use jqos_core::select::PathDelays;
use netsim::Dur;
use tokio::net::UdpSocket;
use tokio::task::JoinHandle;

use crate::admission::{shard_for, Admission, AdmissionPolicy};
use crate::metrics::{FlowInfo, RelayMetrics};
use crate::shard::{run_shard, FlowState, ShardState};
use crate::wire::{service_to_wire, RejectReason, WireMsg};

/// How many rejection records the control plane keeps for metrics/tests.
const REJECTION_HISTORY: usize = 1024;

/// Configuration of a [`Relay`].
#[derive(Clone, Copy, Debug)]
pub struct RelayConfig {
    /// Number of dataplane shards (worker tasks / sockets).
    pub shards: usize,
    /// Path-delay model the admission selector prices services against
    /// (the relay's view of the Figure-2 segments).
    pub delays: PathDelays,
    /// Reject flows whose budget not even forwarding can meet (instead of
    /// degrading them to forwarding like the simulator's selector does).
    pub strict_admission: bool,
    /// Bounded ingress-queue capacity per shard (messages per wakeup).
    pub queue_capacity: usize,
    /// Maximum datagrams pulled off the socket per wakeup.
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
            queue_capacity: 512,
            recv_batch: 256,
            cache_per_flow: 64,
            parity_per_flow: 8,
            coding_k: 8,
            coding_m: 2,
            max_flows_per_shard: 8192,
        }
    }
}

/// Control-plane counters and rejection history.
pub(crate) struct ControlState {
    admitted: AtomicU64,
    rejected_budget: AtomicU64,
    rejected_shard_full: AtomicU64,
    malformed: AtomicU64,
    rejections: Mutex<VecDeque<(u32, RejectReason)>>,
}

impl ControlState {
    fn new() -> Self {
        ControlState {
            admitted: AtomicU64::new(0),
            rejected_budget: AtomicU64::new(0),
            rejected_shard_full: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            rejections: Mutex::new(VecDeque::new()),
        }
    }

    fn record_rejection(&self, flow: u32, reason: RejectReason) {
        match reason {
            RejectReason::BudgetInfeasible => {
                self.rejected_budget.fetch_add(1, Ordering::Relaxed);
            }
            RejectReason::ShardFull => {
                self.rejected_shard_full.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut hist = self
            .rejections
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if hist.len() >= REJECTION_HISTORY {
            hist.pop_front();
        }
        hist.push_back((flow, reason));
    }
}

/// A sharded, multi-tenant DC relay on real UDP sockets.
pub struct Relay {
    control: Arc<UdpSocket>,
    shards: Vec<Arc<ShardState>>,
    shard_addrs: Vec<SocketAddr>,
    control_state: Arc<ControlState>,
    cfg: Arc<RelayConfig>,
    policy: Arc<AdmissionPolicy>,
    stop: Arc<AtomicBool>,
    tasks: Vec<JoinHandle<()>>,
}

impl Relay {
    /// Binds the control socket on `addr` (use port 0 for an ephemeral
    /// port) and one dataplane socket per shard on the same interface.
    pub async fn bind(addr: &str, cfg: RelayConfig) -> io::Result<Relay> {
        assert!(cfg.shards >= 1, "a relay needs at least one shard");
        assert!(
            cfg.coding_k >= 2 && cfg.coding_m >= 1 && cfg.coding_k + cfg.coding_m <= 255,
            "coding parameters must satisfy 2 <= k, 1 <= m, k + m <= 255"
        );
        let control = Arc::new(UdpSocket::bind(addr).await?);
        let ip = control.local_addr()?.ip();
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut shard_addrs = Vec::with_capacity(cfg.shards);
        for index in 0..cfg.shards {
            let socket = Arc::new(UdpSocket::bind(&format!("{ip}:0")).await?);
            shard_addrs.push(socket.local_addr()?);
            shards.push(Arc::new(ShardState::new(index, socket)));
        }
        let policy =
            AdmissionPolicy::new(cfg.delays, cfg.strict_admission, cfg.max_flows_per_shard);
        Ok(Relay {
            control,
            shards,
            shard_addrs,
            control_state: Arc::new(ControlState::new()),
            cfg: Arc::new(cfg),
            policy: Arc::new(policy),
            stop: Arc::new(AtomicBool::new(false)),
            tasks: Vec::new(),
        })
    }

    /// The admission (control) socket address clients register against.
    pub fn control_addr(&self) -> io::Result<SocketAddr> {
        self.control.local_addr()
    }

    /// Dataplane socket addresses, indexed by shard.
    pub fn shard_addrs(&self) -> &[SocketAddr] {
        &self.shard_addrs
    }

    /// The relay's configuration.
    pub fn config(&self) -> &RelayConfig {
        &self.cfg
    }

    /// Spawns the control task and one task per shard.  Idempotent calls
    /// are a bug: panics if already started.
    pub fn start(&mut self) {
        assert!(self.tasks.is_empty(), "relay already started");
        for shard in &self.shards {
            let shard = shard.clone();
            let cfg = self.cfg.clone();
            let stop = self.stop.clone();
            self.tasks.push(tokio::spawn(
                async move { run_shard(shard, cfg, stop).await },
            ));
        }
        let control = self.control.clone();
        let shards: Vec<Arc<ShardState>> = self.shards.clone();
        let shard_addrs = self.shard_addrs.clone();
        let control_state = self.control_state.clone();
        let cfg = self.cfg.clone();
        let policy = self.policy.clone();
        let stop = self.stop.clone();
        self.tasks.push(tokio::spawn(async move {
            run_control(
                control,
                shards,
                shard_addrs,
                control_state,
                cfg,
                policy,
                stop,
            )
            .await;
        }));
    }

    /// Raises the graceful-stop signal, waits for every task to drain its
    /// queues and exit, and returns the final metrics snapshot.
    pub async fn shutdown(&mut self) -> RelayMetrics {
        self.stop.store(true, Ordering::Relaxed);
        for task in self.tasks.drain(..) {
            // A shard task only returns (never panics) — but a poisoned
            // join must not wedge shutdown.
            let _ = task.await;
        }
        self.metrics()
    }

    /// A point-in-time snapshot of control-plane and per-shard counters
    /// plus the admitted flow table.
    pub fn metrics(&self) -> RelayMetrics {
        let mut m = RelayMetrics {
            admitted: self.control_state.admitted.load(Ordering::Relaxed),
            rejected_budget: self.control_state.rejected_budget.load(Ordering::Relaxed),
            rejected_shard_full: self
                .control_state
                .rejected_shard_full
                .load(Ordering::Relaxed),
            control_malformed: self.control_state.malformed.load(Ordering::Relaxed),
            rejections: self
                .control_state
                .rejections
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .copied()
                .collect(),
            shards: Vec::with_capacity(self.shards.len()),
            flows: Vec::new(),
        };
        for shard in &self.shards {
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

/// The control task: admission over the wire.
async fn run_control(
    control: Arc<UdpSocket>,
    shards: Vec<Arc<ShardState>>,
    shard_addrs: Vec<SocketAddr>,
    state: Arc<ControlState>,
    cfg: Arc<RelayConfig>,
    policy: Arc<AdmissionPolicy>,
    stop: Arc<AtomicBool>,
) {
    let mut buf = vec![0u8; 2048];
    let mut reply = Vec::with_capacity(16);
    loop {
        let (len, from) = match control.try_recv_from(&mut buf) {
            Ok(Some(hit)) => hit,
            Ok(None) => {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                tokio::time::sleep(Duration::from_millis(1)).await;
                continue;
            }
            Err(_) => continue,
        };
        let msg = match WireMsg::decode(&buf[..len]) {
            Some(msg) => msg,
            None => {
                state.malformed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        let WireMsg::Register {
            flow,
            budget_ms,
            loss_tolerant,
        } = msg
        else {
            // Data-plane traffic on the control socket is a client bug;
            // count it with the malformed datagrams.
            state.malformed.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let shard_idx = shard_for(flow, cfg.shards);
        let shard = &shards[shard_idx];
        let response = {
            let mut flows = shard.flows.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(existing) = flows.get(&flow) {
                // Duplicate register (a retry): re-ack idempotently.
                ack_for(flow, existing.service, shard_idx, &shard_addrs, &cfg)
            } else {
                match policy.decide(budget_ms, loss_tolerant, flows.len()) {
                    Admission::Accept(sel) => {
                        flows.insert(flow, FlowState::new(sel.service, from, budget_ms));
                        state.admitted.fetch_add(1, Ordering::Relaxed);
                        ack_for(flow, sel.service, shard_idx, &shard_addrs, &cfg)
                    }
                    Admission::Reject(reason) => {
                        state.record_rejection(flow, reason);
                        WireMsg::RegisterNack {
                            flow,
                            reason: reason.as_u8(),
                        }
                    }
                }
            }
        };
        response.encode_into(&mut reply);
        // Control-plane replies ride the async path: a momentarily full
        // buffer retries instead of dropping an admission verdict.
        let _ = control.send_to(&reply, from).await;
    }
}

/// Builds the `RegisterAck` for an admitted flow.
fn ack_for(
    flow: u32,
    service: jqos_core::select::ServiceKind,
    shard_idx: usize,
    shard_addrs: &[SocketAddr],
    cfg: &RelayConfig,
) -> WireMsg {
    let coding = service == jqos_core::select::ServiceKind::Coding;
    WireMsg::RegisterAck {
        flow,
        service: service_to_wire(service),
        shard: shard_idx as u16,
        port: shard_addrs[shard_idx].port(),
        coding_k: if coding { cfg.coding_k as u8 } else { 0 },
        coding_m: if coding { cfg.coding_m as u8 } else { 0 },
    }
}
