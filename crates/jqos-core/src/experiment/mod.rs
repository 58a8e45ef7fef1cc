//! A scenario harness that wires complete J-QoS deployments into the
//! simulator and collects per-flow reports.
//!
//! Every experiment in the paper's evaluation uses the same macro-topology:
//! some number of sender→receiver flows, each with its own best-effort
//! Internet path, sharing an ingress DC (DC1) and an egress DC (DC2).  The
//! [`Scenario`] builder constructs that world; [`ScenarioReport`] exposes the
//! per-packet outcomes needed to reproduce the figures (delivery latency,
//! recovery rate, recovery delay, loss-episode structure, overhead).
//!
//! The [`sweep`] submodule turns single scenarios into declarative grids
//! ([`sweep::SweepGrid`]) executed in parallel by [`sweep::ExperimentSuite`].

pub mod city;
pub(crate) mod deploy;
pub mod sweep;

use netsim::prelude::*;
use netsim::trace::EpisodeBreakdown;

use self::deploy::Deployment;
use crate::coding::params::CodingParams;
use crate::nodes::dc1::Dc1Node;
use crate::nodes::dc2::{Dc2Config, Dc2Node};
use crate::nodes::receiver::{DeliveryMethod, ReceiverNode};
use crate::nodes::sender::SenderNode;
use crate::nodes::source::TrafficSource;
use crate::nodes::PathPolicy;
use crate::packet::{FlowId, SeqNo};
use crate::select::ServiceKind;

/// Description of one flow in a scenario.
struct FlowPlan {
    service: ServiceKind,
    source: Box<dyn TrafficSource>,
    internet: LinkSpec,
    policy: Option<PathPolicy>,
}

/// Builder for a complete J-QoS deployment inside the simulator.
pub struct Scenario {
    seed: u64,
    topology: Topology,
    coding: CodingParams,
    dc2_config: Dc2Config,
    flows: Vec<FlowPlan>,
    queue: QueueKind,
}

impl Scenario {
    /// Creates a scenario on the default wide-area topology.
    pub fn new(seed: u64) -> Self {
        Scenario {
            seed,
            topology: Topology::default(),
            coding: CodingParams::default(),
            dc2_config: Dc2Config::default(),
            flows: Vec::new(),
            queue: QueueKind::default(),
        }
    }

    /// Pins the simulator's scheduler backend (default: calendar queue).
    /// Both backends produce byte-identical reports — a test-enforced
    /// invariant — so this only matters for benchmarking them against each
    /// other.
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Replaces the base topology (access/inter-DC latencies and the default
    /// Internet path spec used when a flow does not override it).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the coding parameters used by DC1.
    pub fn with_coding(mut self, coding: CodingParams) -> Self {
        self.coding = coding;
        self
    }

    /// Sets the DC2 (recovery) configuration.
    pub fn with_dc2(mut self, config: Dc2Config) -> Self {
        self.dc2_config = config;
        self
    }

    /// Adds a flow using the topology's default Internet path.
    pub fn add_flow(self, service: ServiceKind, source: Box<dyn TrafficSource>) -> Self {
        let internet = self.topology.internet.clone();
        self.add_flow_with_path(service, source, internet)
    }

    /// Adds a flow with its own direct Internet path spec (each PlanetLab
    /// path in §6.2 has its own loss process).
    pub fn add_flow_with_path(
        mut self,
        service: ServiceKind,
        source: Box<dyn TrafficSource>,
        internet: LinkSpec,
    ) -> Self {
        self.flows.push(FlowPlan {
            service,
            source,
            internet,
            policy: None,
        });
        self
    }

    /// Overrides the path policy of the most recently added flow (e.g.
    /// cloud-only path switching or selective duplication).
    pub fn with_policy(mut self, policy: PathPolicy) -> Self {
        if let Some(last) = self.flows.last_mut() {
            last.policy = Some(policy);
        }
        self
    }

    /// Builds the simulator, runs it for `duration` (plus a drain period for
    /// in-flight recoveries) and collects the report.
    pub fn run(self, duration: Dur) -> ScenarioReport {
        // Pre-size the simulator so per-sweep-point construction is one
        // allocation each for the node table and the event heap: 2 DC nodes
        // plus a sender and receiver per flow, and an event backlog that in
        // practice stays within a few thousand entries even for the densest
        // figure scenarios.
        let nodes_hint = 2 + 2 * self.flows.len();
        let events_hint = (64 * self.flows.len()).clamp(256, 8_192);
        let sim =
            Simulator::with_capacity_and_queue(self.seed, self.queue, nodes_hint, events_hint);
        let topo = &self.topology;
        let rtt = topo.rtt();
        let mut world = Deployment::new(sim, self.coding, self.dc2_config, 1, rtt);

        // Links: the shared inter-DC path, then per flow the direct Internet
        // path, the sender access path and the receiver access path.
        world
            .sim
            .add_link(world.dc1, world.dc2s[0], topo.dc1_dc2.clone());
        for plan in self.flows {
            let w = world.add_flow(plan.service, Some(0), plan.source, plan.policy);
            world.link_sender(w, plan.internet, topo.sender_dc1.clone());
            world.link_receiver(w, std::slice::from_ref(&topo.receiver_dc2));
        }

        // Run the workload and give in-flight recoveries time to finish.
        world.sim.run_for(duration);
        world.sim.run_for(rtt * 4 + Dur::from_millis(500));

        let mut flows = Vec::with_capacity(world.flows.len());
        for i in 0..world.flows.len() {
            let w = world.flows[i];
            let packets = world.packet_outcomes(w);
            let sender_stats = world.sim.node_as::<SenderNode>(w.sender).stats();
            let receiver = world.sim.node_as::<ReceiverNode>(w.receiver);
            // Loss episodes are classified on the *direct* path, so a
            // recovered packet still counts as lost here.
            let episodes = netsim::trace::episodes(
                packets
                    .iter()
                    .map(|p| (p.seq, p.method == Some(DeliveryMethod::Direct))),
            );
            flows.push(FlowReport {
                flow: w.flow,
                service: w.service,
                rtt,
                recovery_delays_ms: receiver
                    .recovery_delays(w.flow)
                    .iter()
                    .map(|(_, d)| d.as_millis_f64())
                    .collect(),
                nacks_sent: receiver.flow_stats(w.flow).unwrap_or_default().nacks_sent,
                cloud_copies: sender_stats.cloud_copies,
                payload_bytes: sender_stats.payload_bytes,
                cloud_bytes: sender_stats.cloud_bytes,
                episode_breakdown: EpisodeBreakdown::from_episodes(&episodes),
                packets,
            });
        }

        let dc1 = world.sim.node_as::<Dc1Node>(world.dc1);
        let (dc1_stats, encoder_stats) = (dc1.stats(), dc1.encoder_stats());
        ScenarioReport {
            flows,
            dc1: dc1_stats,
            encoder: encoder_stats,
            dc2: world.sim.node_as::<Dc2Node>(world.dc2s[0]).stats(),
        }
    }
}

/// Outcome of one application packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketOutcome {
    /// Sequence number.
    pub seq: SeqNo,
    /// When the sender emitted it.
    pub sent_at: Time,
    /// Payload size in bytes.
    pub size: usize,
    /// When the first copy reached the receiver, if it ever did.
    pub delivered_at: Option<Time>,
    /// How the first copy arrived.
    pub method: Option<DeliveryMethod>,
}

impl PacketOutcome {
    /// One-way latency, if delivered.
    pub fn latency(&self) -> Option<Dur> {
        self.delivered_at.map(|d| d.saturating_since(self.sent_at))
    }

    /// Whether the packet arrived through a J-QoS recovery (cache pull or
    /// cooperative recovery).
    pub fn is_recovered(&self) -> bool {
        self.method.is_some_and(|m| m.is_recovery())
    }

    /// Whether the packet was delivered within `budget` of being sent.
    pub fn delivered_within(&self, budget: Dur) -> bool {
        self.latency().map(|l| l <= budget).unwrap_or(false)
    }
}

/// Per-flow results of a scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowReport {
    /// The flow.
    pub flow: FlowId,
    /// Service the flow used.
    pub service: ServiceKind,
    /// Nominal direct-path RTT of the scenario (for RTT-relative metrics).
    pub rtt: Dur,
    /// Per-packet outcomes, in send order.
    pub packets: Vec<PacketOutcome>,
    /// Recovery delays (NACK → recovered packet) in milliseconds.
    pub recovery_delays_ms: Vec<f64>,
    /// NACKs the receiver sent.
    pub nacks_sent: u64,
    /// Packets duplicated to the cloud by the sender.
    pub cloud_copies: u64,
    /// Application payload bytes generated.
    pub payload_bytes: u64,
    /// Payload bytes duplicated to the cloud.
    pub cloud_bytes: u64,
    /// Loss-episode structure of the *direct* path (recovered packets still
    /// count as direct-path losses here).
    pub episode_breakdown: EpisodeBreakdown,
}

/// Stamps the packet-counting helpers shared by every per-flow report — any
/// type with a `packets: Vec<PacketOutcome>` field — so they are written
/// once.
macro_rules! impl_packet_counts {
    ($report:ty) => {
        impl $report {
            /// Packets sent.
            pub fn sent(&self) -> usize {
                self.packets.len()
            }

            /// Packets delivered by any path.
            pub fn delivered(&self) -> usize {
                self.packets
                    .iter()
                    .filter(|p| p.delivered_at.is_some())
                    .count()
            }

            /// Packets never delivered.
            pub fn unrecovered(&self) -> usize {
                self.sent() - self.delivered()
            }

            /// Packets that arrived on the direct Internet path.
            pub fn delivered_direct(&self) -> usize {
                self.packets
                    .iter()
                    .filter(|p| p.method == Some($crate::nodes::receiver::DeliveryMethod::Direct))
                    .count()
            }

            /// Packets recovered by J-QoS (cache pull or cooperative
            /// recovery).
            pub fn recovered(&self) -> usize {
                self.packets.iter().filter(|p| p.is_recovered()).count()
            }
        }
    };
}
pub(crate) use impl_packet_counts;

impl_packet_counts!(FlowReport);

impl FlowReport {
    /// Packets that arrived via the cloud overlay (forwarding service).
    pub fn delivered_cloud(&self) -> usize {
        self.packets
            .iter()
            .filter(|p| p.method == Some(DeliveryMethod::CloudForwarded))
            .count()
    }

    /// Packets lost on the direct path (whether or not later recovered).
    pub fn lost_on_direct(&self) -> usize {
        self.sent() - self.delivered_direct()
    }

    /// Fraction of direct-path losses that J-QoS recovered (Figure 8(a)).
    pub fn recovery_rate(&self) -> f64 {
        let lost = self.lost_on_direct();
        if lost == 0 {
            1.0
        } else {
            self.recovered() as f64 / lost as f64
        }
    }

    /// Recovery rate counting only packets recovered within one direct-path
    /// RTT, matching the paper's accounting ("any packet that takes longer
    /// than one RTT to recover" is lost).
    pub fn recovery_rate_within_rtt(&self) -> f64 {
        let lost = self.lost_on_direct();
        if lost == 0 {
            return 1.0;
        }
        let budget = self.rtt + self.rtt; // sent→(lost)→detected→recovered ≈ y + RTT
        let ok = self
            .packets
            .iter()
            .filter(|p| p.is_recovered() && p.delivered_within(budget))
            .count();
        ok as f64 / lost as f64
    }

    /// Direct-path loss rate.
    pub fn direct_loss_rate(&self) -> f64 {
        if self.sent() == 0 {
            0.0
        } else {
            self.lost_on_direct() as f64 / self.sent() as f64
        }
    }

    /// End-to-end loss rate after J-QoS recovery.
    pub fn residual_loss_rate(&self) -> f64 {
        if self.sent() == 0 {
            0.0
        } else {
            self.unrecovered() as f64 / self.sent() as f64
        }
    }

    /// Delivery latencies (ms) of all delivered packets.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.packets
            .iter()
            .filter_map(|p| p.latency().map(|l| l.as_millis_f64()))
            .collect()
    }

    /// Recovery delays expressed as a fraction of the direct-path RTT
    /// (Figure 8(d)).
    pub fn recovery_delay_rtt_fractions(&self) -> Vec<f64> {
        let rtt = self.rtt.as_millis_f64();
        if rtt == 0.0 {
            return vec![];
        }
        self.recovery_delays_ms.iter().map(|d| d / rtt).collect()
    }

    /// Bytes duplicated to the cloud per payload byte (the sender-side
    /// overhead of using J-QoS).
    pub fn cloud_overhead(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.cloud_bytes as f64 / self.payload_bytes as f64
        }
    }
}

/// Results of a scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// Per-flow reports, in the order flows were added.
    pub flows: Vec<FlowReport>,
    /// DC1 counters.
    pub dc1: crate::nodes::dc1::Dc1Stats,
    /// DC2 counters.
    pub dc2: crate::nodes::dc2::Dc2Stats,
    /// Encoder counters (coded packets, byte overhead).
    pub encoder: crate::coding::encoder::EncoderStats,
}

impl ScenarioReport {
    /// Aggregate recovery rate across all flows.
    pub fn overall_recovery_rate(&self) -> f64 {
        let lost: usize = self.flows.iter().map(|f| f.lost_on_direct()).sum();
        let recovered: usize = self.flows.iter().map(|f| f.recovered()).sum();
        if lost == 0 {
            1.0
        } else {
            recovered as f64 / lost as f64
        }
    }

    /// Aggregate residual (post-recovery) loss rate.
    pub fn overall_residual_loss(&self) -> f64 {
        let sent: usize = self.flows.iter().map(|f| f.sent()).sum();
        let unrecovered: usize = self.flows.iter().map(|f| f.unrecovered()).sum();
        if sent == 0 {
            0.0
        } else {
            unrecovered as f64 / sent as f64
        }
    }

    /// Coded-byte overhead relative to application bytes (cloud WAN usage of
    /// the coding service).
    pub fn coding_overhead(&self) -> f64 {
        let payload: u64 = self.flows.iter().map(|f| f.payload_bytes).sum();
        if payload == 0 {
            0.0
        } else {
            self.encoder.coded_bytes as f64 / payload as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodes::source::CbrSource;

    fn cbr(count: u64) -> Box<dyn TrafficSource> {
        Box::new(CbrSource::new(Dur::from_millis(20), 400, count))
    }

    fn lossy_topology(loss: LossSpec) -> Topology {
        Topology::lossless(
            Dur::from_millis(75),
            Dur::from_millis(10),
            Dur::from_millis(70),
            Dur::from_millis(10),
        )
        .internet_loss(loss)
    }

    #[test]
    fn internet_only_flow_loses_packets_without_recovery() {
        let report = Scenario::new(1)
            .with_topology(lossy_topology(LossSpec::Bernoulli(0.05)))
            .add_flow(ServiceKind::InternetOnly, cbr(500))
            .run(Dur::from_secs(12));
        let f = &report.flows[0];
        assert_eq!(f.sent(), 500);
        assert!(
            f.unrecovered() > 5,
            "expected unrecovered losses, got {}",
            f.unrecovered()
        );
        assert_eq!(f.recovered(), 0);
        assert!(f.direct_loss_rate() > 0.02);
    }

    #[test]
    fn forwarding_flow_survives_direct_path_outage() {
        // 10-second outage in the middle of the run; the cloud path keeps
        // delivering (multipath duplication, Figure 3(a)).
        let outage = LossSpec::Outage(vec![(Time::from_secs(2), Time::from_secs(12))]);
        let report = Scenario::new(2)
            .with_topology(lossy_topology(outage))
            .add_flow(ServiceKind::Forwarding, cbr(600))
            .run(Dur::from_secs(14));
        let f = &report.flows[0];
        assert_eq!(f.sent(), 600);
        assert_eq!(f.unrecovered(), 0, "forwarding should mask the outage");
        assert!(
            f.delivered_cloud() > 100,
            "cloud path must have carried the outage traffic"
        );
        assert!(report.dc1.packets_relayed > 0);
        assert!(report.dc2.forwarded > 0);
    }

    #[test]
    fn caching_flow_recovers_random_losses_from_the_cache() {
        let report = Scenario::new(3)
            .with_topology(lossy_topology(LossSpec::Bernoulli(0.03)))
            .add_flow(ServiceKind::Caching, cbr(800))
            .run(Dur::from_secs(18));
        let f = &report.flows[0];
        assert!(f.lost_on_direct() > 5);
        assert!(
            f.recovery_rate() > 0.9,
            "caching should recover almost all losses, got {:.2} ({} of {})",
            f.recovery_rate(),
            f.recovered(),
            f.lost_on_direct()
        );
        assert!(report.dc2.cache_recoveries > 0);
        // Recovery from a nearby DC is much faster than a WAN RTT.  Most
        // recoveries finish well within half an RTT; a few pay the extra Δ
        // wait for the cloud copy to reach DC2 (§6.1), so the bound on the
        // tail is looser.
        let fractions = f.recovery_delay_rtt_fractions();
        assert!(!fractions.is_empty());
        let within_half =
            fractions.iter().filter(|f| **f <= 0.5).count() as f64 / fractions.len() as f64;
        assert!(
            within_half >= 0.7,
            "only {within_half:.2} of recoveries within 0.5 RTT"
        );
        assert!(
            fractions.iter().all(|f| *f <= 1.0),
            "recovery slower than a full RTT"
        );
    }

    #[test]
    fn coding_flows_recover_losses_via_cooperative_recovery() {
        let coding = CodingParams {
            k: 4,
            cross_parity: 2,
            in_stream_enabled: false,
            ..CodingParams::default()
        };
        let mut scenario = Scenario::new(4)
            .with_topology(lossy_topology(LossSpec::Bernoulli(0.02)))
            .with_coding(coding);
        for _ in 0..4 {
            scenario = scenario.add_flow(ServiceKind::Coding, cbr(600));
        }
        let report = scenario.run(Dur::from_secs(14));
        let lost: usize = report.flows.iter().map(|f| f.lost_on_direct()).sum();
        assert!(lost > 10, "expected losses across four flows, got {lost}");
        assert!(
            report.overall_recovery_rate() > 0.7,
            "CR-WAN should recover most losses, got {:.2} (dc2: {:?})",
            report.overall_recovery_rate(),
            report.dc2
        );
        assert!(report.dc2.coop_recovered > 0);
        assert!(report.encoder.coded_packets > 0);
        // The cross-stream overhead must stay well below full duplication.
        assert!(
            report.coding_overhead() < 0.8,
            "overhead {}",
            report.coding_overhead()
        );
    }

    #[test]
    fn selective_duplication_reduces_cloud_bytes() {
        let full = Scenario::new(5)
            .with_topology(lossy_topology(LossSpec::Bernoulli(0.01)))
            .add_flow(ServiceKind::Caching, cbr(300))
            .run(Dur::from_secs(8));
        let selective = Scenario::new(5)
            .with_topology(lossy_topology(LossSpec::Bernoulli(0.01)))
            .add_flow(ServiceKind::Caching, cbr(300))
            .with_policy(PathPolicy::selective(4))
            .run(Dur::from_secs(8));
        assert!(selective.flows[0].cloud_overhead() < full.flows[0].cloud_overhead() / 2.0);
    }

    #[test]
    fn reports_are_reproducible_for_a_seed() {
        let run = |seed| {
            Scenario::new(seed)
                .with_topology(lossy_topology(LossSpec::Bernoulli(0.02)))
                .add_flow(ServiceKind::Caching, cbr(200))
                .run(Dur::from_secs(6))
                .flows[0]
                .packets
                .clone()
        };
        assert_eq!(run(9), run(9));
    }
}
