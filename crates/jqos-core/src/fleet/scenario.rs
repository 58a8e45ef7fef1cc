//! The fleet experiment harness: an N-DC deployment with a controller,
//! heartbeat agents, a failure schedule and per-flow reports.

use std::collections::BTreeMap;

use netsim::prelude::*;

use super::failover::{
    DropReason, FailoverEvent, FailureSchedule, FleetControllerNode, FlowEndpoints,
    RelocationOutcome,
};
use super::heartbeat::{HeartbeatAgent, HeartbeatConfig};
use super::placement::PlacementStrategy;
use super::registry::{DcCapabilities, DcState, FleetRegistry, FleetStats, FlowRequirements};
use super::{fleet_rng, DcId};
use crate::coding::params::CodingParams;
use crate::experiment::deploy::Deployment;
use crate::experiment::PacketOutcome;
use crate::nodes::receiver::ReceiverNode;
use crate::nodes::source::TrafficSource;
use crate::packet::FlowId;
use crate::select::ServiceKind;

/// Specification of one relay DC in a fleet scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetDcSpec {
    /// Region tag (informational).
    pub region: u32,
    /// Maximum concurrent flows.
    pub capacity: u32,
    /// One-way receiver-access latency δr.
    pub access_latency: Dur,
    /// One-way inter-DC latency x from DC1.
    pub inter_dc_latency: Dur,
}

impl FleetDcSpec {
    /// The capabilities this DC registers with.
    pub fn capabilities(&self) -> DcCapabilities {
        DcCapabilities {
            region: self.region,
            capacity: self.capacity,
            access_latency: self.access_latency,
            inter_dc_latency: self.inter_dc_latency,
        }
    }
}

/// A fleet of `n` DCs with mildly heterogeneous latencies (each DC a bit
/// farther than the last), so latency-aware placement has real choices.
pub fn uniform_fleet(n: usize, capacity: u32) -> Vec<FleetDcSpec> {
    (0..n)
        .map(|i| FleetDcSpec {
            region: i as u32,
            capacity,
            access_latency: Dur::from_millis(10 + 4 * i as u64),
            inter_dc_latency: Dur::from_millis(70 + 6 * i as u64),
        })
        .collect()
}

/// The fleet axis of a sweep grid: everything that varies between fleet
/// sweep points besides the usual seed/loss/mix/coding axes.
#[derive(Clone, Debug)]
pub struct FleetAxis {
    /// Number of relay DCs.
    pub fleet_size: usize,
    /// Flow capacity of each DC.
    pub capacity: u32,
    /// Placement strategy under test.
    pub placement: PlacementStrategy,
    /// DC crashes injected mid-run.
    pub failures: FailureSchedule,
}

impl Default for FleetAxis {
    fn default() -> Self {
        FleetAxis {
            fleet_size: 3,
            capacity: 8,
            placement: PlacementStrategy::RoundRobin,
            failures: FailureSchedule::new(),
        }
    }
}

struct FleetFlowPlan {
    service: ServiceKind,
    latency_budget: Dur,
    source: Box<dyn TrafficSource>,
}

/// Builder for a complete fleet deployment inside the simulator: one ingress
/// DC, `N` egress DCs with heartbeat agents, a fleet controller, per-flow
/// senders/receivers, and a schedule of DC crashes.
///
/// Crashed DCs (and their agents) are scheduled down in the simulator; their
/// heartbeats stop, the controller's deadlines lapse, the registry walks
/// `Registered → Suspect → Evicted`, and the controller relocates the
/// orphaned flows onto the survivors.
pub struct FleetScenario {
    seed: u64,
    queue: QueueKind,
    coding: CodingParams,
    heartbeat: HeartbeatConfig,
    placement: PlacementStrategy,
    dcs: Vec<FleetDcSpec>,
    flows: Vec<FleetFlowPlan>,
    failures: FailureSchedule,
    internet: LinkSpec,
    sender_access: Dur,
    control_latency: Dur,
}

impl FleetScenario {
    /// Creates a scenario with a default 3-DC fleet on a lossless Internet
    /// path.
    pub fn new(seed: u64) -> Self {
        FleetScenario {
            seed,
            queue: QueueKind::default(),
            coding: CodingParams::default(),
            heartbeat: HeartbeatConfig::default(),
            placement: PlacementStrategy::RoundRobin,
            dcs: uniform_fleet(3, 8),
            flows: Vec::new(),
            failures: FailureSchedule::new(),
            internet: LinkSpec::symmetric(Dur::from_millis(75)),
            sender_access: Dur::from_millis(10),
            control_latency: Dur::from_millis(5),
        }
    }

    /// Pins the simulator's scheduler backend (default: calendar queue).
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Replaces the fleet (DC specs in `DcId` order).
    pub fn with_fleet(mut self, dcs: Vec<FleetDcSpec>) -> Self {
        assert!(!dcs.is_empty(), "a fleet needs at least one DC");
        self.dcs = dcs;
        self
    }

    /// Sets the placement strategy.
    pub fn with_placement(mut self, placement: PlacementStrategy) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the heartbeat deadline policy.
    pub fn with_heartbeat(mut self, heartbeat: HeartbeatConfig) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Sets the coding parameters used by DC1.
    pub fn with_coding(mut self, coding: CodingParams) -> Self {
        self.coding = coding;
        self
    }

    /// Sets the DC crash schedule.
    pub fn with_failures(mut self, failures: FailureSchedule) -> Self {
        self.failures = failures;
        self
    }

    /// Sets the shared direct Internet path spec (latency + loss).
    pub fn with_internet(mut self, internet: LinkSpec) -> Self {
        self.internet = internet;
        self
    }

    /// Applies a sweep point's fleet axis: fleet size/capacity, placement
    /// strategy and failure schedule in one call.
    pub fn with_axis(self, axis: &FleetAxis) -> Self {
        self.with_fleet(uniform_fleet(axis.fleet_size, axis.capacity))
            .with_placement(axis.placement)
            .with_failures(axis.failures.clone())
    }

    /// Adds a flow with its service class and `register(latency_budget)`
    /// budget.
    pub fn add_flow(
        mut self,
        service: ServiceKind,
        latency_budget: Dur,
        source: Box<dyn TrafficSource>,
    ) -> Self {
        self.flows.push(FleetFlowPlan {
            service,
            latency_budget,
            source,
        });
        self
    }

    /// Builds the simulator, runs it for `duration` plus a drain period, and
    /// collects the report.
    pub fn run(self, duration: Dur) -> FleetReport {
        let n_dcs = self.dcs.len();
        let nodes_hint = 2 + n_dcs * 2 + 2 * self.flows.len();
        let events_hint = (64 * self.flows.len() + 16 * n_dcs).clamp(256, 8_192);
        let sim =
            Simulator::with_capacity_and_queue(self.seed, self.queue, nodes_hint, events_hint);
        let y = self.internet.nominal_latency();
        let rtt = y * 2;
        let mut world = Deployment::new(sim, self.coding, n_dcs, rtt);

        // Register the fleet and place flows administratively at t = 0, on
        // the reserved fleet RNG stream of the scenario seed.
        let mut registry = FleetRegistry::new(self.heartbeat, self.placement);
        for spec in &self.dcs {
            registry.register_dc(spec.capabilities(), Time::ZERO);
        }
        let mut admission_rng = fleet_rng(self.seed);

        // Per flow: its budget and what admission decided.
        let mut admissions: Vec<(Dur, Result<DcId, DropReason>)> =
            Vec::with_capacity(self.flows.len());
        let mut endpoints: BTreeMap<FlowId, FlowEndpoints> = BTreeMap::new();

        for (idx, plan) in self.flows.into_iter().enumerate() {
            let requirements = FlowRequirements {
                service: plan.service,
                latency_budget: plan.latency_budget,
                direct_latency: y,
                sender_access: self.sender_access,
            };
            let placement =
                registry.place_flow(FlowId(idx as u32), requirements, &mut admission_rng);
            // A flow the fleet cannot host is downgraded to Internet-only:
            // it still runs, it just gets no cloud help.
            let service = match placement {
                Ok(_) => plan.service,
                Err(_) => ServiceKind::InternetOnly,
            };
            let egress = placement.ok().map(|dc| dc.0 as usize);
            let w = world.add_flow(service, egress, plan.source, None);
            if placement.is_ok() {
                let receiver = w.receiver;
                endpoints.insert(w.flow, FlowEndpoints { receiver, service });
            }
            admissions.push((plan.latency_budget, placement));
        }

        // Control plane: the controller takes over the populated registry;
        // each DC gets a heartbeat agent phased a little apart.
        let dc1 = world.dc1;
        let check_period = (self.heartbeat.interval / 2).max(Dur::from_millis(1));
        let controller = world.sim.add_node(FleetControllerNode::new(
            registry,
            world.dc2s.clone(),
            dc1,
            endpoints,
            check_period,
        ));
        let agent_ids: Vec<NodeId> = (0..n_dcs)
            .map(|i| {
                world.sim.add_node(HeartbeatAgent::new(
                    DcId(i as u32),
                    controller,
                    self.heartbeat.interval,
                    Dur::from_millis(1 + i as u64),
                ))
            })
            .collect();

        // Links.  Every receiver is linked to every DC (a relocated flow's
        // NACKs must be able to reach its new DC), and the controller has a
        // low-latency control path to everything it re-wires.
        let control = LinkSpec::symmetric(self.control_latency);
        world.sim.add_link(controller, dc1, control.clone());
        for (i, spec) in self.dcs.iter().enumerate() {
            let inter_dc = LinkSpec::symmetric(spec.inter_dc_latency);
            world.sim.add_link(dc1, world.dc2s[i], inter_dc);
            world
                .sim
                .add_link(controller, world.dc2s[i], control.clone());
            world
                .sim
                .add_link(controller, agent_ids[i], control.clone());
        }
        let receiver_access: Vec<LinkSpec> = self
            .dcs
            .iter()
            .map(|spec| LinkSpec::symmetric(spec.access_latency))
            .collect();
        for i in 0..world.flows.len() {
            let w = world.flows[i];
            let sender_access = LinkSpec::symmetric(self.sender_access);
            world.link_sender(w, self.internet.clone(), sender_access);
            world.sim.add_link(controller, w.receiver, control.clone());
            world.link_receiver(w, &receiver_access);
        }

        // Inject the crash schedule: a DC and its heartbeat agent go down
        // together, so the data plane and the health signal fail as one.
        for &(at, dc) in self.failures.events() {
            world.sim.schedule_down(world.dc2s[dc.0 as usize], at);
            world.sim.schedule_down(agent_ids[dc.0 as usize], at);
        }

        // Run the workload, then give in-flight recoveries and failovers
        // time to finish.
        world.sim.run_for(duration);
        world
            .sim
            .run_for(rtt * 4 + self.heartbeat.deadline_step() * 2 + Dur::from_millis(500));

        let mut flows = Vec::with_capacity(admissions.len());
        for (i, (latency_budget, placement)) in admissions.into_iter().enumerate() {
            let w = world.flows[i];
            let packets = world.packet_outcomes(w);
            let receiver = world.sim.node_as::<ReceiverNode>(w.receiver);
            flows.push(FleetFlowReport {
                flow: w.flow,
                service: w.service,
                latency_budget,
                initial_dc: placement.ok(),
                admission_drop: placement.err(),
                packets,
                nacks_sent: receiver.flow_stats(w.flow).unwrap_or_default().nacks_sent,
            });
        }

        let messages_dropped_down = world.sim.stats().messages_dropped_down;
        let controller_ref = world.sim.node_as::<FleetControllerNode>(controller);
        let events = controller_ref.events().to_vec();
        let fleet = controller_ref.registry().stats();
        let dc_states = (0..n_dcs)
            .map(|i| {
                let dc = DcId(i as u32);
                (
                    dc,
                    controller_ref.registry().state(dc),
                    controller_ref.registry().evicted_at(dc),
                )
            })
            .collect();

        FleetReport {
            flows,
            events,
            dc_states,
            fleet,
            failures: self.failures.events().to_vec(),
            messages_dropped_down,
        }
    }
}

/// Per-flow results of a fleet scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetFlowReport {
    /// The flow.
    pub flow: FlowId,
    /// Service the flow actually ran with (`InternetOnly` if admission
    /// dropped it from the fleet).
    pub service: ServiceKind,
    /// The flow's `register(latency_budget)` budget.
    pub latency_budget: Dur,
    /// The DC the flow was first placed on, if any.
    pub initial_dc: Option<DcId>,
    /// Why admission could not place the flow, if it could not.
    pub admission_drop: Option<DropReason>,
    /// Per-packet outcomes, in send order.
    pub packets: Vec<PacketOutcome>,
    /// NACKs the receiver sent.
    pub nacks_sent: u64,
}

crate::experiment::impl_packet_counts!(FleetFlowReport);

impl FleetFlowReport {
    /// Packets recovered whose delivery completed at or after `t` — the
    /// post-failover recovery activity of a relocated flow.
    pub fn recovered_after(&self, t: Time) -> usize {
        self.packets
            .iter()
            .filter(|p| p.is_recovered() && p.delivered_at.is_some_and(|d| d >= t))
            .count()
    }

    /// Packets delivered (any path) at or after `t`.
    pub fn delivered_after(&self, t: Time) -> usize {
        self.packets
            .iter()
            .filter(|p| p.delivered_at.map(|d| d >= t).unwrap_or(false))
            .count()
    }
}

/// Results of a fleet scenario run: per-flow outcomes plus the control
/// plane's failover ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetReport {
    /// Per-flow reports, in flow order.
    pub flows: Vec<FleetFlowReport>,
    /// Every failover decision the controller made, in decision order.
    pub events: Vec<FailoverEvent>,
    /// Final liveness state (and eviction time) of each DC.
    pub dc_states: Vec<(DcId, DcState, Option<Time>)>,
    /// The registry's aggregate counters.
    pub fleet: FleetStats,
    /// The crash schedule the scenario ran with.
    pub failures: Vec<(Time, DcId)>,
    /// Simulator deliveries dropped because their target was down.
    pub messages_dropped_down: u64,
}

impl FleetReport {
    /// Flows relocated to a surviving DC.
    pub fn relocated(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.outcome, RelocationOutcome::Relocated { .. }))
            .count()
    }

    /// Flows dropped during failover (any reason).
    pub fn dropped(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.outcome, RelocationOutcome::Dropped { .. }))
            .count()
    }

    /// Flows dropped during failover with the given reason.
    pub fn dropped_with(&self, reason: DropReason) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.outcome, RelocationOutcome::Dropped { reason: r, .. } if r == reason))
            .count()
    }

    /// The failover events that relocated flows off `dc`.
    pub fn relocations_from(&self, dc: DcId) -> Vec<&FailoverEvent> {
        self.events
            .iter()
            .filter(|e| e.dc == dc && matches!(e.outcome, RelocationOutcome::Relocated { .. }))
            .collect()
    }

    /// Crash-to-relocation latency of every relocated flow: the controller's
    /// decision time minus the DC's scheduled crash time.
    pub fn relocation_latencies(&self) -> Vec<Dur> {
        self.events
            .iter()
            .filter(|e| matches!(e.outcome, RelocationOutcome::Relocated { .. }))
            .filter_map(|e| {
                self.failures
                    .iter()
                    .find(|&&(_, d)| d == e.dc)
                    .map(|&(at, _)| e.at.saturating_since(at))
            })
            .collect()
    }

    /// Mean relative service cost (the paper's α-weighted cost model) of the
    /// flows the fleet hosted — the per-strategy service-mix cost.
    pub fn service_mix_cost(&self, alpha: f64) -> f64 {
        let hosted: Vec<&FleetFlowReport> = self
            .flows
            .iter()
            .filter(|f| f.initial_dc.is_some())
            .collect();
        if hosted.is_empty() {
            return 0.0;
        }
        hosted
            .iter()
            .map(|f| f.service.relative_cost(alpha))
            .sum::<f64>()
            / hosted.len() as f64
    }

    /// An FNV-1a digest over every integer outcome in the report (packet
    /// timings, failover ledger, DC states, registry counters).  It uses no
    /// floating point, so it is stable across platforms; a change means the
    /// fleet semantics or event order changed.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for f in &self.flows {
            mix(f.flow.0 as u64);
            mix(service_code(f.service));
            mix(f.latency_budget.0);
            mix(f.initial_dc.map(|d| d.0 as u64 + 1).unwrap_or(0));
            mix(f.admission_drop.map(|r| r.code()).unwrap_or(0));
            mix(f.nacks_sent);
            mix(f.packets.len() as u64);
            for p in &f.packets {
                mix(p.seq);
                mix(p.sent_at.0);
                mix(p.delivered_at.map(|t| t.0 + 1).unwrap_or(0));
            }
        }
        mix(self.events.len() as u64);
        for e in &self.events {
            mix(e.at.0);
            mix(e.dc.0 as u64);
            mix(e.flow.0 as u64);
            match e.outcome {
                RelocationOutcome::Relocated { from, to } => {
                    mix(1);
                    mix(from.0 as u64);
                    mix(to.0 as u64);
                }
                RelocationOutcome::Dropped { from, reason } => {
                    mix(2);
                    mix(from.0 as u64);
                    mix(reason.code());
                }
            }
        }
        for (dc, state, evicted_at) in &self.dc_states {
            mix(dc.0 as u64);
            mix(match state {
                DcState::Registered => 0,
                DcState::Suspect => 1,
                DcState::Evicted => 2,
            });
            mix(evicted_at.map(|t| t.0 + 1).unwrap_or(0));
        }
        for v in [
            self.fleet.dcs_registered,
            self.fleet.heartbeats,
            self.fleet.stale_heartbeats,
            self.fleet.suspects,
            self.fleet.flap_recoveries,
            self.fleet.evictions,
            self.fleet.flows_placed,
            self.fleet.flows_relocated,
            self.fleet.drops_fleet_empty,
            self.fleet.drops_no_capacity,
            self.messages_dropped_down,
        ] {
            mix(v);
        }
        h
    }
}

fn service_code(service: ServiceKind) -> u64 {
    match service {
        ServiceKind::InternetOnly => 0,
        ServiceKind::Forwarding => 1,
        ServiceKind::Caching => 2,
        ServiceKind::Coding => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodes::source::CbrSource;

    fn cbr(count: u64) -> Box<dyn TrafficSource> {
        Box::new(CbrSource::new(Dur::from_millis(25), 400, count))
    }

    fn demo(seed: u64) -> FleetScenario {
        let mut scenario = FleetScenario::new(seed)
            .with_internet(
                LinkSpec::symmetric(Dur::from_millis(75)).loss(LossSpec::Bernoulli(0.02)),
            )
            .with_failures(FailureSchedule::new().fail(DcId(0), Time::from_secs(3)));
        for _ in 0..3 {
            scenario = scenario.add_flow(ServiceKind::Caching, Dur::from_millis(400), cbr(240));
        }
        scenario
    }

    #[test]
    fn a_crashed_dc_is_evicted_and_its_flows_relocate() {
        let report = demo(41).run(Dur::from_secs(7));
        // Round-robin spreads 3 flows over 3 DCs: exactly one flow lived on
        // the crashed DC 0.
        assert_eq!(report.fleet.flows_placed, 3);
        assert_eq!(report.fleet.evictions, 1);
        assert_eq!(report.relocated(), 1);
        assert_eq!(report.dropped(), 0);
        let (dc, state, evicted_at) = report.dc_states[0];
        assert_eq!(dc, DcId(0));
        assert_eq!(state, DcState::Evicted);
        let evicted_at = evicted_at.expect("eviction is timestamped");
        assert!(
            evicted_at > Time::from_secs(3),
            "eviction follows the crash"
        );
        // Eviction takes two missed deadlines plus a check tick; well under
        // four deadline steps.
        let worst = HeartbeatConfig::default().deadline_step() * 4;
        let latencies = report.relocation_latencies();
        assert_eq!(latencies.len(), 1);
        assert!(latencies[0] <= worst, "relocation latency {latencies:?}");
        // The surviving DCs kept all their state.
        assert_eq!(report.dc_states[1].1, DcState::Registered);
        assert_eq!(report.dc_states[2].1, DcState::Registered);
        // Traffic to the dead DC was dropped by the simulator, not lost
        // silently.
        assert!(report.messages_dropped_down > 0);
    }

    #[test]
    fn fleet_reports_replay_byte_identically() {
        let a = demo(42).run(Dur::from_secs(6));
        let b = demo(42).run(Dur::from_secs(6));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = demo(43).run(Dur::from_secs(6));
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn queue_backends_agree_on_fleet_runs() {
        let run = |queue: QueueKind| demo(44).with_queue(queue).run(Dur::from_secs(6));
        assert_eq!(
            run(QueueKind::Heap).digest(),
            run(QueueKind::Calendar).digest()
        );
    }

    #[test]
    fn a_healthy_fleet_never_evicts() {
        let mut scenario = FleetScenario::new(45);
        for _ in 0..2 {
            scenario = scenario.add_flow(ServiceKind::Caching, Dur::from_millis(400), cbr(120));
        }
        let report = scenario.run(Dur::from_secs(5));
        assert_eq!(report.fleet.evictions, 0);
        assert_eq!(report.fleet.suspects, 0);
        assert!(report.events.is_empty());
        assert!(report.fleet.heartbeats > 10, "agents kept beating");
    }
}
