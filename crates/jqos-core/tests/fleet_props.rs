//! Property-test wall for the fleet control plane.
//!
//! Random interleavings of register / refresh / deadline-lapse / place /
//! relocate must uphold the registry's core invariants (no flow ever rests on
//! an evicted DC, counters account for every flow), latency-budget placement
//! must never pick an infeasible DC while a feasible one exists, and the
//! fleet sweep must replay byte-identically across worker-thread counts.

use jqos_core::fleet::{fleet_rng, FleetMsg};
use jqos_core::prelude::*;
use netsim::Time;
use proptest::prelude::*;

fn caps(capacity: u32, access_ms: u64, inter_dc_ms: u64) -> DcCapabilities {
    DcCapabilities {
        region: 0,
        capacity,
        access_latency: Dur::from_millis(access_ms),
        inter_dc_latency: Dur::from_millis(inter_dc_ms),
    }
}

fn requirements(service: ServiceKind, budget_ms: u64) -> FlowRequirements {
    FlowRequirements {
        service,
        latency_budget: Dur::from_millis(budget_ms),
        direct_latency: Dur::from_millis(75),
        sender_access: Dur::from_millis(10),
    }
}

/// One step of a random control-plane workload.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Register a new DC with the given capacity.
    Register { capacity: u32 },
    /// Heartbeat from DC `index % dc_count` (no-op while no DC exists).
    Heartbeat { index: u32 },
    /// Advance simulated time by `ms` and run the eviction check, relocating
    /// the flows of any DC that lapsed out — exactly what the controller
    /// does on its timer.
    Advance { ms: u64 },
    /// Try to place the next flow.
    Place { service_sel: u8, budget_ms: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (1u32..4).prop_map(|capacity| Op::Register { capacity }),
        4 => any::<u32>().prop_map(|index| Op::Heartbeat { index }),
        3 => (50u64..2_000).prop_map(|ms| Op::Advance { ms }),
        3 => (any::<u8>(), 100u64..600).prop_map(|(service_sel, budget_ms)| Op::Place {
            service_sel,
            budget_ms
        }),
    ]
}

fn service_for(sel: u8) -> ServiceKind {
    match sel % 3 {
        0 => ServiceKind::Forwarding,
        1 => ServiceKind::Caching,
        _ => ServiceKind::Coding,
    }
}

/// Replays `ops` against a registry, checking the safety invariants after
/// every step.  Returns the final stats for the accounting check.  (The
/// vendored proptest's `prop_assert*` are plain asserts, so this helper can
/// be an ordinary function.)
fn run_ops(strategy: PlacementStrategy, ops: &[Op], seed: u64) -> FleetStats {
    let mut registry = FleetRegistry::new(HeartbeatConfig::default(), strategy);
    let mut rng = fleet_rng(seed);
    let mut now = Time::ZERO;
    let mut next_flow = 0u32;
    let mut admission_ok = 0u64;
    let mut admission_err = 0u64;
    let mut relocation_ok = 0u64;
    let mut relocation_dropped = 0u64;

    for op in ops {
        match *op {
            Op::Register { capacity } => {
                registry.register_dc(caps(capacity, 10, 70), now);
            }
            Op::Heartbeat { index } => {
                if registry.dc_count() > 0 {
                    let dc = DcId(index % registry.dc_count() as u32);
                    registry.heartbeat(dc, now);
                }
            }
            Op::Advance { ms } => {
                now += Dur::from_millis(ms);
                for dc in registry.tick(now) {
                    for (flow, outcome) in registry.relocate_flows_from(dc, &mut rng) {
                        // Relocations must land on live DCs; drops must name
                        // a reason.
                        match outcome {
                            RelocationOutcome::Relocated { from, to } => {
                                relocation_ok += 1;
                                prop_assert_eq!(from, dc);
                                prop_assert_ne!(registry.state(to), DcState::Evicted);
                                prop_assert_eq!(registry.assignment(flow), Some(to));
                            }
                            RelocationOutcome::Dropped { from, .. } => {
                                relocation_dropped += 1;
                                prop_assert_eq!(from, dc);
                                prop_assert_eq!(registry.assignment(flow), None);
                            }
                        }
                    }
                    prop_assert!(registry.flows_on(dc).is_empty());
                }
            }
            Op::Place {
                service_sel,
                budget_ms,
            } => {
                if registry.dc_count() == 0 {
                    continue;
                }
                let flow = FlowId(next_flow);
                next_flow += 1;
                match registry.place_flow(
                    flow,
                    requirements(service_for(service_sel), budget_ms),
                    &mut rng,
                ) {
                    Ok(dc) => {
                        admission_ok += 1;
                        prop_assert_ne!(registry.state(dc), DcState::Evicted);
                        prop_assert!(registry.flows_on(dc).contains(&flow));
                    }
                    Err(_) => {
                        admission_err += 1;
                        prop_assert_eq!(registry.assignment(flow), None);
                    }
                }
            }
        }
        // The global invariant: no flow is ever assigned to an evicted DC.
        for f in 0..next_flow {
            if let Some(dc) = registry.assignment(FlowId(f)) {
                prop_assert_ne!(
                    registry.state(dc),
                    DcState::Evicted,
                    "flow {} rests on evicted {:?}",
                    f,
                    dc
                );
            }
        }
    }
    let stats = registry.stats();
    // Every placement attempt is accounted exactly once: admission successes
    // in `flows_placed`, relocations in `flows_relocated`, and the drop
    // counters absorb admission failures plus failed relocations.
    prop_assert_eq!(stats.flows_placed, admission_ok);
    prop_assert_eq!(stats.flows_relocated, relocation_ok);
    prop_assert_eq!(stats.flows_dropped(), admission_err + relocation_dropped);
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings never leave a flow on an evicted DC, relocated
    /// flows land live, and dropped flows are removed — for every strategy.
    #[test]
    fn interleavings_never_place_flows_on_evicted_dcs(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        seed in 0u64..1_000,
    ) {
        for strategy in [
            PlacementStrategy::RoundRobin,
            PlacementStrategy::RandomWeighted,
            PlacementStrategy::LatencyBudgetAware,
        ] {
            run_ops(strategy, &ops, seed);
        }
    }

    /// The same op sequence replays to identical stats — the registry is a
    /// pure function of (ops, seed).
    #[test]
    fn registry_replays_deterministically(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        seed in 0u64..1_000,
    ) {
        let a = run_ops(PlacementStrategy::RandomWeighted, &ops, seed);
        let b = run_ops(PlacementStrategy::RandomWeighted, &ops, seed);
        prop_assert_eq!(a, b);
    }

    /// Latency-budget placement never assigns a flow to a DC whose service
    /// path exceeds its budget while some feasible DC has free capacity.
    #[test]
    fn budget_aware_placement_prefers_feasible_dcs(
        dcs in proptest::collection::vec((1u32..4, 5u64..120, 40u64..160), 1..6),
        service_sel in any::<u8>(),
        budget_ms in 80u64..700,
        seed in 0u64..1_000,
    ) {
        let mut registry =
            FleetRegistry::new(HeartbeatConfig::default(), PlacementStrategy::LatencyBudgetAware);
        for &(capacity, access_ms, inter_dc_ms) in &dcs {
            registry.register_dc(caps(capacity, access_ms, inter_dc_ms), Time::ZERO);
        }
        let req = requirements(service_for(service_sel), budget_ms);
        let feasible: Vec<DcId> = (0..dcs.len())
            .map(|i| DcId(i as u32))
            .filter(|&dc| {
                registry.path_delays(dc, &req).delivery_latency(req.service) <= req.latency_budget
            })
            .collect();
        let mut rng = fleet_rng(seed);
        let chosen = registry
            .place_flow(FlowId(0), req, &mut rng)
            .expect("every DC has free capacity");
        if !feasible.is_empty() {
            prop_assert!(
                feasible.contains(&chosen),
                "picked infeasible {:?} while {:?} fit the budget",
                chosen,
                feasible
            );
        }
    }
}

/// The fleet sweep is placement-replay-deterministic across thread counts:
/// a 4-worker run of a grid spanning all strategies and a mid-run failure is
/// byte-identical to the serial run.
#[test]
fn fleet_sweep_replays_identically_across_thread_counts() {
    let grid = SweepGrid::new().replicates(2).axis(vec![
        (
            "rr",
            FleetAxis {
                placement: PlacementStrategy::RoundRobin,
                failures: FailureSchedule::new().fail(DcId(0), Time::from_secs(2)),
                ..FleetAxis::default()
            },
        ),
        (
            "rw",
            FleetAxis {
                placement: PlacementStrategy::RandomWeighted,
                failures: FailureSchedule::new().fail(DcId(1), Time::from_secs(2)),
                ..FleetAxis::default()
            },
        ),
        (
            "lb",
            FleetAxis {
                placement: PlacementStrategy::LatencyBudgetAware,
                failures: FailureSchedule::new().fail(DcId(2), Time::from_secs(2)),
                ..FleetAxis::default()
            },
        ),
    ]);
    let suite = ExperimentSuite::new("fleet-props", 77, grid, |point| {
        let mut scenario = FleetScenario::new(point.scenario_seed())
            .with_axis(&point.payload)
            .with_internet(
                LinkSpec::symmetric(Dur::from_millis(75)).loss(LossSpec::Bernoulli(0.02)),
            );
        for i in 0..4 {
            scenario = scenario.add_flow(
                if i % 2 == 0 {
                    ServiceKind::Caching
                } else {
                    ServiceKind::Coding
                },
                Dur::from_millis(400),
                Box::new(CbrSource::new(Dur::from_millis(25), 400, 120)),
            );
        }
        let report = scenario.run(Dur::from_secs(5));
        let digest = report.digest();
        netsim::stats::PointStats::new("")
            .metric("relocated", report.relocated() as f64)
            .metric("dropped", report.dropped() as f64)
            .metric("digest_hi", (digest >> 32) as u32 as f64)
            .metric("digest_lo", digest as u32 as f64)
    });
    let serial = suite.run(1);
    let parallel = suite.run(4);
    assert_eq!(serial.digest(), parallel.digest());
    assert_eq!(serial.report, parallel.report);
    // Something actually happened in these runs: every point evicted a DC.
    let relocated_or_dropped: f64 = serial
        .report
        .points()
        .iter()
        .map(|p| p.get_metric("relocated").unwrap_or(0.0) + p.get_metric("dropped").unwrap_or(0.0))
        .sum();
    assert!(relocated_or_dropped > 0.0);
}

/// Fleet control messages round-trip through the shared `Msg` wire enum with
/// the small-control wire size.
#[test]
fn fleet_messages_ride_the_control_wire_size() {
    let msg = Msg::Fleet(FleetMsg::Heartbeat { dc: DcId(3) });
    assert_eq!(msg.wire_size(), jqos_core::packet::HEADER_BYTES + 16);
}
