//! Fleet sweep — DC-fleet failover under the control plane (registration,
//! heartbeats, eviction, relocation).
//!
//! The grid crosses the fleet axis — fleet sizes {3, 5} × the three placement
//! strategies, each with DC 1 crashing mid-run — with replicate seeds.  Every
//! point runs a [`FleetScenario`]: six flows of mixed service classes admitted
//! onto the fleet, heartbeat agents beating at the controller, and the
//! scheduled crash forcing a `Registered → Suspect → Evicted` walk followed by
//! relocation of the orphaned flows onto the survivors.
//!
//! The run produces `BENCH_sweep_fleet.json`: per-point relocation latencies,
//! flows dropped vs relocated (with reason codes), per-strategy service-mix
//! cost, residual delivery rates, and the sweep's deterministic digests
//! (asserted identical between the 1-thread and N-thread executions by the
//! usual baseline replay).

use crate::harness::{run_suite, section, sized, write_json, Series, SweepTiming};
use crate::json::json_struct;
use jqos_core::prelude::*;
use netsim::stats::PointStats;

/// The paper's cloud/Internet relative-cost parameter used for the
/// service-mix cost metric.
const ALPHA: f64 = 0.1;

/// The DC crashed in every failure-bearing sweep point.
const FAILED_DC: DcId = DcId(1);

/// Service classes (and latency budgets) cycled across a point's flows.
const FLOW_MIX: [(ServiceKind, u64); 3] = [
    (ServiceKind::Caching, 400),
    (ServiceKind::Coding, 350),
    (ServiceKind::Forwarding, 200),
];

json_struct! {
    struct FleetPointRow {
        label: String,
        fleet_size: usize,
        placement: String,
        seed: u64,
        flows: usize,
        flows_placed: usize,
        evictions: usize,
        flows_relocated: usize,
        flows_dropped_fleet_empty: usize,
        flows_dropped_no_capacity: usize,
        relocation_latencies_ms: Vec<f64>,
        sent: usize,
        delivered: usize,
        recovered: usize,
        delivery_rate: f64,
        service_mix_cost: f64,
        /// FNV-1a digest of the full [`FleetReport`], hex (JSON numbers
        /// travel as f64, see [`crate::json`]).
        digest: String,
    }
}

json_struct! {
    struct StrategySummary {
        placement: String,
        points: usize,
        flows_relocated: usize,
        flows_dropped: usize,
        relocation_latency_ms_mean: f64,
        service_mix_cost_mean: f64,
        delivery_rate_mean: f64,
    }
}

json_struct! {
    struct FailureInfo {
        dc: u32,
        at_ms: u64,
    }
}

json_struct! {
    struct FleetSweepDoc {
        schema: &'static str,
        quick_mode: bool,
        master_seed: String,
        duration_ms: u64,
        alpha: f64,
        flows_per_point: usize,
        failure: FailureInfo,
        strategies: Vec<StrategySummary>,
        points: Vec<FleetPointRow>,
        timing: SweepTiming,
    }
}

/// The fleet-axis entries of the grid: sizes × strategies, every entry with
/// the same mid-run crash of [`FAILED_DC`].
fn fleet_entries(failure_at: Time) -> Vec<(String, FleetAxis)> {
    let mut entries = Vec::new();
    for &size in &[3usize, 5] {
        for &placement in &[
            PlacementStrategy::RoundRobin,
            PlacementStrategy::RandomWeighted,
            PlacementStrategy::LatencyBudgetAware,
        ] {
            entries.push((
                format!("n{size}-{placement}"),
                FleetAxis {
                    fleet_size: size,
                    capacity: 4,
                    placement,
                    failures: FailureSchedule::new().fail(FAILED_DC, failure_at),
                },
            ));
        }
    }
    entries
}

/// Runs the fleet suite on `threads` sweep workers.
pub fn run(threads: usize, baseline: bool) {
    let master_seed = 23;
    let seeds = sized(3, 2);
    let n_flows = 6;
    let packets = sized(240, 120) as u64;
    let duration = Dur::from_secs(sized(8, 6) as u64);
    let failure_at = Time::from_secs(3);

    section("Fleet sweep: registration, heartbeats, failover");
    let entries = fleet_entries(failure_at);
    let grid = SweepGrid::new()
        .replicates(seeds)
        .axis(cross(&entries, &[("p2", LossSpec::Bernoulli(0.02))]));

    let suite = ExperimentSuite::new("fleet", master_seed, grid, move |point| {
        let (fleet, loss) = &point.payload;
        let mut scenario = FleetScenario::new(point.scenario_seed())
            .with_axis(fleet)
            .with_internet(LinkSpec::symmetric(Dur::from_millis(75)).loss(loss.clone()));
        for i in 0..n_flows {
            let (service, budget_ms) = FLOW_MIX[i % FLOW_MIX.len()];
            scenario = scenario.add_flow(
                service,
                Dur::from_millis(budget_ms),
                Box::new(CbrSource::new(Dur::from_millis(25), 400, packets)),
            );
        }
        let report = scenario.run(duration);

        let sent: usize = report.flows.iter().map(|f| f.sent()).sum();
        let delivered: usize = report.flows.iter().map(|f| f.delivered()).sum();
        let recovered: usize = report.flows.iter().map(|f| f.recovered()).sum();
        let digest = report.digest();
        PointStats::new("")
            .metric("flows_placed", report.fleet.flows_placed as f64)
            .metric("evictions", report.fleet.evictions as f64)
            .metric("relocated", report.relocated() as f64)
            .metric(
                "dropped_fleet_empty",
                report.dropped_with(DropReason::FleetEmpty) as f64,
            )
            .metric(
                "dropped_no_capacity",
                report.dropped_with(DropReason::NoCapacity) as f64,
            )
            .metric("sent", sent as f64)
            .metric("delivered", delivered as f64)
            .metric("recovered", recovered as f64)
            .metric(
                "delivery_rate",
                if sent == 0 {
                    0.0
                } else {
                    delivered as f64 / sent as f64
                },
            )
            .metric("service_mix_cost", report.service_mix_cost(ALPHA))
            // Split so both halves survive the f64 metric channel exactly.
            .metric("digest_hi", (digest >> 32) as u32 as f64)
            .metric("digest_lo", digest as u32 as f64)
            .series(
                "relocation_latencies_ms",
                report
                    .relocation_latencies()
                    .iter()
                    .map(|d| d.as_millis_f64())
                    .collect(),
            )
    });
    let (out, timing) = run_suite(&suite, threads, baseline);

    // Point order: fleet axis outermost (one loss entry), seeds innermost.
    let points = out.report.points();
    let metric = |i: usize, key: &str| points[i].get_metric(key).unwrap_or(0.0);
    let mut rows: Vec<FleetPointRow> = Vec::new();
    for (entry_idx, (label, axis)) in entries.iter().enumerate() {
        for seed_idx in 0..seeds {
            let i = entry_idx * seeds + seed_idx;
            let digest = ((metric(i, "digest_hi") as u64) << 32) | metric(i, "digest_lo") as u64;
            rows.push(FleetPointRow {
                label: out.point_labels[i].clone(),
                fleet_size: axis.fleet_size,
                placement: axis.placement.to_string(),
                seed: seed_idx as u64,
                flows: n_flows,
                flows_placed: metric(i, "flows_placed") as usize,
                evictions: metric(i, "evictions") as usize,
                flows_relocated: metric(i, "relocated") as usize,
                flows_dropped_fleet_empty: metric(i, "dropped_fleet_empty") as usize,
                flows_dropped_no_capacity: metric(i, "dropped_no_capacity") as usize,
                relocation_latencies_ms: points[i]
                    .get_series("relocation_latencies_ms")
                    .unwrap_or(&[])
                    .to_vec(),
                sent: metric(i, "sent") as usize,
                delivered: metric(i, "delivered") as usize,
                recovered: metric(i, "recovered") as usize,
                delivery_rate: metric(i, "delivery_rate"),
                service_mix_cost: metric(i, "service_mix_cost"),
                digest: format!("{digest:#018x}"),
            });
        }
        assert!(
            rows[entry_idx * seeds].label.starts_with(label.as_str()),
            "fleet label must prefix the point label"
        );
    }

    // Per-strategy aggregates across fleet sizes and seeds.
    let mut strategies: Vec<StrategySummary> = Vec::new();
    for &placement in &[
        PlacementStrategy::RoundRobin,
        PlacementStrategy::RandomWeighted,
        PlacementStrategy::LatencyBudgetAware,
    ] {
        let name = placement.to_string();
        let mine: Vec<&FleetPointRow> = rows.iter().filter(|r| r.placement == name).collect();
        let latencies: Vec<f64> = mine
            .iter()
            .flat_map(|r| r.relocation_latencies_ms.iter().copied())
            .collect();
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        Series::from_samples(&format!("{name} relocation (ms)"), latencies.clone()).print_row();
        strategies.push(StrategySummary {
            placement: name,
            points: mine.len(),
            flows_relocated: mine.iter().map(|r| r.flows_relocated).sum(),
            flows_dropped: mine
                .iter()
                .map(|r| r.flows_dropped_fleet_empty + r.flows_dropped_no_capacity)
                .sum(),
            relocation_latency_ms_mean: mean(&latencies),
            service_mix_cost_mean: mean(
                &mine.iter().map(|r| r.service_mix_cost).collect::<Vec<_>>(),
            ),
            delivery_rate_mean: mean(&mine.iter().map(|r| r.delivery_rate).collect::<Vec<_>>()),
        });
    }
    let total_relocated: usize = rows.iter().map(|r| r.flows_relocated).sum();
    let total_dropped: usize = rows
        .iter()
        .map(|r| r.flows_dropped_fleet_empty + r.flows_dropped_no_capacity)
        .sum();
    println!(
        "  -> {} points: {} flows relocated, {} dropped during failover",
        rows.len(),
        total_relocated,
        total_dropped
    );

    write_json(
        "BENCH_sweep_fleet",
        &FleetSweepDoc {
            schema: "jqos.fleet_sweep.v1",
            quick_mode: crate::harness::quick_mode(),
            master_seed: format!("{master_seed:#x}"),
            duration_ms: duration.as_millis_f64() as u64,
            alpha: ALPHA,
            flows_per_point: n_flows,
            failure: FailureInfo {
                dc: FAILED_DC.0,
                at_ms: failure_at.0 / 1_000,
            },
            strategies,
            points: rows,
            timing,
        },
    );
}
