//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * in-stream + cross-stream coding vs cross-stream only (encoding cost of
//!   the first line of defence),
//! * the cross-stream batch width `k` (cooperative-recovery decode cost grows
//!   with `k`, which is why the paper bounds it to ~10),
//! * one vs two cross-stream coded packets per batch (straggler protection
//!   costs one extra parity computation),
//! * end-to-end scenario throughput with the coding vs caching service.
//!
//! Every ablation point is expressed as a one-point [`ExperimentSuite`] grid
//! and measured through `suite.run(1)`, so these benches track the cost of
//! the exact code path the figure sweeps execute (scenario construction,
//! per-point seeding, report aggregation) rather than a bespoke loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jqos_core::prelude::*;
use netsim::stats::PointStats;

/// A one-point suite running four flows of `service` with `coding` over a
/// bursty wide-area path — the shared scenario of all ablation groups.
fn scenario_suite(
    service: ServiceKind,
    coding: CodingParams,
    seed: u64,
) -> ExperimentSuite<(), impl Fn(&SweepPoint) -> PointStats + Sync> {
    let grid = SweepGrid::new().seeds([seed]);
    ExperimentSuite::new("ablation", seed, grid, move |point| {
        let mut scenario = Scenario::new(point.scenario_seed())
            .with_topology(Topology::wide_area(LossSpec::bursty(0.01, 3.0)))
            .with_coding(coding);
        for _ in 0..4 {
            scenario = scenario.add_flow(
                service,
                Box::new(CbrSource::new(Dur::from_millis(20), 512, 250)),
            );
        }
        let report = scenario.run(Dur::from_secs(6));
        PointStats::new("")
            .metric("recovery_rate", report.overall_recovery_rate())
            .metric("coding_overhead", report.coding_overhead())
    })
}

fn bench_in_stream_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_in_stream");
    group.sample_size(10);
    for (label, in_stream) in [("cross_only", false), ("cross_plus_in_stream", true)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &in_stream,
            |b, &in_stream| {
                let coding = CodingParams {
                    in_stream_enabled: in_stream,
                    ..CodingParams::planetlab_defaults()
                };
                let suite = scenario_suite(ServiceKind::Coding, coding, 11);
                b.iter(|| suite.run(1));
            },
        );
    }
    group.finish();
}

fn bench_batch_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_batch_width");
    group.sample_size(10);
    for k in [4usize, 6, 10, 20] {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let coding = CodingParams {
                k,
                in_stream_enabled: false,
                ..CodingParams::planetlab_defaults()
            };
            let suite = scenario_suite(ServiceKind::Coding, coding, 13);
            b.iter(|| suite.run(1));
        });
    }
    group.finish();
}

fn bench_straggler_protection(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_cross_parity");
    group.sample_size(10);
    for parity in [1usize, 2] {
        group.bench_with_input(
            BenchmarkId::from_parameter(parity),
            &parity,
            |b, &parity| {
                let coding = CodingParams {
                    cross_parity: parity,
                    in_stream_enabled: false,
                    ..CodingParams::planetlab_defaults()
                };
                let suite = scenario_suite(ServiceKind::Coding, coding, 17);
                b.iter(|| suite.run(1));
            },
        );
    }
    group.finish();
}

fn bench_service_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_service");
    group.sample_size(10);
    for service in [
        ServiceKind::Caching,
        ServiceKind::Coding,
        ServiceKind::Forwarding,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(service.to_string()),
            &service,
            |b, &service| {
                let suite = scenario_suite(service, CodingParams::planetlab_defaults(), 19);
                b.iter(|| suite.run(1));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_in_stream_ablation,
    bench_batch_width,
    bench_straggler_protection,
    bench_service_comparison
);
criterion_main!(benches);
