//! Criterion bench behind Figure 10: Reed–Solomon encoding throughput as the
//! number of encoder threads grows.  `jqos sweep --fig 10` prints the Kpps
//! table; this bench tracks the same operation with
//! statistical rigour so regressions in the encoder show up in CI.
//!
//! The thread axis is expressed as the same one-point-per-config
//! [`ExperimentSuite`] grid the figure uses, so the measured path includes
//! the sweep harness the figures run through.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jqos_core::coding::engine::{EncodingEngine, EngineConfig};
use jqos_core::{ExperimentSuite, SweepGrid, SweepPoint};
use netsim::stats::PointStats;

/// One-point suite running the encoder with `threads` internal workers.
fn engine_suite(
    threads: usize,
    packets: u64,
) -> ExperimentSuite<u64, impl Fn(&SweepPoint<u64>) -> PointStats + Sync> {
    let grid = SweepGrid::new().axis(vec![(format!("threads{threads}"), threads as u64)]);
    ExperimentSuite::new("fig10_bench", 0, grid, move |point| {
        let engine = EncodingEngine::new(EngineConfig {
            threads: point.payload as usize,
            block_size: 5,
            parity: 1,
            packet_bytes: 512,
        });
        let report = engine.run(packets);
        PointStats::new("").metric("ingress_pps", report.ingress_pps())
    })
}

fn bench_encoding_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_encoding_scaling");
    let packets_per_iter = 50_000u64;
    group.throughput(Throughput::Elements(packets_per_iter));
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let suite = engine_suite(threads, packets_per_iter);
                b.iter(|| suite.run(1));
            },
        );
    }
    group.finish();
}

fn bench_packet_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoding_packet_size");
    group.sample_size(10);
    for bytes in [256usize, 512, 1024, 1400] {
        group.throughput(Throughput::Bytes((bytes as u64) * 20_000));
        group.bench_with_input(BenchmarkId::from_parameter(bytes), &bytes, |b, &bytes| {
            let engine = EncodingEngine::new(EngineConfig {
                threads: 1,
                block_size: 5,
                parity: 1,
                packet_bytes: bytes,
            });
            b.iter(|| engine.run(20_000));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_encoding_threads, bench_packet_sizes);
criterion_main!(benches);
