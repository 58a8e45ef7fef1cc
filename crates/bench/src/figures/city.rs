//! City sweep — trace-driven flow populations with class aggregation.
//!
//! The grid crosses the city axis — population size × diurnal phase ×
//! flash-crowd regime — with replicate seeds.  Every point runs the
//! `workloads::population` engine: the population is partitioned across the
//! class catalog (workload model × region pair), session arrivals are
//! sampled hour-by-hour from the measurement-derived demand curves, and a
//! handful of representative flows per class run packet-level on netsim
//! while class statistics scale analytically.  A 10^5–10^6-user city
//! therefore resolves in seconds to minutes.
//!
//! The run produces `BENCH_sweep_city.json`: per-class SLO attainment,
//! interpolated latency quantiles, arrival volumes and service-mix cost,
//! plus the sweep's deterministic digests (asserted identical between the
//! 1-thread and N-thread executions by the usual baseline replay).

use crate::harness::{run_suite, section, sized, write_json, Series, SweepTiming};
use crate::json::json_struct;
use jqos_core::prelude::*;
use netsim::stats::PointStats;
use workloads::population::{class_catalog, run_city, CityConfig};

json_struct! {
    struct CityClassRow {
        class: String,
        service: String,
        users: u64,
        arrivals: u64,
        peak_hour_arrivals: u64,
        slo_attainment: f64,
        latency_p50_ms: f64,
        latency_p99_ms: f64,
        burst_loss_packets: u64,
        cost_per_hour: f64,
    }
}

json_struct! {
    struct CityPointRow {
        label: String,
        city: String,
        population: u64,
        diurnal_phase_hours: f64,
        flash_crowd: String,
        seed: u64,
        total_arrivals: u64,
        slo_attainment: f64,
        cost_per_hour: f64,
        classes: Vec<CityClassRow>,
        /// FNV-1a digest of the full `CityReport`, hex (JSON numbers travel
        /// as f64, see [`crate::json`]).
        digest: String,
    }
}

json_struct! {
    struct CitySweepDoc {
        schema: &'static str,
        quick_mode: bool,
        master_seed: String,
        observed_hours: u32,
        reps_per_class: usize,
        sim_duration_ms: u64,
        class_count: usize,
        points: Vec<CityPointRow>,
        timing: SweepTiming,
    }
}

/// The city-axis entries of the grid: populations × diurnal phases ×
/// flash-crowd regimes (phases collapse to one value in quick mode).
fn city_entries() -> Vec<(String, CityAxis)> {
    let populations: &[u64] = &[100_000, 1_000_000];
    let phases: &[f64] = if crate::harness::quick_mode() {
        &[0.0]
    } else {
        &[0.0, 8.0]
    };
    let crowds = [FlashCrowdLevel::None, FlashCrowdLevel::Global];
    let mut entries = Vec::new();
    for &population in populations {
        for &phase in phases {
            for &flash_crowd in &crowds {
                let axis = CityAxis {
                    population,
                    diurnal_phase_hours: phase,
                    flash_crowd,
                };
                entries.push((axis.label(), axis));
            }
        }
    }
    entries
}

/// The per-point engine knobs (full vs quick fidelity).
fn config_for(axis: CityAxis) -> CityConfig {
    if crate::harness::quick_mode() {
        CityConfig::quick(axis)
    } else {
        CityConfig::new(axis)
    }
}

/// Runs the city suite on `threads` sweep workers.
pub fn run(threads: usize, baseline: bool) {
    let master_seed = 29;
    let seeds = sized(2, 1);
    let catalog = class_catalog();
    let class_count = catalog.len();
    let knobs = config_for(CityAxis::default());

    section("City sweep: trace-driven populations with class aggregation");
    let entries = city_entries();
    let grid = SweepGrid::new().replicates(seeds).axis(entries.clone());

    let suite = ExperimentSuite::new("city", master_seed, grid, move |point| {
        let report = run_city(&config_for(point.payload), point.scenario_seed());
        let digest = report.digest();
        let mut stats = PointStats::new("")
            .metric("population", report.axis.population as f64)
            .metric("total_arrivals", report.total_arrivals() as f64)
            .metric("slo_attainment", report.slo_attainment())
            .metric("cost_per_hour", report.cost_per_hour())
            // Split so both halves survive the f64 metric channel exactly.
            .metric("digest_hi", (digest >> 32) as u32 as f64)
            .metric("digest_lo", digest as u32 as f64);
        for c in &report.classes {
            let i = c.class.index;
            stats = stats
                .metric(&format!("cls{i}_users"), c.users as f64)
                .metric(&format!("cls{i}_arrivals"), c.arrivals as f64)
                .metric(&format!("cls{i}_peak"), c.peak_hour_arrivals as f64)
                .metric(&format!("cls{i}_slo"), c.slo_attainment())
                .metric(&format!("cls{i}_p50"), c.latency_p50_ms)
                .metric(&format!("cls{i}_p99"), c.latency_p99_ms)
                .metric(&format!("cls{i}_bursts"), c.rep_burst_losses as f64)
                .metric(&format!("cls{i}_cost"), c.cost_per_hour);
        }
        stats
    });
    let (out, timing) = run_suite(&suite, threads, baseline);

    // Point order: city axis outermost, seeds innermost.
    let points = out.report.points();
    let metric = |i: usize, key: &str| points[i].get_metric(key).unwrap_or(0.0);
    let mut rows: Vec<CityPointRow> = Vec::new();
    for (entry_idx, (label, axis)) in entries.iter().enumerate() {
        for seed_idx in 0..seeds {
            let i = entry_idx * seeds + seed_idx;
            let digest = ((metric(i, "digest_hi") as u64) << 32) | metric(i, "digest_lo") as u64;
            let classes = catalog
                .iter()
                .map(|class| {
                    let k = class.index;
                    CityClassRow {
                        class: class.label(),
                        service: class.model.service().to_string(),
                        users: metric(i, &format!("cls{k}_users")) as u64,
                        arrivals: metric(i, &format!("cls{k}_arrivals")) as u64,
                        peak_hour_arrivals: metric(i, &format!("cls{k}_peak")) as u64,
                        slo_attainment: metric(i, &format!("cls{k}_slo")),
                        latency_p50_ms: metric(i, &format!("cls{k}_p50")),
                        latency_p99_ms: metric(i, &format!("cls{k}_p99")),
                        burst_loss_packets: metric(i, &format!("cls{k}_bursts")) as u64,
                        cost_per_hour: metric(i, &format!("cls{k}_cost")),
                    }
                })
                .collect();
            rows.push(CityPointRow {
                label: out.point_labels[i].clone(),
                city: label.clone(),
                population: metric(i, "population") as u64,
                diurnal_phase_hours: axis.diurnal_phase_hours,
                flash_crowd: axis.flash_crowd.to_string(),
                seed: seed_idx as u64,
                total_arrivals: metric(i, "total_arrivals") as u64,
                slo_attainment: metric(i, "slo_attainment"),
                cost_per_hour: metric(i, "cost_per_hour"),
                classes,
                digest: format!("{digest:#018x}"),
            });
        }
        assert!(
            rows[entry_idx * seeds].label.contains(label.as_str()),
            "city label must appear in the point label"
        );
    }

    // Console summary: SLO attainment and cost per city entry.
    for (entry_idx, (label, _)) in entries.iter().enumerate() {
        let mine = &rows[entry_idx * seeds..(entry_idx + 1) * seeds];
        Series::from_samples(
            &format!("{label} SLO attainment"),
            mine.iter().map(|r| r.slo_attainment).collect(),
        )
        .print_row();
        let arrivals: u64 = mine.iter().map(|r| r.total_arrivals).sum();
        let cost: f64 = mine.iter().map(|r| r.cost_per_hour).sum::<f64>() / mine.len() as f64;
        println!(
            "     {arrivals} arrivals across {} seeds, ${cost:.0}/h overlay",
            mine.len()
        );
    }

    write_json(
        "BENCH_sweep_city",
        &CitySweepDoc {
            schema: "jqos.city_sweep.v1",
            quick_mode: crate::harness::quick_mode(),
            master_seed: format!("{master_seed:#x}"),
            observed_hours: knobs.observed_hours,
            reps_per_class: knobs.reps_per_class,
            sim_duration_ms: knobs.sim_duration.as_millis_f64() as u64,
            class_count,
            points: rows,
            timing,
        },
    );
}
