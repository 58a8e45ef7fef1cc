//! Property-test wall for the population engine.
//!
//! The city-scale workload generator must (1) conserve the population
//! exactly when partitioning it into flow classes, (2) produce finite,
//! non-negative demand no matter how diurnal phase, flash crowds and regions
//! combine, and (3) replay byte-identically — both call-for-call and when a
//! city grid is spread across sweep worker threads.

use jqos_core::prelude::*;
use measurements::loadcurves::{flash_crowds, flash_multiplier, DiurnalCurve};
use measurements::regions::Region;
use proptest::prelude::*;
use workloads::population::{
    class_catalog, partition_population, run_city, sample_poisson, CityConfig,
};

/// A deliberately small engine configuration so property cases stay fast;
/// population scaling is analytic, so the full axis populations still flow
/// through every code path.
fn tiny_config(axis: CityAxis) -> CityConfig {
    CityConfig {
        observed_hours: 2,
        reps_per_class: 1,
        sim_duration: Dur::from_millis(1_200),
        ..CityConfig::quick(axis)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Largest-remainder partitioning conserves the population exactly for
    /// the real class catalog at any city size.
    #[test]
    fn class_partition_conserves_the_population(population in 1u64..5_000_000) {
        let weights: Vec<f64> = class_catalog().iter().map(|c| c.weight).collect();
        let shares = partition_population(population, &weights);
        prop_assert_eq!(shares.len(), weights.len());
        prop_assert_eq!(shares.iter().sum::<u64>(), population);
    }

    /// ... and for arbitrary positive weight vectors, not just the catalog.
    #[test]
    fn arbitrary_weight_partitions_conserve_the_population(
        population in 0u64..2_000_000,
        raw_weights in proptest::collection::vec(1u32..10_000, 1..40),
    ) {
        let weights: Vec<f64> = raw_weights.iter().map(|&w| f64::from(w)).collect();
        let shares = partition_population(population, &weights);
        prop_assert_eq!(shares.iter().sum::<u64>(), population);
    }

    /// Demand (diurnal curve × flash-crowd multiplier) is finite and
    /// non-negative for every region, hour and phase, with and without
    /// flash-crowd episodes; episode parameters themselves stay sane.
    #[test]
    fn demand_is_always_finite_and_nonnegative(
        seed in 0u64..10_000,
        hour_twelfths in 0u32..(96 * 12),
        phase_twelfths in 0u32..(48 * 12),
        horizon_hours in 1u32..72,
    ) {
        let curve = DiurnalCurve::evening_peak();
        let hour = f64::from(hour_twelfths) / 12.0;
        // Map [0, 48h) onto [-24h, +24h) to cover negative phases too.
        let phase = f64::from(phase_twelfths) / 12.0 - 24.0;
        let episodes = flash_crowds(seed, f64::from(horizon_hours), &Region::ALL);
        for e in &episodes {
            prop_assert!(e.start_hour.is_finite() && e.start_hour >= 0.0);
            prop_assert!(e.duration_hours.is_finite() && e.duration_hours > 0.0);
            prop_assert!(e.multiplier.is_finite() && e.multiplier > 1.0);
        }
        for &region in &Region::ALL {
            let base = curve.load_factor(region, hour, phase);
            prop_assert!(base.is_finite() && base >= 0.0, "base {base}");
            let demand = base * flash_multiplier(&episodes, region, hour);
            prop_assert!(demand.is_finite() && demand >= 0.0, "demand {demand}");
        }
    }

    /// The Poisson sampler never goes negative or non-integer-ish even at
    /// huge rates (the normal-approximation branch clamps at zero).
    #[test]
    fn poisson_samples_are_well_formed(
        seed in 0u64..10_000,
        lambda_scaled in 0u64..50_000_000,
    ) {
        let mut rng = netsim::rng::component_rng(seed, 0x90);
        let lambda = lambda_scaled as f64 / 100.0;
        let x = sample_poisson(&mut rng, lambda);
        // u64 is non-negative by construction; the value must also stay in
        // the same ballpark as λ rather than exploding.
        prop_assert!((x as f64) <= lambda * 3.0 + 50.0, "λ {lambda} -> {x}");
    }

    /// `run_city` is a pure function of `(config, seed)`: replaying the same
    /// inputs gives digest-identical reports.
    #[test]
    fn city_reports_replay_identically(seed in 0u64..1_000, pop_k in 1u64..20) {
        let config = tiny_config(CityAxis {
            population: pop_k * 100_000,
            ..CityAxis::default()
        });
        let a = run_city(&config, seed);
        let b = run_city(&config, seed);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(
            a.classes.iter().map(|c| c.users).sum::<u64>(),
            config.axis.population
        );
    }
}

/// A city grid spread across 4 sweep workers renders byte-identically to the
/// serial run — the determinism invariant the CLI asserts via baseline
/// replay, checked here without the harness.
#[test]
fn city_sweep_replays_identically_across_thread_counts() {
    let grid = SweepGrid::new().replicates(2).axis(vec![
        ("c100k", CityAxis::default()),
        (
            "c250k-fc",
            CityAxis {
                population: 250_000,
                diurnal_phase_hours: 6.0,
                flash_crowd: FlashCrowdLevel::Global,
            },
        ),
    ]);
    let suite = ExperimentSuite::new("city-props", 31, grid, |point| {
        let report = run_city(&tiny_config(point.payload), point.scenario_seed());
        let digest = report.digest();
        netsim::stats::PointStats::new("")
            .metric("arrivals", report.total_arrivals() as f64)
            .metric("slo", report.slo_attainment())
            .metric("digest_hi", (digest >> 32) as u32 as f64)
            .metric("digest_lo", digest as u32 as f64)
    });
    let serial = suite.run(1);
    let parallel = suite.run(4);
    assert_eq!(serial.digest(), parallel.digest());
    assert_eq!(serial.report, parallel.report);
    // The runs did real work: every point sampled arrivals.
    for p in serial.report.points() {
        assert!(p.get_metric("arrivals").unwrap_or(0.0) > 0.0);
        let slo = p.get_metric("slo").unwrap_or(-1.0);
        assert!((0.0..=1.0).contains(&slo));
    }
}
