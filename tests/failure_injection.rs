//! Failure-injection integration tests: the reliability services must behave
//! sensibly when the helpers themselves misbehave (lossy access links,
//! straggling cooperators, NACK loss, long outages).

use jqos::core::coding::params::CodingParams;
use jqos::prelude::*;

/// Even when the receiver↔DC2 access path loses packets (NACKs, cooperative
/// responses and recovered packets can all be dropped), the system degrades
/// gracefully instead of deadlocking, and straggler protection (two coded
/// packets per batch) recovers more than a single coded packet does.
#[test]
fn lossy_access_paths_degrade_gracefully_and_straggler_protection_helps() {
    let run = |cross_parity: usize| {
        let topology = Topology::wide_area(LossSpec::bursty(0.02, 4.0))
            .receiver_access_loss(LossSpec::Bernoulli(0.02));
        let mut scenario = Scenario::new(200)
            .with_topology(topology)
            .with_coding(CodingParams {
                cross_parity,
                in_stream_enabled: false,
                ..CodingParams::planetlab_defaults()
            });
        for _ in 0..6 {
            scenario = scenario.add_flow(
                ServiceKind::Coding,
                Box::new(CbrSource::new(Dur::from_millis(20), 512, 1_000)),
            );
        }
        scenario.run(Dur::from_secs(25))
    };
    let one = run(1);
    let two = run(2);
    // Nothing hangs and a sensible fraction still gets through in both cases.
    assert!(one.overall_recovery_rate() > 0.3);
    assert!(
        two.overall_recovery_rate() > one.overall_recovery_rate() - 0.05,
        "two coded packets should not do worse: {:.2} vs {:.2}",
        two.overall_recovery_rate(),
        one.overall_recovery_rate()
    );
    // Some cooperative recoveries fail silently at the deadline, as §4.4 allows.
    assert!(one.dc2.coop_failed + one.dc2.waiting_expired > 0);
}

/// A multi-second outage on the direct path: the coding service keeps pulling
/// the stream through DC2, and residual loss stays far below the outage size.
#[test]
fn coding_service_survives_a_long_outage() {
    let outage = LossSpec::Compound(vec![
        LossSpec::Bernoulli(0.002),
        LossSpec::Outage(vec![(Time::from_secs(6), Time::from_secs(9))]),
    ]);
    // Only the measured flow's Internet path suffers the outage; the
    // companion flows ride their own (independently lossy) paths, which is
    // the diversity cross-stream coding depends on ("not all Internet paths
    // experience losses at the same time", §1).
    let mut scenario = Scenario::new(201)
        .with_topology(Topology::wide_area(LossSpec::Bernoulli(0.002)))
        .with_coding(CodingParams::planetlab_defaults())
        .add_flow_with_path(
            ServiceKind::Coding,
            Box::new(CbrSource::new(Dur::from_millis(25), 512, 700)),
            LinkSpec::symmetric(Dur::from_millis(75)).loss(outage),
        );
    for _ in 0..3 {
        scenario = scenario.add_flow(
            ServiceKind::Coding,
            Box::new(CbrSource::new(Dur::from_millis(25), 512, 700)),
        );
    }
    let report = scenario.run(Dur::from_secs(20));
    let flow = &report.flows[0];
    // The outage alone destroys ~120 packets on the direct path.
    assert!(
        flow.lost_on_direct() > 100,
        "outage should hit the direct path"
    );
    assert!(
        flow.residual_loss_rate() < 0.05,
        "most of the outage must be repaired, residual {:.3}",
        flow.residual_loss_rate()
    );
}

/// DC2 double-checks NACKs it cannot serve yet with the receiver; that
/// check must not get in the way of recovery.
#[test]
fn recovery_works_with_nack_checking() {
    let report = Scenario::new(202)
        .with_topology(Topology::wide_area(LossSpec::Bernoulli(0.02)))
        .add_flow(
            ServiceKind::Caching,
            Box::new(CbrSource::new(Dur::from_millis(20), 400, 800)),
        )
        .run(Dur::from_secs(20));
    assert!(report.flows[0].recovery_rate() > 0.85);
}

/// A DC2 goes dark mid-flow.  Parameterized over the whole fleet: whichever
/// of the three DCs crashes, the outcome must be the same shape — the dead
/// DC is evicted, its flows relocate to survivors and keep delivering, the
/// direct path never stops, and traffic aimed at the corpse is dropped by
/// the simulator with accounting, not blackholed.
#[test]
fn dc2_outage_mid_flow_degrades_gracefully() {
    let failure_at = Time::from_secs(3);
    for crashed in 0..3u32 {
        let crashed = DcId(crashed);
        let mut scenario = FleetScenario::new(204)
            .with_fleet(uniform_fleet(3, 4))
            .with_internet(
                LinkSpec::symmetric(Dur::from_millis(75)).loss(LossSpec::Bernoulli(0.02)),
            )
            .with_failures(FailureSchedule::new().fail(crashed, failure_at));
        for _ in 0..3 {
            scenario = scenario.add_flow(
                ServiceKind::Caching,
                Dur::from_millis(400),
                Box::new(CbrSource::new(Dur::from_millis(25), 400, 260)),
            );
        }
        let report = scenario.run(Dur::from_secs(8));

        // Exactly the crashed DC is evicted; the rest of the fleet is healthy.
        for &(dc, state, _) in &report.dc_states {
            if dc == crashed {
                assert_eq!(state, DcState::Evicted, "crashed {crashed:?} must evict");
            } else {
                assert_eq!(state, DcState::Registered, "survivor {dc:?} must stay");
            }
        }
        assert_eq!(report.fleet.evictions, 1);
        // Round-robin admission puts one flow on each DC, so exactly one flow
        // relocates — regardless of which DC died.
        assert_eq!(report.relocated(), 1, "one flow lived on {crashed:?}");
        assert_eq!(report.dropped(), 0);
        let evicted_at = report.dc_states[crashed.0 as usize]
            .2
            .expect("eviction is timestamped");
        for event in report.relocations_from(crashed) {
            let flow = &report.flows[event.flow.0 as usize];
            assert!(
                flow.delivered_after(evicted_at) > 0,
                "flow {} must keep delivering after {crashed:?} died",
                event.flow.0
            );
        }
        // The direct path is unaffected by the DC outage, for every flow.
        for flow in &report.flows {
            assert!(
                flow.delivered_direct() > flow.sent() * 9 / 10,
                "direct path should keep delivering, got {}/{}",
                flow.delivered_direct(),
                flow.sent()
            );
        }
        // Traffic aimed at the dead DC was dropped with accounting.
        assert!(report.messages_dropped_down > 0);
    }
}

/// Back-to-back loss episodes on the direct path must be classified in the
/// report's `EpisodeBreakdown`: repeated short outages show up as outage
/// packets, background random drops as random/multi-packet episodes.
#[test]
fn back_to_back_loss_episodes_are_reflected_in_the_breakdown() {
    let loss = LossSpec::Compound(vec![
        LossSpec::Bernoulli(0.01),
        LossSpec::PeriodicOutage {
            first: Time::from_secs(2),
            period: Dur::from_secs(4),
            duration: Dur::from_millis(1_500),
        },
    ]);
    let report = Scenario::new(205)
        .with_topology(Topology::wide_area(loss))
        .add_flow(
            ServiceKind::Caching,
            Box::new(CbrSource::new(Dur::from_millis(20), 400, 900)),
        )
        .run(Dur::from_secs(20));
    let flow = &report.flows[0];
    let breakdown = flow.episode_breakdown;
    // Four-plus outages of ~75 packets each dominate the loss volume.
    assert!(
        breakdown.has_outage(),
        "periodic outages must be classified as outage episodes: {breakdown:?}"
    );
    assert!(
        breakdown.episode_counts.2 >= 3,
        "back-to-back outage episodes must each be counted: {breakdown:?}"
    );
    assert!(
        breakdown.outage_packets > breakdown.random_packets,
        "outage packets should dominate random drops: {breakdown:?}"
    );
    // The per-class contributions are consistent with the totals.
    let (r, m, o) = breakdown.contribution();
    assert!((r + m + o - 1.0).abs() < 1e-9);
    assert_eq!(breakdown.total_lost(), flow.lost_on_direct());
}

/// The §3.5 upgrade path: a flow whose observed latency misses its budget is
/// moved up the cost spectrum one service at a time — Coding → Caching →
/// Forwarding — and never past Forwarding.
#[test]
fn budget_misses_upgrade_coding_to_caching_to_forwarding() {
    // 75 ms direct path, 10 ms access: coding estimates 115 ms, caching
    // 95 ms, forwarding 90 ms (the §6.1 numbers).
    let delays = PathDelays::symmetric(
        Dur::from_millis(75),
        Dur::from_millis(10),
        Dur::from_millis(70),
        Dur::from_millis(10),
    );
    let selector = ServiceSelector::new(delays);
    let reg = |budget_ms: u64| Registration {
        latency_budget: Dur::from_millis(budget_ms),
        loss_tolerant: false,
    };

    // Budget 100 ms: coding (115 ms estimate) is selected-out, and a flow
    // observing a p95 above budget steps up to caching.
    let up = selector
        .maybe_upgrade(ServiceKind::Coding, Dur::from_millis(140), reg(100))
        .expect("coding must upgrade when it misses the budget");
    assert_eq!(up.service, ServiceKind::Caching);
    assert!(up.estimated_latency <= Dur::from_millis(100));

    // Caching in turn misses a 92 ms budget: the only step left is
    // forwarding.
    let up = selector
        .maybe_upgrade(ServiceKind::Caching, Dur::from_millis(120), reg(92))
        .expect("caching must upgrade when it misses the budget");
    assert_eq!(up.service, ServiceKind::Forwarding);

    // Even when nothing fits the budget, the chain still ends at forwarding
    // (the best J-QoS can do) ...
    let up = selector
        .maybe_upgrade(ServiceKind::Coding, Dur::from_millis(500), reg(10))
        .expect("must escalate towards forwarding");
    assert_eq!(up.service, ServiceKind::Forwarding);
    // ... and forwarding itself has nowhere to go.
    assert!(selector
        .maybe_upgrade(ServiceKind::Forwarding, Dur::from_millis(500), reg(10))
        .is_none());

    // A flow meeting its budget is never touched.
    assert!(selector
        .maybe_upgrade(ServiceKind::Coding, Dur::from_millis(115), reg(150))
        .is_none());
}

/// An Internet-only flow over a clean path must not involve the cloud at all:
/// judicious use means zero cloud cost when best effort is good enough.
#[test]
fn clean_paths_use_no_cloud_resources() {
    let report = Scenario::new(203)
        .with_topology(Topology::lossless(
            Dur::from_millis(40),
            Dur::from_millis(5),
            Dur::from_millis(38),
            Dur::from_millis(5),
        ))
        .add_flow(
            ServiceKind::InternetOnly,
            Box::new(CbrSource::new(Dur::from_millis(10), 512, 500)),
        )
        .run(Dur::from_secs(10));
    let flow = &report.flows[0];
    assert_eq!(flow.unrecovered(), 0);
    assert_eq!(flow.cloud_copies, 0);
    assert_eq!(report.dc1.packets_in, 0);
    assert_eq!(report.dc2.nacks, 0);
    assert_eq!(report.encoder.coded_packets, 0);
}
