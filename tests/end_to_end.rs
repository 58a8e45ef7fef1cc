//! Integration tests spanning the whole workspace: simulator + J-QoS core +
//! workloads + measurements, exercised the same way the figure suites do.

use jqos::core::coding::params::CodingParams;
use jqos::core::nodes::receiver::DeliveryMethod;
use jqos::prelude::*;
use jqos_bench::stress::{run_stress, StressConfig};
use measurements::planetlab::planetlab_paths;
use netsim::prelude::QueueKind;
use proptest::prelude::*;
use workloads::cbr::OnOffCbrSource;
use workloads::video::{VideoConfig, VideoSource};

/// The headline CR-WAN behaviour on a PlanetLab-like path: most direct-path
/// losses are recovered through the cloud, and recovery is fast relative to
/// the RTT.
#[test]
fn crwan_recovers_most_losses_on_a_planetlab_path() {
    let path = &planetlab_paths(2020)[3];
    let topology = Topology::lossless(
        Dur::from_millis_f64(path.y_ms),
        Dur::from_millis_f64(path.delta_s_ms),
        Dur::from_millis_f64(path.x_ms),
        Dur::from_millis_f64(path.delta_r_ms),
    )
    .internet_loss(LossSpec::bursty(0.01, 4.0));

    let mut scenario = Scenario::new(100)
        .with_topology(topology)
        .with_coding(CodingParams::planetlab_defaults());
    for _ in 0..6 {
        scenario = scenario.add_flow(
            ServiceKind::Coding,
            Box::new(CbrSource::new(Dur::from_millis(20), 512, 1_500)),
        );
    }
    let report = scenario.run(Dur::from_secs(40));

    let lost: usize = report.flows.iter().map(|f| f.lost_on_direct()).sum();
    assert!(
        lost > 50,
        "the lossy path should drop a noticeable number of packets, got {lost}"
    );
    assert!(
        report.overall_recovery_rate() > 0.75,
        "CR-WAN should recover most losses, got {:.2}",
        report.overall_recovery_rate()
    );
    assert!(
        report.dc2.coop_recovered > 0,
        "recovery must go through cooperative decoding"
    );
    // Judicious use of the cloud: far less WAN traffic than full duplication.
    assert!(
        report.coding_overhead() < 0.9,
        "coding overhead should stay below duplication, got {:.2}",
        report.coding_overhead()
    );
}

/// The forwarding service masks a complete outage of the direct path, which
/// is the property behind the Skype case study's "Fwd" curve.
#[test]
fn forwarding_masks_an_outage_end_to_end() {
    let outage = LossSpec::Outage(vec![(Time::from_secs(3), Time::from_secs(20))]);
    let report = Scenario::new(101)
        .with_topology(Topology::wide_area(outage))
        .add_flow(
            ServiceKind::Forwarding,
            Box::new(VideoSource::new(VideoConfig::skype_call(Dur::from_secs(
                25,
            )))),
        )
        .run(Dur::from_secs(27));
    let flow = &report.flows[0];
    assert_eq!(
        flow.unrecovered(),
        0,
        "every packet must arrive via the overlay"
    );
    assert!(flow.delivered_cloud() > 100);
    // And the cloud-forwarded copies are genuinely attributed to the overlay.
    assert!(flow
        .packets
        .iter()
        .any(|p| p.method == Some(DeliveryMethod::CloudForwarded)));
}

/// Service selection picks the cheapest service that meets the latency
/// budget, across the whole RIPE-Atlas-style path set.
#[test]
fn service_selection_is_monotone_in_the_budget() {
    for path in measurements::ripe::ripe_atlas_paths(50, 5) {
        let delays = PathDelays {
            y: Dur::from_millis_f64(path.y_ms),
            delta_s: Dur::from_millis_f64(path.delta_s_ms),
            x: Dur::from_millis_f64(path.x_ms),
            delta_r: Dur::from_millis_f64(path.delta_r_ms),
            delta_median: Dur::from_millis_f64(path.delta_median_ms),
        };
        let selector = ServiceSelector::new(delays);
        let mut previous_cost = f64::INFINITY;
        // As the budget grows the selected service can only get cheaper.
        for budget_ms in [40u64, 80, 120, 200, 400] {
            let selection = selector.select(Registration {
                latency_budget: Dur::from_millis(budget_ms),
                loss_tolerant: false,
            });
            let cost = selection.service.relative_cost(0.33);
            assert!(
                cost <= previous_cost + 1e-12,
                "budget {budget_ms} ms picked a more expensive service ({})",
                selection.service
            );
            previous_cost = cost;
        }
    }
}

/// The ON/OFF CBR workload and the scenario harness together produce
/// reproducible reports for a fixed seed.
#[test]
fn scenario_reports_are_deterministic() {
    let run = || {
        let report = Scenario::new(77)
            .with_topology(Topology::wide_area(LossSpec::Bernoulli(0.02)))
            .add_flow(
                ServiceKind::Caching,
                Box::new(OnOffCbrSource::scaled(300, 1)),
            )
            .run(Dur::from_secs(10));
        let f = &report.flows[0];
        (f.sent(), f.delivered(), f.recovered(), f.nacks_sent)
    };
    assert_eq!(run(), run());
}

/// The full `ScenarioReport` — every per-packet outcome, every counter — is
/// identical across two runs of the same seed, not just the headline
/// aggregates.
#[test]
fn identical_seeds_yield_identical_scenario_reports() {
    let run = |seed: u64| {
        let mut scenario = Scenario::new(seed)
            .with_topology(Topology::wide_area(LossSpec::bursty(0.02, 3.0)))
            .with_coding(CodingParams::planetlab_defaults());
        for service in [
            ServiceKind::Coding,
            ServiceKind::Coding,
            ServiceKind::Caching,
        ] {
            scenario = scenario.add_flow(
                service,
                Box::new(CbrSource::new(Dur::from_millis(20), 512, 300)),
            );
        }
        scenario.run(Dur::from_secs(8))
    };
    assert_eq!(run(123), run(123));
    assert_ne!(run(123), run(124));
}

/// The tentpole guarantee of the sweep harness: an `ExperimentSuite` grid
/// executed on N worker threads produces a byte-identical `SweepReport` to a
/// 1-thread run of the same master seed.
#[test]
fn experiment_suite_is_byte_identical_across_thread_counts() {
    let grid = SweepGrid::new().seeds([5, 6]).axis(cross(
        &[
            ("caching", vec![ServiceKind::Caching]),
            ("coding4", vec![ServiceKind::Coding; 4]),
        ],
        &[
            ("bern2", LossSpec::Bernoulli(0.02)),
            ("burst", LossSpec::bursty(0.01, 4.0)),
        ],
    ));
    let suite = ExperimentSuite::new("e2e-determinism", 2024, grid, |point| {
        let (mix, loss) = &point.payload;
        let mut scenario =
            Scenario::new(point.scenario_seed()).with_topology(Topology::wide_area(loss.clone()));
        for service in mix {
            scenario = scenario.add_flow(
                *service,
                Box::new(CbrSource::new(Dur::from_millis(25), 400, 120)),
            );
        }
        let report = scenario.run(Dur::from_secs(4));
        netsim::stats::PointStats::new("")
            .metric("recovery_rate", report.overall_recovery_rate())
            .metric("residual_loss", report.overall_residual_loss())
            .metric("dc2_nacks", report.dc2.nacks as f64)
            .series(
                "latencies_ms",
                report.flows.iter().flat_map(|f| f.latencies_ms()).collect(),
            )
    });
    assert_eq!(suite.point_count(), 8);

    let serial = suite.run(1);
    let parallel = suite.run(4);
    assert_eq!(serial.threads, 1);
    assert_eq!(parallel.threads, 4);
    // Byte-identical deterministic output, equal structured reports, and a
    // replayable parallel run.
    assert_eq!(serial.digest(), parallel.digest());
    assert_eq!(serial.report, parallel.report);
    assert_eq!(parallel.digest(), suite.run(4).digest());
    // Timing is reported per point and in aggregate (values are free to
    // differ between runs; their shape is not).
    assert_eq!(serial.point_wall_ms.len(), 8);
    assert!(serial.total_wall_ms > 0.0);
    assert!(serial.busy_ms() > 0.0);
}

/// Master seed of the stress topology's golden digests.
const STRESS_SEED: u64 = 0x4A51_6F53_5354_5253; // "JQoSSTRS"

/// The stress topology's replay guarantee, end to end: one master seed must
/// produce the identical `StressReport` with intra-point parallelism off and
/// on and on both scheduler backends.  The digest is pinned as a golden
/// value that is also the output of the pre-rework seed engine (whose
/// replica was deleted once this pin existed) — it only uses integer
/// counters (constant delays, integer-permille Bernoulli loss), so it is
/// stable across platforms; a change here means the simulation semantics
/// changed, not just the scheduler.
#[test]
fn stress_topology_replays_identically_across_engines_and_threads() {
    let calendar = StressConfig::quick();
    let heap = calendar.with_queue(QueueKind::Heap);

    let serial = run_stress(&calendar, STRESS_SEED, 1);
    assert_eq!(
        serial,
        run_stress(&calendar, STRESS_SEED, 4),
        "intra-point parallelism must not change the report"
    );
    assert_eq!(
        serial,
        run_stress(&heap, STRESS_SEED, 1),
        "old (heap) and new (calendar) queues must replay identically"
    );
    assert_eq!(serial.digest, 0x95be_bfbf_c42f_73d8, "golden stress digest");
}

/// The same guarantee at full size (~10⁷ events, ~10⁶ in flight), where the
/// calendar queue runs far outside cache: 1 and 2 intra-point threads give
/// equal reports, every message is delivered once traffic stops, and the
/// digest is the golden full-size value.  Sized for a release build (~5 s),
/// so it is ignored by default; run it with
/// `cargo test --release --test end_to_end stress_full_size -- --ignored`.
#[test]
#[ignore = "full-size stress run: use a release build and --ignored"]
fn stress_full_size_replays_identically_across_threads() {
    let full = StressConfig::full();
    let serial = run_stress(&full, STRESS_SEED, 1);
    assert_eq!(
        serial,
        run_stress(&full, STRESS_SEED, 2),
        "intra-point parallelism must not change the full-size report"
    );
    assert_eq!(serial.messages_sent, serial.messages_delivered);
    assert_eq!(
        serial.digest, 0xa2d8_9326_913b_0ccc,
        "golden full-size stress digest"
    );
}

/// The fleet control plane's replay guarantee, pinned: a three-DC fleet with
/// one scheduled failure must produce the identical `FleetReport` on both
/// scheduler backends, and its digest is a golden value.  Like the stress
/// digest it folds only integer counters (placements, relocations, packet
/// outcomes, microsecond timestamps), so it is stable across platforms; a
/// change here means the control-plane or simulation semantics changed.
#[test]
fn fleet_failover_scenario_has_a_golden_digest() {
    let run = |queue: QueueKind| {
        let mut scenario = FleetScenario::new(512)
            .with_queue(queue)
            .with_fleet(uniform_fleet(3, 4))
            .with_internet(
                LinkSpec::symmetric(Dur::from_millis(75)).loss(LossSpec::Bernoulli(0.02)),
            )
            .with_failures(FailureSchedule::new().fail(DcId(2), Time::from_secs(3)));
        for service in [
            ServiceKind::Caching,
            ServiceKind::Coding,
            ServiceKind::Caching,
        ] {
            scenario = scenario.add_flow(
                service,
                Dur::from_millis(400),
                Box::new(CbrSource::new(Dur::from_millis(25), 400, 200)),
            );
        }
        scenario.run(Dur::from_secs(8))
    };
    let calendar = run(QueueKind::Calendar);
    let heap = run(QueueKind::Heap);
    assert_eq!(calendar.digest(), heap.digest());
    assert_eq!(calendar.relocated(), 1, "DC 2's flow must relocate");
    assert_eq!(
        calendar.digest(),
        0x570f_57d6_387b_ffb8,
        "golden fleet digest"
    );
}

/// `Scenario` runs — the full J-QoS pipeline, not just raw netsim — are also
/// byte-identical across the old and new scheduler backends.
#[test]
fn scenario_reports_are_identical_across_queue_backends() {
    let run = |queue: QueueKind| {
        Scenario::new(909)
            .with_queue(queue)
            .with_topology(Topology::wide_area(LossSpec::bursty(0.02, 3.0)))
            .with_coding(CodingParams::planetlab_defaults())
            .add_flow(
                ServiceKind::Coding,
                Box::new(CbrSource::new(Dur::from_millis(20), 512, 400)),
            )
            .add_flow(
                ServiceKind::Caching,
                Box::new(OnOffCbrSource::scaled(200, 1)),
            )
            .run(Dur::from_secs(10))
    };
    assert_eq!(run(QueueKind::Heap), run(QueueKind::Calendar));
}

/// Set in the environment of the two children the test below spawns: it
/// turns this test binary's run of that test into "print one digest line".
const REPLAY_CHILD: &str = "JQOS_E2E_REPLAY_CHILD";

/// FNV-1a over the `Debug` rendering — every per-packet outcome and every
/// counter — of a quick CR-WAN-shaped run (six ON/OFF coding flows on a
/// bursty PlanetLab-like path) and a quick Skype-shaped one (a video call
/// through an outage beside three slow background flows, whose every packet
/// is NACKed ahead of time, parked at DC2 and promoted by its batch).
fn replay_digest() -> u64 {
    let path = &planetlab_paths(2020)[3];
    let lossy = |ms: f64, loss: LossSpec| LinkSpec::symmetric(Dur::from_millis_f64(ms)).loss(loss);
    let mut crwan = Scenario::new(31)
        .with_topology(
            Topology::lossless(
                Dur::from_millis_f64(path.y_ms),
                Dur::from_millis_f64(path.delta_s_ms),
                Dur::from_millis_f64(path.x_ms),
                Dur::from_millis_f64(path.delta_r_ms),
            )
            .receiver_access_loss(LossSpec::Bernoulli(0.004)),
        )
        .with_coding(CodingParams::planetlab_defaults());
    for i in 0..6 {
        crwan = crwan.add_flow_with_path(
            ServiceKind::Coding,
            Box::new(OnOffCbrSource::scaled(60, 3)),
            lossy(
                path.y_ms * (0.8 + 0.1 * i as f64),
                LossSpec::bursty(0.02, 4.0),
            ),
        );
    }

    let call = Dur::from_secs(16);
    let outage = LossSpec::Outage(vec![(Time::from_secs(6), Time::from_secs(9))]);
    let mut skype = Scenario::new(32)
        .with_topology(Topology::wide_area(LossSpec::Compound(vec![
            LossSpec::Bernoulli(0.001),
            outage,
        ])))
        .with_coding(CodingParams::skype_case_study())
        .add_flow(
            ServiceKind::Coding,
            Box::new(VideoSource::new(VideoConfig::skype_call_with_fec(call))),
        );
    for _ in 0..3 {
        skype = skype.add_flow_with_path(
            ServiceKind::Coding,
            Box::new(VideoSource::new(VideoConfig::background_200kbps(call))),
            lossy(70.0, LossSpec::Bernoulli(0.002)),
        );
    }

    let reports = [crwan.run(Dur::from_secs(12)), skype.run(call)];
    for report in &reports {
        assert!(report.dc2.coop_recovered > 0, "{:?}", report.dc2);
    }
    assert!(reports[1].dc2.waiting_promoted > 0, "{:?}", reports[1].dc2);
    format!("{reports:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Two fresh processes — each with its own `HashMap` seeds, allocator
/// layout and thread ids — replay the same reports as this one.  In-process
/// replays cannot see an iteration order that is stable within a process
/// and different in the next; that is how DC2's parked-NACK order went
/// unnoticed until the benchmark replayed `crwan` in a child process.
#[test]
fn scenario_reports_replay_across_processes() {
    const LINE: &str = "replay-digest ";
    if std::env::var_os(REPLAY_CHILD).is_some() {
        println!("{LINE}{:016x}", replay_digest());
        return;
    }
    let child = || {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
            .args(["scenario_reports_replay_across_processes", "--exact"])
            .args(["--nocapture", "--test-threads", "1"])
            .env(REPLAY_CHILD, "1")
            .output()
            .expect("spawn the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "child failed: {stdout}");
        let at = stdout.find(LINE).expect("child prints its digest") + LINE.len();
        stdout[at..at + 16].to_owned()
    };
    let (first, second) = (child(), child());
    assert_eq!(first, second, "two processes, two different reports");
    assert_eq!(first, format!("{:016x}", replay_digest()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Message conservation at stress scale, for arbitrary master seeds: a
    /// drained run delivers exactly what the links accepted, every loss is
    /// accounted, and the thread count never changes the outcome.
    #[test]
    fn stress_conserves_messages_for_any_seed(master_seed in 0u64..(1 << 48)) {
        let cfg = StressConfig::quick();
        let report = run_stress(&cfg, master_seed, 1);
        prop_assert_eq!(
            report.messages_sent, report.messages_delivered,
            "a drained queue conserves accepted messages"
        );
        prop_assert!(report.messages_dropped_loss > 0, "loss models must engage");
        prop_assert!(report.events_processed > 0);
        let parallel = run_stress(&cfg, master_seed, 3);
        prop_assert_eq!(report, parallel);
    }
}

/// Selective duplication sends far fewer bytes to the cloud while still
/// recovering the packets it covers (the §6.4/§6.5 strategy).
#[test]
fn selective_duplication_reduces_cloud_traffic() {
    let make = |policy: PathPolicy| {
        Scenario::new(55)
            .with_topology(Topology::wide_area(LossSpec::Bernoulli(0.01)))
            .add_flow(
                ServiceKind::Caching,
                Box::new(CbrSource::new(Dur::from_millis(10), 800, 1_000)),
            )
            .with_policy(policy)
            .run(Dur::from_secs(15))
    };
    let full = make(PathPolicy::for_service(ServiceKind::Caching));
    let selective = make(PathPolicy::selective(8));
    assert!(selective.flows[0].cloud_bytes * 6 < full.flows[0].cloud_bytes);
    assert!(full.flows[0].recovery_rate() > 0.9);
}
