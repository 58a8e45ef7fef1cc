//! End-to-end loopback tests of the sharded relay dataplane.
//!
//! Each test stands up a real [`Relay`] on 127.0.0.1, registers flows over
//! the wire with a [`LoadWorker`], runs traffic, and asserts on both sides
//! of the link: the client's per-flow delivery stats and the relay's
//! [`RelayMetrics`] snapshot must tell the same story.

use std::time::Duration;

use jqos_core::select::{Registration, ServiceKind, ServiceSelector};
use jqos_net::{shard_for, FlowSpec, LoadWorker, RejectReason, Relay, RelayConfig};
use netsim::Dur;

async fn start_relay(cfg: RelayConfig) -> Relay {
    let mut relay = Relay::bind("127.0.0.1:0", cfg).await.expect("bind relay");
    relay.start();
    relay
}

fn worker_for(relay: &Relay) -> LoadWorker {
    LoadWorker::new(relay.control_addr().expect("control addr"), 64).expect("bind worker")
}

fn spec(flow: u32, budget_ms: u32, drop_every: Option<u32>) -> FlowSpec {
    FlowSpec {
        flow,
        budget_ms,
        loss_tolerant: false,
        drop_every,
    }
}

/// The wire admission path must agree with the simulator's selector, and
/// the per-flow service must be visible in RelayMetrics, the client's view,
/// and land on the hash-assigned shard.
#[tokio::test]
async fn admission_over_the_wire_matches_the_simulated_selection() {
    let cfg = RelayConfig::default();
    let shards = cfg.shards;
    let mut relay = start_relay(cfg).await;
    let mut worker = worker_for(&relay);
    let budgets = [(1u32, 150u32), (2, 115), (3, 100), (4, 91)];
    for (flow, budget) in budgets {
        worker.add_flow(spec(flow, budget, None));
    }
    worker.register(Duration::from_secs(5)).expect("register");

    // The ground truth: the simulator's selector over the same delay model.
    let selector = ServiceSelector::new(RelayConfig::wide_area_delays());
    let metrics = relay.shutdown().await;
    for (flow, budget) in budgets {
        let expect = selector
            .select(Registration {
                latency_budget: Dur::from_millis(u64::from(budget)),
                loss_tolerant: false,
            })
            .service;
        assert_eq!(
            metrics.service_of(flow),
            Some(expect),
            "relay's view of flow {flow} (budget {budget} ms)"
        );
        let view = worker.flow_view(flow).expect("flow view");
        assert_eq!(view.service, Some(expect), "client's view of flow {flow}");
        let info = metrics.flows.iter().find(|f| f.flow == flow).unwrap();
        assert_eq!(info.shard, shard_for(flow, shards), "shard placement");
        assert_eq!(info.budget_ms, budget);
    }
    assert_eq!(metrics.admitted, budgets.len() as u64);
    assert_eq!(metrics.rejected_budget + metrics.rejected_shard_full, 0);
}

/// A budget even forwarding cannot meet is rejected with a reason code that
/// shows up in the relay metrics, the rejection history, and the sender's
/// stats.
#[tokio::test]
async fn infeasible_budget_is_rejected_with_a_visible_reason() {
    let mut relay = start_relay(RelayConfig::default()).await;
    let mut worker = worker_for(&relay);
    worker.add_flow(spec(7, 60, None)); // forwarding needs ~90 ms
    worker.add_flow(spec(8, 150, None)); // control: this one is admitted
    worker.register(Duration::from_secs(5)).expect("register");

    let view = worker.flow_view(7).expect("flow view");
    assert_eq!(view.service, None);
    assert_eq!(view.rejected, Some(RejectReason::BudgetInfeasible));
    let stats = worker.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.admitted, 1);

    let metrics = relay.shutdown().await;
    assert_eq!(metrics.rejected_budget, 1);
    assert_eq!(
        metrics.rejection_of(7),
        Some(RejectReason::BudgetInfeasible)
    );
    assert_eq!(metrics.service_of(7), None, "rejected flow holds no state");
    assert_eq!(metrics.admitted, 1);
}

/// Caching service end to end: injected direct-path losses are recovered
/// from the shard's cache ring via NACKs.
#[tokio::test]
async fn caching_flow_recovers_injected_losses() {
    let mut relay = start_relay(RelayConfig::default()).await;
    let mut worker = worker_for(&relay);
    worker.add_flow(spec(11, 100, Some(4)));
    worker.register(Duration::from_secs(5)).expect("register");
    assert_eq!(
        worker.flow_view(11).unwrap().service,
        Some(ServiceKind::Caching)
    );

    worker
        .run_paced(40, Duration::from_millis(2), Duration::from_millis(400))
        .expect("paced run");

    let view = worker.flow_view(11).expect("flow view");
    assert_eq!(view.sent, 40);
    assert_eq!(view.delivered, 40, "all packets delivered: {view:?}");
    assert!(view.recovered > 0, "losses were injected: {view:?}");
    assert_eq!(view.holes, 0);

    let totals = relay.shutdown().await.totals();
    assert_eq!(totals.data_rx, 40);
    assert!(totals.recoveries_served > 0);
    assert!(totals.cached > 0);
}

/// Coding service end to end: the relay keeps only parity; the client
/// reconstructs the missing packets from its delivered batch-mates plus the
/// parity shards.
#[tokio::test]
async fn coding_flow_reconstructs_from_parity() {
    let mut relay = start_relay(RelayConfig::default()).await;
    let mut worker = worker_for(&relay);
    worker.add_flow(spec(21, 150, Some(5)));
    worker.register(Duration::from_secs(5)).expect("register");
    assert_eq!(
        worker.flow_view(21).unwrap().service,
        Some(ServiceKind::Coding)
    );

    // 24 packets = 3 full batches at k=8; drops at seq 4, 9, 14, 19.
    worker
        .run_paced(24, Duration::from_millis(2), Duration::from_millis(500))
        .expect("paced run");

    let view = worker.flow_view(21).expect("flow view");
    assert_eq!(view.sent, 24);
    assert_eq!(view.delivered, 24, "all packets delivered: {view:?}");
    assert!(view.reconstructed > 0, "parity was needed: {view:?}");
    assert_eq!(view.holes, 0);

    let totals = relay.shutdown().await.totals();
    assert_eq!(totals.batches_encoded, 3);
    assert!(totals.parity_served > 0);
    // The relay never held full copies for a coding flow.
    assert_eq!(totals.cached, 0);
}

/// Forwarding service end to end: no direct copies exist at all; every
/// packet rides the overlay.
#[tokio::test]
async fn forwarding_flow_relays_every_packet() {
    let mut relay = start_relay(RelayConfig::default()).await;
    let mut worker = worker_for(&relay);
    worker.add_flow(spec(31, 91, None));
    worker.register(Duration::from_secs(5)).expect("register");
    assert_eq!(
        worker.flow_view(31).unwrap().service,
        Some(ServiceKind::Forwarding)
    );

    worker
        .run_paced(30, Duration::from_millis(1), Duration::from_millis(300))
        .expect("paced run");

    let view = worker.flow_view(31).expect("flow view");
    assert_eq!(view.delivered, 30, "{view:?}");
    assert_eq!(view.recovered, 0);
    let totals = relay.shutdown().await.totals();
    assert_eq!(totals.forwarded, 30);
}

/// Overload: a deliberately tiny ingress queue under open-loop blast load
/// sheds (counted, by reason) and the queue's highwater mark never exceeds
/// the configured bound.
#[tokio::test]
async fn overload_sheds_by_reason_and_respects_the_queue_bound() {
    let cfg = RelayConfig {
        shards: 1,
        queue_capacity: 8,
        ..RelayConfig::default()
    };
    let mut relay = start_relay(cfg).await;
    let mut worker = worker_for(&relay);
    for flow in 0..4u32 {
        worker.add_flow(spec(flow, 150, None));
    }
    worker.register(Duration::from_secs(5)).expect("register");

    let offered = worker.blast(Duration::from_millis(250));
    assert!(offered > 1_000, "blast offered only {offered}");

    let metrics = relay.shutdown().await;
    let totals = metrics.totals();
    assert!(
        totals.shed_queue_full > 0,
        "an 8-deep queue under blast load must shed: {totals:?}"
    );
    assert!(
        totals.queue_highwater <= 8,
        "queue highwater {} exceeds the configured bound",
        totals.queue_highwater
    );
    // Shed accounting is per reason, and the sum is consistent.
    assert_eq!(
        totals.shed_total(),
        totals.shed_queue_full
            + totals.malformed_rx
            + totals.shed_unknown_flow
            + totals.shed_egress_full
    );
}

/// Graceful stop: datagrams already accepted by the shard socket are
/// processed during shutdown's drain, not stranded.
#[tokio::test]
async fn shutdown_drains_accepted_datagrams() {
    let cfg = RelayConfig {
        shards: 1,
        ..RelayConfig::default()
    };
    let mut relay = start_relay(cfg).await;
    let mut worker = worker_for(&relay);
    worker.add_flow(spec(41, 100, None));
    worker.register(Duration::from_secs(5)).expect("register");

    // Stuff 200 datagrams into the shard socket, then stop immediately:
    // the drain must process all of them (200 < queue capacity + drain
    // rounds, so nothing may legitimately shed).
    let sock = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    let shard_addr = relay.shard_addrs()[0];
    for seq in 0..200u64 {
        let msg = jqos_net::WireMsg::Data {
            flow: 41,
            seq,
            payload: vec![0u8; 32],
        };
        sock.send_to(&msg.encode(), shard_addr).expect("send");
    }

    let totals = relay.shutdown().await.totals();
    assert_eq!(totals.data_rx, 200, "drain must process every datagram");
    assert_eq!(totals.shed_total(), 0);
}

/// A mixed-service population sharing shards: coding, caching and
/// forwarding flows interleaved over the id space, plus a tail of
/// infeasible budgets, all on one worker.  Admission
/// counts agree on both sides of the wire, every admitted flow is delivered
/// in full, and each recoverable flow actually exercised its recovery path.
#[tokio::test]
async fn mixed_services_share_shards_without_loss() {
    const ADMISSIBLE: u32 = 96;
    const INFEASIBLE: u32 = 8;
    const PACKETS: u32 = 16; // two full coding batches at k=8
                             // (service the budget selects, budget ms, direct-path drop period)
    const MIX: [(ServiceKind, u32, Option<u32>); 3] = [
        (ServiceKind::Coding, 150, Some(8)),
        (ServiceKind::Caching, 100, Some(6)),
        (ServiceKind::Forwarding, 91, None),
    ];
    let cfg = RelayConfig {
        shards: 2,
        ..RelayConfig::default()
    };
    let queue_capacity = cfg.queue_capacity as u64;
    let mut relay = start_relay(cfg).await;
    let mut worker = worker_for(&relay);
    for flow in 0..ADMISSIBLE {
        let (_, budget_ms, drop_every) = MIX[flow as usize % MIX.len()];
        worker.add_flow(spec(flow, budget_ms, drop_every));
    }
    for flow in ADMISSIBLE..ADMISSIBLE + INFEASIBLE {
        worker.add_flow(spec(flow, 60, None));
    }
    worker.register(Duration::from_secs(10)).expect("register");
    let stats = worker.stats();
    assert_eq!(stats.admitted, u64::from(ADMISSIBLE));
    assert_eq!(stats.rejected, u64::from(INFEASIBLE));

    worker
        .run_paced(
            PACKETS,
            Duration::from_millis(20),
            Duration::from_millis(900),
        )
        .expect("paced run");

    for flow in 0..ADMISSIBLE {
        let view = worker.flow_view(flow).expect("flow view");
        let (expect, ..) = MIX[flow as usize % MIX.len()];
        assert_eq!(view.service, Some(expect), "{view:?}");
        assert_eq!(view.sent, u64::from(PACKETS), "{view:?}");
        assert_eq!(view.delivered, view.sent, "{view:?}");
        assert_eq!(view.holes, 0, "{view:?}");
        match expect {
            ServiceKind::Coding => assert!(view.reconstructed > 0, "{view:?}"),
            ServiceKind::Caching => assert!(view.recovered > 0, "{view:?}"),
            _ => {}
        }
    }

    let metrics = relay.shutdown().await;
    assert_eq!(metrics.admitted, u64::from(ADMISSIBLE));
    assert_eq!(metrics.rejected_budget, u64::from(INFEASIBLE));
    assert_eq!(metrics.rejected_shard_full, 0);
    assert_eq!(metrics.shards.len(), 2);
    for shard in &metrics.shards {
        assert!(shard.data_rx > 0, "idle shard: {shard:?}");
    }
    assert!(metrics.totals().queue_highwater <= queue_capacity);
}
