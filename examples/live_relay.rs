//! Live loopback deployment of the sharded J-QoS relay (tokio prototype).
//!
//! Starts a 2-shard relay on real UDP sockets, registers a handful of flows
//! over the wire — each with a latency budget, so the relay's admission path
//! runs the same service selection as the simulator — and drives paced
//! traffic with direct-path loss injection.  Caching flows recover their
//! losses from the shard's cache ring via NACKs; coding flows reconstruct
//! them from parity; forwarding flows ride the overlay entirely; and one
//! deliberately infeasible budget is rejected with a reason code.
//!
//! Run with: `cargo run --example live_relay`

use std::time::Duration;

use jqos::net::{FlowSpec, LoadWorker, Relay, RelayConfig};

#[tokio::main(flavor = "multi_thread", worker_threads = 2)]
async fn main() -> std::io::Result<()> {
    let mut relay = Relay::bind("127.0.0.1:0", RelayConfig::default()).await?;
    relay.start();
    let control = relay.control_addr()?;
    println!("relay control socket on {control}");
    println!("shard dataplane sockets: {:?}", relay.shard_addrs());

    let mut worker = LoadWorker::new(control, 64)?;
    // (flow, budget ms, direct-path drop period): budgets steer admission.
    for (flow, budget_ms, drop_every) in [
        (1u32, 150u32, Some(8)), // coding
        (2, 100, Some(4)),       // caching
        (3, 91, None),           // forwarding
        (4, 60, None),           // infeasible: rejected
    ] {
        worker.add_flow(FlowSpec {
            flow,
            budget_ms,
            loss_tolerant: false,
            drop_every,
        });
    }
    worker.register(Duration::from_secs(5))?;
    for flow in worker.flow_ids() {
        let view = worker.flow_view(flow).unwrap();
        match view.rejected {
            Some(reason) => println!("flow {flow}: rejected ({reason})"),
            None => println!("flow {flow}: admitted as {:?}", view.service.unwrap()),
        }
    }

    println!();
    println!("pacing 48 packets per admitted flow with loss injection...");
    worker.run_paced(48, Duration::from_millis(5), Duration::from_millis(500))?;

    println!();
    for flow in worker.flow_ids() {
        let view = worker.flow_view(flow).unwrap();
        if view.service.is_none() {
            continue;
        }
        println!(
            "flow {flow} ({:?}): {}/{} delivered, {} cache-recovered, {} parity-reconstructed",
            view.service.unwrap(),
            view.delivered,
            view.sent,
            view.recovered,
            view.reconstructed
        );
    }

    let metrics = relay.shutdown().await;
    let totals = metrics.totals();
    println!();
    println!(
        "relay: {} data packets over {} shards; {} forwarded, {} cached, {} batches encoded",
        totals.data_rx,
        metrics.shards.len(),
        totals.forwarded,
        totals.cached,
        totals.batches_encoded
    );
    println!(
        "       {} recoveries + {} parity shards served; {} flows admitted, {} rejected",
        totals.recoveries_served,
        totals.parity_served,
        metrics.admitted,
        metrics.rejected_budget + metrics.rejected_shard_full
    );
    Ok(())
}
