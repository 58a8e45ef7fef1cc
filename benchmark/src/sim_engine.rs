//! `sim-engine`: the raw `netsim` event loop, with nothing of J-QoS in it.
//!
//! One hub and a thousand clients, all nodes of this file: every client
//! fires a burst of pings per 5 ms timer tick, the hub answers each with a
//! pong.  The handlers do next to nothing, so the run is queue pop → link →
//! dispatch — the part of `sim-figures` that is *not* protocol code.  A
//! gain there that comes from node handlers must leave this workload flat,
//! and the reverse.

use std::any::Any;
use std::time::Instant;

use netsim::prelude::*;
use netsim::SimStats;

use crate::outcome::{Outcome, RunOpts};
use crate::rng::mix3;
use crate::stats::{least, lower_quartile, median, P99Pools};
use crate::{affinity, probes, procfs, trace};

/// The only message there is.
#[derive(Clone, Copy, Debug)]
enum Msg {
    Ping { client: u32, seq: u64 },
    Pong { client: u32 },
}

struct Hub {
    pings: u64,
    /// Sequence number of the latest ping (part of the replay check).
    last_seq: u64,
}

impl Node<Msg> for Hub {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        if let Msg::Ping { client, seq } = msg {
            self.pings += 1;
            self.last_seq = seq;
            ctx.send(from, Msg::Pong { client });
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Client {
    hub: NodeId,
    index: u32,
    next_seq: u64,
    pongs: u64,
    burst: usize,
    tick: Dur,
    end: Time,
}

impl Node<Msg> for Client {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        // First ticks staggered over 10 ms so bursts do not share one
        // timestamp.
        ctx.set_timer(Dur::from_millis(1 + u64::from(self.index) % 10), 0);
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        if matches!(msg, Msg::Pong { client } if client == self.index) {
            self.pongs += 1;
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: TimerId, _tag: u64) {
        // Past `end` the client stops rescheduling, so the queue drains.
        if ctx.now() >= self.end {
            return;
        }
        for _ in 0..self.burst {
            let seq = self.next_seq;
            self.next_seq += 1;
            ctx.send(
                self.hub,
                Msg::Ping {
                    client: self.index,
                    seq,
                },
            );
        }
        ctx.set_timer(self.tick, 0);
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Times the simulator is built (and dropped) before each pass, as one
/// `setup_s` sample.
const SETUPS_PER_PASS: usize = 10;

/// Seed of the fixed topology.
const TOPOLOGY: u64 = 0x70B0;

/// Shape of the run.
#[derive(Clone, Copy)]
struct Shape {
    clients: usize,
    burst: usize,
    tick: Dur,
    traffic: Dur,
}

impl Shape {
    fn of(opts: &RunOpts) -> Shape {
        if opts.smoke {
            Shape {
                clients: 60,
                burst: 3,
                tick: Dur::from_millis(20),
                traffic: Dur::from_millis(400),
            }
        } else {
            // About 6 M events with close to a million in flight.
            Shape {
                clients: 1000,
                burst: 10,
                tick: Dur::from_millis(5),
                traffic: Dur::from_millis(1500),
            }
        }
    }
}

/// Builds the hub, the clients and their links.  The topology is the same
/// in every run — link latency 20–500 ms (so a deep backlog stays in flight)
/// and loss 0–4.9 %, spread over the clients by index — and `seed` drives
/// every loss draw on it, so runs with different seeds do the same amount of
/// work to within the luck of those draws.
fn build(shape: &Shape, seed: u64) -> (Simulator<Msg>, Vec<NodeId>) {
    let mut sim: Simulator<Msg> = Simulator::with_capacity(seed, shape.clients + 1, 1 << 16);
    let hub = sim.add_node(Hub {
        pings: 0,
        last_seq: 0,
    });
    let clients = (0..shape.clients)
        .map(|i| {
            let id = sim.add_node(Client {
                hub,
                index: i as u32,
                next_seq: 0,
                pongs: 0,
                burst: shape.burst,
                tick: shape.tick,
                end: Time::ZERO + shape.traffic,
            });
            let latency = Dur::from_millis(10 + mix3(TOPOLOGY, 0x11, i as u64) % 51);
            let loss = (mix3(TOPOLOGY, 0x22, i as u64) % 50) as f64 / 1000.0;
            sim.add_link(
                id,
                hub,
                LinkSpec::symmetric(latency).loss(LossSpec::Bernoulli(loss)),
            );
            id
        })
        .collect();
    (sim, clients)
}

/// What one pass measured.
struct Pass {
    stats: SimStats,
    pings: u64,
    last_seq: u64,
    pongs: u64,
    wall_s: f64,
    /// Wall µs to advance the simulation by one step (half a client tick).
    step_us: Vec<f64>,
}

fn one_pass(shape: &Shape, seed: u64) -> Pass {
    let (mut sim, clients) = build(shape, seed);
    // Traffic, then more than the longest round trip for the queue to drain.
    let end = Time::ZERO + shape.traffic + Dur::from_millis(150);
    let mut step_us = Vec::new();
    let started = Instant::now();
    let mut until = Time::ZERO;
    // Half-tick steps: a full-size pass then has the six hundred-odd samples
    // of which two passes together carry a p99.
    let step = shape.tick / 2;
    while until < end {
        until += step;
        let t = Instant::now();
        sim.run_until(until);
        step_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let hub = sim.node_as::<Hub>(NodeId(0));
    let (pings, last_seq) = (hub.pings, hub.last_seq);
    let pongs = clients
        .iter()
        .map(|&c| sim.node_as::<Client>(c).pongs)
        .sum();
    Pass {
        stats: sim.stats(),
        pings,
        last_seq,
        pongs,
        wall_s,
        step_us,
    }
}

/// Runs `sim-engine`.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let _w = trace::span_req("workload", Some("sim-engine".to_string()));
    let shape = Shape::of(opts);
    let cpus = affinity::confine_to_one_cpu();

    let min_passes = opts.repeats().max(2);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut setup_secs = Vec::new();
    loop {
        if passes.len() >= min_passes {
            let per_pass = started.elapsed().as_secs_f64() / passes.len() as f64;
            if opts.smoke || started.elapsed().as_secs_f64() + per_pass / 2.0 > opts.seconds {
                break;
            }
        }
        // Set-up samples spread over the run: the host's slow spells outlast
        // any one of them.
        {
            let _s = trace::span("setup");
            let t = Instant::now();
            for _ in 0..SETUPS_PER_PASS {
                std::hint::black_box(build(&shape, opts.seed));
            }
            setup_secs.push(t.elapsed().as_secs_f64() / SETUPS_PER_PASS as f64);
        }
        let _s = trace::span_req("trial", Some(format!("{}", passes.len())));
        passes.push(one_pass(&shape, opts.seed));
    }
    out.e2e.set("setup_s", lower_quartile(&setup_secs));

    let first = &passes[0];
    let s = first.stats;
    out.attempted = passes.len() as u64;
    out.gate(
        format!(
            "{} runs replay identically: {} events, {} pings, {} pongs",
            passes.len(),
            s.events_processed,
            first.pings,
            first.pongs
        ),
        passes.iter().all(|p| {
            p.stats == s
                && (p.pings, p.last_seq, p.pongs) == (first.pings, first.last_seq, first.pongs)
        }),
    );
    out.gate(
        "messages conserved: sent = delivered + dropped, queue drained",
        s.messages_sent == s.messages_delivered
            && s.messages_delivered == first.pings + first.pongs
            && s.no_route == 0,
    );

    let events = s.events_processed.max(1) as f64;
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    out.e2e.set("cost_ns_per_op", least(&wall) * 1e9 / events);
    // The delay a user of the simulator waits: wall time to advance the
    // world by one step of 2.5 ms.  The median per pass, one p99 per window
    // of two passes; over those the estimators of `stats`.
    let mut p50s = Vec::new();
    let mut pools = P99Pools::default();
    for pass in &passes {
        p50s.push(median(&pass.step_us));
        pools.add(&pass.step_us);
    }
    out.e2e.set("delay_p50_us", lower_quartile(&p50s));
    if pools.p99s().is_empty() {
        // A smoke run is too short for a p99: its slowest step, then.
        let slowest = passes.iter().flat_map(|p| p.step_us.iter().copied());
        out.e2e.set("delay_p99_us", slowest.fold(0.0, f64::max));
    } else {
        out.e2e.set("delay_p99_us", least(pools.p99s()));
    }

    out.layer.set("netsim.sim.events", events);
    out.layer
        .set("netsim.sim.ns_per_event", least(&wall) * 1e9 / events);
    out.layer
        .set("netsim.sim.events_per_s", events / least(&wall));
    out.layer.set("netsim.sim.wall_s", least(&wall));
    out.notes.push(format!(
        "{} passes of {} events and {} steps; {} p99 window(s); {} set-ups",
        passes.len(),
        s.events_processed,
        first.step_us.len(),
        pools.p99s().len(),
        setup_secs.len() * SETUPS_PER_PASS,
    ));
    let wall_ms: Vec<f64> = wall.iter().map(|w| w * 1e3).collect();
    out.note_trials("per-pass wall (ms)", &wall_ms, 0);
    out.note_trials("per-pass step p50 (us)", &p50s, 0);
    out.note_trials("per-window step p99 (us)", pools.p99s(), 0);
    // Before the probes of a traced run can raise the mark.
    out.e2e.set("peak_rss_mb", procfs::peak_rss_mib());
    if opts.traced {
        probes::netsim_layers(opts, &mut out);
    }
    affinity::pin(&cpus);
    Ok(out)
}
