//! # jqos — umbrella crate for the J-QoS reproduction
//!
//! Re-exports the workspace crates so examples and downstream users can pull
//! everything through a single dependency:
//!
//! * [`core`] (`jqos-core`) — the J-QoS framework: forwarding, caching and
//!   coding (CR-WAN) services, recovery protocol, service selection, cost
//!   model and the scenario harness;
//! * [`netsim`] — the discrete-event network simulator substrate;
//! * [`erasure`] — the Reed–Solomon erasure codec;
//! * [`transport`] — the mini-TCP used by the web-transfer case study;
//! * [`workloads`] — CBR / video / web / mobile traffic models;
//! * [`measurements`] — synthetic RIPE-Atlas / PlanetLab datasets;
//! * [`qoe`] — the PSNR model for the video case study;
//! * [`net`] (`jqos-net`) — the live UDP prototype: a sharded relay and
//!   its load-generation endpoints on real sockets.

pub use erasure;
pub use jqos_core as core;
pub use jqos_net as net;
pub use measurements;
pub use netsim;
pub use qoe;
pub use transport;
pub use workloads;

/// Everything needed to build and run a J-QoS scenario.
pub mod prelude {
    pub use jqos_core::prelude::*;
}
