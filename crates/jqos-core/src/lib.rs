//! # jqos-core — Judicious QoS using cloud overlays
//!
//! A reproduction of the J-QoS framework (Haq, Doucette, Byers, Dogar —
//! CoNEXT 2020).  J-QoS combines the cheap best-effort Internet with a more
//! expensive but highly reliable cloud overlay, offering three reliability
//! services with different cost/latency trade-offs:
//!
//! * the **forwarding** service relays packets over the DC overlay
//!   ([`services::forwarding`]),
//! * the **caching** service keeps short-term copies of packets at the DC
//!   near the receiver so they can be pulled on loss
//!   ([`services::caching`]),
//! * the **coding** service (CR-WAN) sends a small number of cross-stream
//!   coded packets across the cloud and reconstructs losses through a
//!   cooperative recovery process ([`coding`]).
//!
//! End-point support consists of the receiver-driven loss detector
//! ([`recovery::markov`]), the sender/receiver reliability layers
//! ([`nodes`]), and the `register(latency_budget)` service-selection API
//! ([`select`]).  The [`experiment`] module wires complete deployments into
//! the `netsim` simulator and is the entry point used by the examples and the
//! benchmark harness.
//!
//! ```
//! use jqos_core::prelude::*;
//!
//! // A single caching-service flow over a lossy wide-area path.
//! let report = Scenario::new(7)
//!     .with_topology(Topology::wide_area(LossSpec::Bernoulli(0.01)))
//!     .add_flow(ServiceKind::Caching, Box::new(CbrSource::new(Dur::from_millis(20), 400, 200)))
//!     .run(Dur::from_secs(5));
//! assert!(report.flows[0].recovery_rate() > 0.5);
//! ```

pub mod coding;
pub mod cost;
pub mod experiment;
pub mod fleet;
pub(crate) mod hash;
pub mod nodes;
pub mod packet;
pub mod recovery;
pub mod select;
pub mod services;

pub use experiment::city::{CityAxis, FlashCrowdLevel};
pub use experiment::sweep::{
    cross, run_link_groups, ExperimentSuite, SuiteReport, SweepGrid, SweepPoint,
};
pub use experiment::{FlowReport, PacketOutcome, Scenario, ScenarioReport};
pub use fleet::{
    DcCapabilities, DcId, DcState, DropReason, FailureSchedule, FleetAxis, FleetRegistry,
    FleetReport, FleetScenario, FleetStats, PlacementStrategy,
};
pub use packet::{BatchId, CodedPacket, DataPacket, FlowId, Msg, SeqNo};
pub use select::{PathDelays, Registration, Selection, ServiceKind, ServiceSelector};

/// Commonly used items, re-exported for examples and benches.
pub mod prelude {
    pub use crate::coding::params::CodingParams;
    pub use crate::cost::{CostModel, Pricing, WorkloadProfile};
    pub use crate::experiment::city::{CityAxis, FlashCrowdLevel};
    pub use crate::experiment::sweep::{
        cross, run_link_groups, ExperimentSuite, SuiteReport, SweepGrid, SweepPoint,
    };
    pub use crate::experiment::{FlowReport, PacketOutcome, Scenario, ScenarioReport};
    pub use crate::fleet::{
        uniform_fleet, DcCapabilities, DcId, DcState, DropReason, FailoverEvent, FailureSchedule,
        FleetAxis, FleetDcSpec, FleetFlowReport, FleetRegistry, FleetReport, FleetScenario,
        FleetStats, FlowRequirements, HeartbeatConfig, PlacementStrategy, RelocationOutcome,
    };
    pub use crate::nodes::dc2::Dc2Config;
    pub use crate::nodes::receiver::{DeliveryMethod, ReceiverConfig};
    pub use crate::nodes::source::{CbrSource, ScheduleSource, TrafficSource};
    pub use crate::nodes::{FlowSpec, PathPolicy};
    pub use crate::packet::{DataPacket, FlowId, Msg, SeqNo};
    pub use crate::recovery::markov::{DetectorConfig, LossDetector};
    pub use crate::select::{PathDelays, Registration, ServiceKind, ServiceSelector};
    pub use netsim::prelude::*;
}
