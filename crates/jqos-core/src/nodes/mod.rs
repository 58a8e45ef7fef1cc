//! Simulation nodes implementing the J-QoS entities.
//!
//! * [`sender::SenderNode`] — the application sender plus the J-QoS sender
//!   layer (duplication toward the cloud).
//! * [`dc1::Dc1Node`] — the ingress data center (forwarding + coding plan).
//! * [`dc2::Dc2Node`] — the egress data center: a thin host for DC2's
//!   recovery state machine (caching, parked NACKs, cooperative recovery),
//!   which lives in `recovery::dc2`.
//! * [`receiver::ReceiverNode`] — the application receiver plus the J-QoS
//!   receiver layer (loss detection, NACKs, cooperative responses).

pub mod dc1;
pub mod dc2;
pub mod receiver;
pub mod sender;
pub mod source;

use netsim::NodeId;

use crate::packet::FlowId;
use crate::select::ServiceKind;

/// How the sender uses the two available paths for a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathPolicy {
    /// Send each packet on the direct Internet path.
    pub send_direct: bool,
    /// Send a copy toward DC1 (the cloud overlay).
    pub send_cloud: bool,
    /// Duplicate only every n-th packet to the cloud (1 = every packet);
    /// models the selective-duplication strategy of §6.4/§6.5.
    pub cloud_every_nth: u64,
}

impl PathPolicy {
    /// The policy implied by a service choice:
    /// * Internet-only — direct path only;
    /// * forwarding — both paths (the multipath use case of Figure 3(a));
    /// * caching / coding — direct path plus a cloud copy.
    pub fn for_service(service: ServiceKind) -> Self {
        match service {
            ServiceKind::InternetOnly => PathPolicy {
                send_direct: true,
                send_cloud: false,
                cloud_every_nth: 1,
            },
            _ => PathPolicy {
                send_direct: true,
                send_cloud: true,
                cloud_every_nth: 1,
            },
        }
    }

    /// Path switching (Figure 2(b)): abandon the Internet path entirely and
    /// use only the cloud overlay, as VIA does for persistently bad paths.
    pub fn cloud_only() -> Self {
        PathPolicy {
            send_direct: false,
            send_cloud: true,
            cloud_every_nth: 1,
        }
    }

    /// Selective duplication: the direct path carries everything, the cloud
    /// copy is made for one packet in `n`.
    pub fn selective(n: u64) -> Self {
        PathPolicy {
            send_direct: true,
            send_cloud: true,
            cloud_every_nth: n.max(1),
        }
    }

    /// Whether packet `seq` should get a cloud copy under this policy.
    pub fn duplicate_to_cloud(&self, seq: u64) -> bool {
        self.send_cloud && seq.is_multiple_of(self.cloud_every_nth)
    }
}

/// Static description of one J-QoS flow shared by the nodes that handle it.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// The flow identifier.
    pub flow: FlowId,
    /// The reliability service the flow registered for.
    pub service: ServiceKind,
    /// The receiving end host.
    pub receiver: NodeId,
    /// The ingress DC (near the sender).
    pub dc1: NodeId,
    /// The egress DC (near the receiver).
    pub dc2: NodeId,
    /// The sender's path usage policy.
    pub paths: PathPolicy,
}

impl FlowSpec {
    /// A flow spec with the default path policy for its service.
    pub fn new(
        flow: FlowId,
        service: ServiceKind,
        receiver: NodeId,
        dc1: NodeId,
        dc2: NodeId,
    ) -> Self {
        FlowSpec {
            flow,
            service,
            receiver,
            dc1,
            dc2,
            paths: PathPolicy::for_service(service),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_defaults_per_service() {
        let p = PathPolicy::for_service(ServiceKind::InternetOnly);
        assert!(p.send_direct && !p.send_cloud);
        let p = PathPolicy::for_service(ServiceKind::Coding);
        assert!(p.send_direct && p.send_cloud);
        let p = PathPolicy::cloud_only();
        assert!(!p.send_direct && p.send_cloud);
    }

    #[test]
    fn selective_duplication_picks_every_nth() {
        let p = PathPolicy::selective(4);
        assert!(p.duplicate_to_cloud(0));
        assert!(!p.duplicate_to_cloud(1));
        assert!(!p.duplicate_to_cloud(3));
        assert!(p.duplicate_to_cloud(4));
        // n = 0 is clamped to 1 (duplicate everything).
        let p = PathPolicy::selective(0);
        assert!(p.duplicate_to_cloud(7));
    }
}
