//! Short web-transfer workload (the TCP case study, §6.4).
//!
//! The paper mirrors the Google web-latency study: a client sends a 12-byte
//! request and the server answers with a 50 KB response over a 200 ms-RTT
//! path whose loss process is bursty (first packet of a burst lost with
//! probability 0.01, subsequent ones with probability 0.5).  This module
//! holds the transfer description used by the `transport` crate's mini-TCP
//! and by the Figure 9(b) bench.

use netsim::loss::LossSpec;
use netsim::{Dur, Topology};

/// Description of one request/response web transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WebTransferSpec {
    /// Request size in bytes.
    pub request_bytes: usize,
    /// Response size in bytes.
    pub response_bytes: usize,
    /// Maximum segment size used to packetise the response.
    pub mss: usize,
}

impl WebTransferSpec {
    /// The §6.4 transfer: 12 B request, 50 KB response, 1460 B MSS.
    pub fn google_study() -> Self {
        WebTransferSpec {
            request_bytes: 12,
            response_bytes: 50 * 1024,
            mss: 1460,
        }
    }

    /// Number of response segments the transfer needs.
    pub fn response_segments(&self) -> usize {
        self.response_bytes.div_ceil(self.mss)
    }

    /// Sizes of the individual response segments (one MSS each except the
    /// last).
    pub fn segment_sizes(&self) -> Vec<usize> {
        let full = self.response_bytes / self.mss;
        let tail = self.response_bytes % self.mss;
        let mut sizes = vec![self.mss; full];
        if tail > 0 {
            sizes.push(tail);
        }
        sizes
    }
}

/// The emulated topology of the §6.4 experiment: 200 ms RTT between the end
/// hosts, 30 ms RTT to each DC, 200 ms RTT between the DCs, and the Google
/// burst-loss model on the direct path.
pub fn google_study_topology() -> Topology {
    Topology::lossless(
        Dur::from_millis(100), // one-way 100 ms => 200 ms RTT
        Dur::from_millis(15),  // 30 ms RTT to DC1
        Dur::from_millis(100), // 200 ms RTT between DCs
        Dur::from_millis(15),  // 30 ms RTT to DC2
    )
    .internet_loss(LossSpec::GoogleBurst {
        p_first: 0.01,
        p_next: 0.5,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn google_study_segments_add_up() {
        let spec = WebTransferSpec::google_study();
        assert_eq!(spec.response_segments(), 36);
        let sizes = spec.segment_sizes();
        assert_eq!(sizes.len(), 36);
        assert_eq!(sizes.iter().sum::<usize>(), 50 * 1024);
        assert!(sizes[..35].iter().all(|&s| s == 1460));
        assert_eq!(sizes[35], 50 * 1024 - 35 * 1460);
    }

    #[test]
    fn exact_multiple_has_no_tail_segment() {
        let spec = WebTransferSpec {
            request_bytes: 10,
            response_bytes: 2920,
            mss: 1460,
        };
        assert_eq!(spec.segment_sizes(), vec![1460, 1460]);
    }

    #[test]
    fn topology_matches_the_emulab_setup() {
        let t = google_study_topology();
        assert_eq!(t.rtt(), Dur::from_millis(200));
        assert_eq!(t.delta_s() * 2, Dur::from_millis(30));
        assert_eq!(t.x() * 2, Dur::from_millis(200));
        assert!(matches!(t.internet.loss, LossSpec::GoogleBurst { .. }));
    }
}
