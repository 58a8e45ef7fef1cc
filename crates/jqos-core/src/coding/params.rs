//! Tunable parameters of the coding service (§4.2, §5 "Coding Parameters").

use netsim::Dur;

/// Parameters controlling CR-WAN's coding plan and rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CodingParams {
    /// Maximum number of distinct flows coded together in one cross-stream
    /// batch (`k`).  The paper bounds this to a moderate value (`k ≤ 10`)
    /// because larger batches make cooperative recovery expensive.
    pub k: usize,
    /// Cross-stream coded packets generated per batch.  The paper's default
    /// is 2 (`r = 2/k`) to protect against stragglers.
    pub cross_parity: usize,
    /// Number of data packets per in-stream FEC block.  The paper uses 5 for
    /// interactive applications (`s = 1/5`) and 16–32 for TCP-style flows.
    pub in_stream_block: usize,
    /// In-stream coded packets generated per block (usually 1).
    pub in_stream_parity: usize,
    /// Whether in-stream coding is enabled at all; the Skype case study
    /// disables it (`s = 0`) because Skype runs its own FEC.
    pub in_stream_enabled: bool,
    /// Number of cross-stream queues maintained per destination DC.
    pub cross_queue_count: usize,
    /// Encoding-delay bound: a queue that has been non-empty for this long is
    /// flushed even if not full.
    pub queue_timeout: Dur,
}

impl CodingParams {
    /// The wide-area deployment defaults of §6.2.1: `r = 2/6`, `s = 1/5`.
    pub fn planetlab_defaults() -> Self {
        CodingParams {
            k: 6,
            cross_parity: 2,
            in_stream_block: 5,
            in_stream_parity: 1,
            in_stream_enabled: true,
            cross_queue_count: 4,
            queue_timeout: Dur::from_millis(30),
        }
    }

    /// The Skype case-study configuration of §6.3: `r = 1/4`, `k = 4`,
    /// in-stream disabled because the application runs its own FEC.  The
    /// encoding-delay bound is relaxed to 60 ms and fewer cross-stream queues
    /// are kept, so that the ~200 kbps background flows (which send far less
    /// often than the video flow) have time to join each batch.
    pub fn skype_case_study() -> Self {
        CodingParams {
            k: 4,
            cross_parity: 1,
            in_stream_block: 5,
            in_stream_parity: 1,
            in_stream_enabled: false,
            cross_queue_count: 2,
            queue_timeout: Dur::from_millis(60),
        }
    }

    /// The controlled Emulab configuration of §6.6: 20 concurrent streams and
    /// 2 cross-stream coded packets (`r = 2/20`, 10 % overhead).
    pub fn emulab_20_streams() -> Self {
        CodingParams {
            k: 20,
            cross_parity: 2,
            in_stream_block: 5,
            in_stream_parity: 1,
            in_stream_enabled: false,
            cross_queue_count: 4,
            queue_timeout: Dur::from_millis(30),
        }
    }

    /// The cross-stream coding rate `r` (coded packets per data packet).
    pub fn cross_rate(&self) -> f64 {
        self.cross_parity as f64 / self.k as f64
    }

    /// The in-stream coding rate `s` (coded packets per data packet), zero if
    /// in-stream coding is disabled.
    pub fn in_stream_rate(&self) -> f64 {
        if self.in_stream_enabled {
            self.in_stream_parity as f64 / self.in_stream_block as f64
        } else {
            0.0
        }
    }

    /// Total coded-packet overhead relative to the data rate.
    pub fn total_overhead(&self) -> f64 {
        self.cross_rate() + self.in_stream_rate()
    }

    /// Validates the parameter combination.
    pub fn validate(&self) -> Result<(), String> {
        if self.k < 2 {
            return Err("cross-stream coding needs k >= 2".into());
        }
        if self.cross_parity == 0 {
            return Err("cross_parity must be >= 1".into());
        }
        if self.in_stream_enabled && (self.in_stream_block == 0 || self.in_stream_parity == 0) {
            return Err("in-stream coding enabled but block/parity is zero".into());
        }
        if self.cross_queue_count == 0 {
            return Err("cross_queue_count must be >= 1".into());
        }
        if self.k + self.cross_parity > 255 || self.in_stream_block + self.in_stream_parity > 255 {
            return Err("batch size exceeds the GF(256) shard limit".into());
        }
        Ok(())
    }
}

impl Default for CodingParams {
    fn default() -> Self {
        CodingParams::planetlab_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planetlab_defaults_match_section_6_2() {
        let p = CodingParams::planetlab_defaults();
        assert_eq!(p.k, 6);
        assert_eq!(p.cross_parity, 2);
        assert!((p.cross_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert!((p.in_stream_rate() - 0.2).abs() < 1e-12);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn skype_disables_in_stream() {
        let p = CodingParams::skype_case_study();
        assert_eq!(p.in_stream_rate(), 0.0);
        assert!((p.cross_rate() - 0.25).abs() < 1e-12);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn emulab_overhead_is_ten_percent() {
        let p = CodingParams::emulab_20_streams();
        assert!((p.total_overhead() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let p = CodingParams {
            k: 1,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = CodingParams {
            cross_parity: 0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = CodingParams {
            cross_queue_count: 0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = CodingParams {
            k: 300,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }
}
