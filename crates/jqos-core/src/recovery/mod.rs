//! Loss detection and recovery (§3.4, §4.4).
//!
//! * [`markov`] — the receiver-driven loss detector.
//! * `dc2` — the egress DC's recovery protocol (cache service, parked NACKs,
//!   cooperative recovery) as a state machine that knows nothing of the
//!   simulator: a message or timer and the time go in, what to send and
//!   which timers to arm come out.  `nodes::dc2::Dc2Node` hosts it.

pub(crate) mod dc2;
pub mod markov;
