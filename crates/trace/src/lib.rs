#![warn(missing_docs)]

//! Synthetic network packet traces with realistic flow structure.
//!
//! The paper's experiments replay a one-hour AT&T data-center trace
//! (~100,000 packets/sec per direction). That trace is proprietary; this
//! generator substitutes a seeded synthetic trace that preserves the
//! properties the experiments exercise:
//!
//! - packets arrive in timestamp order and group into *flows* keyed by
//!   the 5-tuple `(srcIP, destIP, srcPort, destPort, protocol)`;
//! - flow sizes are heavy-tailed (discrete Pareto), host popularity is
//!   Zipf-skewed, so per-source "heavy flows" persist across epochs;
//! - a configurable fraction of flows (default 5%, matching Section
//!   6.1's "suspicious flows accounted for about 5%") violates the TCP
//!   handshake discipline and is detectable by
//!   `HAVING OR_AGGR(flags) = 0x29` (FIN|PSH|URG — the classic Xmas-ish
//!   scan pattern) only once *all* of the flow's packets are OR-ed;
//! - everything is deterministic in the seed.

mod file;
mod generator;
mod stats;

pub use file::{read_trace, write_trace, TraceFileError};
pub use generator::{
    generate, generate_skew_ramp, SkewRampConfig, TraceConfig, SUSPICIOUS_PATTERN,
};
pub use stats::{stats, TraceStats};
