//! Configuration and measured telemetry for the framed boundary
//! transport every distributing runner shares — worker threads over a
//! channel and host processes over sockets alike.
//!
//! Boundary data crosses execution units as length-prefixed lane frames
//! ([`qap_types::encode_column_batch`]) into a *bounded* buffer.
//! [`TransportConfig`] holds the run's knobs: buffer depth and frame
//! size, the fault plan and strict/partial failure mode, the one
//! timeout that bounds every wait on a peer, and the rebalance
//! controller. Capacity and frame size are pure performance knobs:
//! results and semantic counters are identical at every setting (the
//! transport and socket equivalence suites sweep them against the
//! deterministic simulator). The unit decomposition is not a knob:
//! every runner deploys one execution unit per host.
//!
//! [`TransportMetrics`] is the *measured* side: actual frames and
//! encoded bytes that crossed each boundary edge — as opposed to the
//! cost model's derived `tuples × estimated_tuple_size(arity)`
//! estimate — plus backpressure stalls and the live buffer-depth peak.

use crate::rebalance::RebalanceConfig;

/// Deterministic fault-injection plan, applied by every unit wherever
/// it runs.
///
/// All knobs are *every-Nth* selectors driven by per-edge (or per-host)
/// monotone counters, so a given plan injects the same faults at the
/// same points on every run — chaos tests assert exact outcomes under a
/// fixed plan. `0` disables a knob. The default plan injects nothing.
///
/// Injectable fault classes:
///
/// - **corruption** (`corrupt_every`): the shipped frame's declared
///   payload-length header byte is flipped, so the consumer's decoder
///   reports a typed [`qap_types::TypeError::FrameLengthMismatch`] —
///   never a panic;
/// - **truncation** (`truncate_every`): the frame is cut to half its
///   bytes mid-payload, surfacing as `Truncated`/`FrameLengthMismatch`;
/// - **drop** (`drop_every`): the frame is silently discarded before
///   the send — the consumer sees a gap, not an error (models a lossy
///   link; conservation checks catch the deficit);
/// - **slowdown** (`slow_host` + `slow_micros`): every frame shipped by
///   that host sleeps first — exercises backpressure and timeouts
///   without changing results. This and the next two are faults of the
///   thread and host-process drivers: the simulator has no clock or
///   worker to apply them to, and ignores them;
/// - **hang** (`hang_host` + `hang_millis`): the host sleeps *once*,
///   before its first frame, long enough to trip the consumer's
///   receive timeout (finite, so the scoped runner always joins);
/// - **worker panic** (`panic_host` + `panic_after_tuples`): the
///   host's worker panics after feeding N tuples; `catch_unwind`
///   converts it into a typed
///   [`qap_exec::HostFailure`](qap_exec::FailureCause::Panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The simulator's delivery schedule: 0 delivers every boundary
    /// frame as soon as it is cut, any other seed draws how many of each
    /// edge's pending frames to deliver after every step
    /// ([`crate::run_distributed`]). The other runners' schedules are
    /// their threads'.
    pub seed: u64,
    /// Corrupt every Nth boundary frame (per edge); 0 = never.
    pub corrupt_every: u64,
    /// Truncate every Nth boundary frame (per edge); 0 = never.
    pub truncate_every: u64,
    /// Drop every Nth boundary frame (per edge); 0 = never.
    pub drop_every: u64,
    /// Host whose sends are delayed by [`FaultPlan::slow_micros`].
    pub slow_host: Option<usize>,
    /// Delay, in microseconds, injected before each frame send on
    /// [`FaultPlan::slow_host`].
    pub slow_micros: u64,
    /// Host that stalls once, before its first frame.
    pub hang_host: Option<usize>,
    /// How long the hung host sleeps, in milliseconds. Finite by
    /// construction: the scoped runner must eventually join it.
    pub hang_millis: u64,
    /// Host whose worker panics mid-run.
    pub panic_host: Option<usize>,
    /// Tuples the panicking worker feeds its engine before the injected
    /// panic fires.
    pub panic_after_tuples: u64,
}

qap_types::wire_struct!(FaultPlan {
    seed: u64,
    corrupt_every: u64,
    truncate_every: u64,
    drop_every: u64,
    slow_host: Option<usize>,
    slow_micros: u64,
    hang_host: Option<usize>,
    hang_millis: u64,
    panic_host: Option<usize>,
    panic_after_tuples: u64,
});

impl FaultPlan {
    /// True when no knob is active — the clean path.
    pub fn is_clean(&self) -> bool {
        self.corrupt_every == 0
            && self.truncate_every == 0
            && self.drop_every == 0
            && self.slow_host.is_none()
            && self.hang_host.is_none()
            && self.panic_host.is_none()
    }

    /// Plan with the given seed and all knobs off.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Corrupt every `n`th frame per edge (0 = never).
    pub fn corrupt_every(mut self, n: u64) -> Self {
        self.corrupt_every = n;
        self
    }

    /// Truncate every `n`th frame per edge (0 = never).
    pub fn truncate_every(mut self, n: u64) -> Self {
        self.truncate_every = n;
        self
    }

    /// Drop every `n`th frame per edge (0 = never).
    pub fn drop_every(mut self, n: u64) -> Self {
        self.drop_every = n;
        self
    }

    /// Delay each of `host`'s frame sends by `micros` microseconds.
    pub fn slow(mut self, host: usize, micros: u64) -> Self {
        self.slow_host = Some(host);
        self.slow_micros = micros;
        self
    }

    /// Stall `host` for `millis` milliseconds before its first frame.
    pub fn hang(mut self, host: usize, millis: u64) -> Self {
        self.hang_host = Some(host);
        self.hang_millis = millis;
        self
    }

    /// Panic `host`'s worker after it feeds `tuples` tuples.
    pub fn panic_after(mut self, host: usize, tuples: u64) -> Self {
        self.panic_host = Some(host);
        self.panic_after_tuples = tuples;
        self
    }
}

/// Knobs for the boundary transport and the units around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportConfig {
    /// Bounded channel capacity, in frames. Producing units block once
    /// this many frames are in flight toward a consumer — backpressure
    /// instead of unbounded buffering. Clamped to at least 1.
    pub channel_capacity: usize,
    /// Tuples staged per boundary frame. Boundary output is chunked
    /// into frames of exactly this many tuples (plus one final partial
    /// frame). Clamped to at least 1.
    pub frame_batch: usize,
    /// Deterministic fault-injection plan. The default injects nothing;
    /// with any knob active the run exercises the failure paths
    /// (typed [`qap_exec::HostFailure`], retries, timeouts).
    pub fault: FaultPlan,
    /// When true, a host failure does not abort the run: surviving
    /// hosts finish their epochs, and the run report carries per-host
    /// failure records plus conservation-checked partial counters. When
    /// false (default, *strict* mode) the first failure surfaces as
    /// `Err(ExecError::Host(..))`.
    pub partial_results: bool,
    /// Bound, in milliseconds, on every wait on a peer: how long a
    /// producer retries a full channel, how long the central consumer
    /// waits for a quiet boundary before declaring the peer hung
    /// ([`qap_exec::FailureCause::Timeout`]), and how long a control
    /// round trip (handshake step, migration reply) may take. Clamped
    /// to at least 1: no setting lets a hung peer hang the run.
    pub send_timeout_ms: u64,
    /// Online re-partitioning controller (disabled by default): when
    /// enabled, the splitter samples per-host load each epoch and
    /// migrates group state at epoch boundaries once the imbalance
    /// detector fires (see [`crate::rebalance`]).
    pub rebalance: RebalanceConfig,
}

impl Default for TransportConfig {
    /// 64 in-flight frames (enough to decouple producer/consumer
    /// scheduling jitter, small enough that a stalled consumer stops
    /// producers within tens of frames) × 1024-tuple frames (matches
    /// the default [`qap_exec::BatchConfig`]).
    fn default() -> Self {
        TransportConfig {
            channel_capacity: 64,
            frame_batch: 1024,
            fault: FaultPlan::default(),
            partial_results: false,
            send_timeout_ms: DEFAULT_SEND_TIMEOUT_MS,
            rebalance: RebalanceConfig::default(),
        }
    }
}

/// Default retry/receive timeout bound: generous enough that a healthy
/// but heavily backpressured run never trips it, small enough that a
/// genuinely hung peer surfaces in seconds rather than wedging CI.
pub const DEFAULT_SEND_TIMEOUT_MS: u64 = 30_000;

/// Which backend moves boundary frames between execution units.
///
/// Pure plumbing: every backend carries the same wire frames with the
/// same sequence numbers, retry bounds and typed failure surface, so
/// results are bit-identical across kinds (the socket equivalence suite
/// sweeps all three). `Channel` keeps the run in one process;
/// `Tcp`/`Unix` put each leaf host in its own OS process (`qapctl host
/// --listen`) behind a versioned handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process bounded crossbeam channel (the default).
    #[default]
    Channel,
    /// TCP sockets to `qapctl host --listen ip:port` processes.
    Tcp,
    /// Unix-domain sockets to `qapctl host --listen unix:/path`
    /// processes.
    Unix,
}

impl TransportKind {
    /// Parses a `--transport` flag value.
    pub fn parse(s: &str) -> Result<TransportKind, String> {
        match s {
            "channel" => Ok(TransportKind::Channel),
            "tcp" => Ok(TransportKind::Tcp),
            "unix" => Ok(TransportKind::Unix),
            other => Err(format!(
                "unknown transport '{other}' (expected channel, tcp or unix)"
            )),
        }
    }
}

impl TransportConfig {
    /// Config with the given capacity and frame size (each clamped to
    /// at least 1).
    pub fn new(channel_capacity: usize, frame_batch: usize) -> Self {
        TransportConfig {
            channel_capacity: channel_capacity.max(1),
            frame_batch: frame_batch.max(1),
            ..TransportConfig::default()
        }
    }

    /// Returns the config unchanged: one unit per host is the only
    /// decomposition. Kept because the `bench_e2e` workloads still call
    /// it, and only a benchmark change may edit them; it goes with the
    /// next one.
    pub fn host_serial(self) -> Self {
        self
    }

    /// Installs a deterministic fault-injection plan.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Sets partial-results mode: host failures are recorded, not
    /// fatal; surviving hosts finish their epochs.
    pub fn with_partial_results(mut self, on: bool) -> Self {
        self.partial_results = on;
        self
    }

    /// Sets the retry/receive timeout bound in milliseconds (clamped to
    /// at least 1).
    pub fn with_send_timeout_ms(mut self, ms: u64) -> Self {
        self.send_timeout_ms = ms.max(1);
        self
    }

    /// Sets the online re-partitioning controller.
    pub fn with_rebalance(mut self, rebalance: RebalanceConfig) -> Self {
        self.rebalance = rebalance;
        self
    }
}

/// Measured transport for one boundary edge (one producing plan node's
/// frame stream into its consuming unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EdgeTransport {
    /// Global plan-node id of the producing operator.
    pub producer: usize,
    /// Host executing the producer.
    pub from_host: usize,
    /// Frames shipped over this edge.
    pub frames: u64,
    /// Tuples carried by those frames.
    pub tuples: u64,
    /// Encoded payload bytes carried (excluding the 8-byte frame
    /// headers) — the measured counterpart of the cost model's
    /// `tuples × estimated_tuple_size(arity)` estimate, which prices the
    /// tagged per-tuple encoding. Lane frames pack typed values untagged, so
    /// on all-numeric schemas they measure *below* the estimate.
    pub bytes: u64,
    /// Bounded-backoff retries this edge's producer performed against a
    /// full channel (each retry re-polls `try_send` after a short
    /// sleep; the count complements `backpressure_stalls`, which tracks
    /// first-refusals).
    pub retries: u64,
}

qap_types::wire_struct!(EdgeTransport {
    producer: usize,
    from_host: usize,
    frames: u64,
    tuples: u64,
    bytes: u64,
    retries: u64,
});

/// Measured boundary-transport telemetry of one run.
///
/// Frame/tuple/byte counts per edge are deterministic (each producer's
/// output stream and its chunking into frames are fixed by the plan and
/// trace); `backpressure_stalls` and `queue_peak` depend on scheduling
/// and vary run to run on the threaded and socket runners. The
/// simulator's queue peak is a function of its seed; nothing stalls.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransportMetrics {
    /// Per-edge measurements, sorted by producing node id.
    pub edges: Vec<EdgeTransport>,
    /// Total frames shipped across all boundary edges.
    pub frames: u64,
    /// Total encoded frame bytes shipped, *including* the 8-byte
    /// per-frame headers (`Σ edge.bytes + 8 × frames`).
    pub frame_bytes: u64,
    /// Times a producing unit found its boundary channel full and had
    /// to block (one stall per blocking send, not per blocked tuple).
    pub backpressure_stalls: u64,
    /// Peak frames in flight across all boundary channels.
    pub queue_peak: u64,
    /// Total bounded-backoff retries against full channels
    /// (`Σ edge.retries`).
    pub retries: u64,
    /// Frames discarded before the send by the fault plan's
    /// `drop_every` knob. Always 0 on the clean path.
    pub frames_dropped: u64,
    /// Corrupt frames the consumer detected, recorded, and discarded in
    /// partial-results mode (strict mode fails the run on the first one
    /// instead). Always 0 on the clean path.
    pub frames_corrupt_dropped: u64,
    /// The capacity the run's channels were created with.
    pub channel_capacity: usize,
    /// The frame size the run staged boundary tuples into.
    pub frame_batch: usize,
}

impl TransportMetrics {
    /// Total tuples shipped across all boundary edges.
    pub fn tuples(&self) -> u64 {
        self.edges.iter().map(|e| e.tuples).sum()
    }

    /// Total encoded payload bytes (excluding frame headers).
    pub fn payload_bytes(&self) -> u64 {
        self.edges.iter().map(|e| e.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_clamping() {
        let d = TransportConfig::default();
        assert_eq!(d.channel_capacity, 64);
        assert_eq!(d.frame_batch, 1024);
        assert!(d.fault.is_clean());
        assert!(!d.partial_results);
        assert_eq!(d.send_timeout_ms, DEFAULT_SEND_TIMEOUT_MS);
        assert!(!d.rebalance.enabled);
        let c = TransportConfig::new(0, 0);
        assert_eq!((c.channel_capacity, c.frame_batch), (1, 1));
        assert_eq!(TransportConfig::default().host_serial(), d);
        assert!(
            TransportConfig::default()
                .with_partial_results(true)
                .partial_results
        );
        assert_eq!(
            TransportConfig::default()
                .with_send_timeout_ms(250)
                .send_timeout_ms,
            250
        );
        let unbounded = TransportConfig::default().with_send_timeout_ms(0);
        assert_eq!(unbounded.send_timeout_ms, 1, "0 is not a mode");
        let r = TransportConfig::default()
            .with_rebalance(RebalanceConfig::adaptive().with_threshold(0.2))
            .rebalance;
        assert!(r.enabled);
        assert_eq!(r.threshold, 1.0, "threshold clamps to balance");
    }

    #[test]
    fn fault_plan_builders_and_cleanliness() {
        assert!(FaultPlan::default().is_clean());
        assert!(FaultPlan::seeded(7).is_clean());
        let p = FaultPlan::seeded(7)
            .corrupt_every(3)
            .truncate_every(5)
            .drop_every(2)
            .slow(1, 50)
            .hang(2, 400)
            .panic_after(0, 1000);
        assert!(!p.is_clean());
        assert_eq!(p.seed, 7);
        assert_eq!(p.corrupt_every, 3);
        assert_eq!(p.truncate_every, 5);
        assert_eq!(p.drop_every, 2);
        assert_eq!((p.slow_host, p.slow_micros), (Some(1), 50));
        assert_eq!((p.hang_host, p.hang_millis), (Some(2), 400));
        assert_eq!((p.panic_host, p.panic_after_tuples), (Some(0), 1000));
        // Every single knob flips the plan dirty on its own.
        assert!(!FaultPlan::default().corrupt_every(1).is_clean());
        assert!(!FaultPlan::default().truncate_every(1).is_clean());
        assert!(!FaultPlan::default().drop_every(1).is_clean());
        assert!(!FaultPlan::default().slow(0, 1).is_clean());
        assert!(!FaultPlan::default().hang(0, 1).is_clean());
        assert!(!FaultPlan::default().panic_after(0, 1).is_clean());
        // Config embedding round-trips.
        let cfg = TransportConfig::default().with_fault(p);
        assert_eq!(cfg.fault, p);
    }

    #[test]
    fn totals_sum_edges() {
        let m = TransportMetrics {
            edges: vec![
                EdgeTransport {
                    producer: 1,
                    from_host: 0,
                    frames: 2,
                    tuples: 10,
                    bytes: 100,
                    retries: 0,
                },
                EdgeTransport {
                    producer: 3,
                    from_host: 1,
                    frames: 1,
                    tuples: 5,
                    bytes: 50,
                    retries: 1,
                },
            ],
            frames: 3,
            frame_bytes: 150 + 3 * 8,
            ..TransportMetrics::default()
        };
        assert_eq!(m.tuples(), 15);
        assert_eq!(m.payload_bytes(), 150);
        assert_eq!(m.frame_bytes, m.payload_bytes() + 8 * m.frames);
    }
}
