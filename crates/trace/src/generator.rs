//! The flow-structured packet generator.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use qap_types::{Tuple, Value};

/// `FIN | PSH | URG` — the flag OR-pattern of a suspicious flow that
/// does not follow the TCP handshake (Section 6.1's attack pattern).
pub const SUSPICIOUS_PATTERN: u64 = 0x29;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// RNG seed; equal seeds produce identical traces.
    pub seed: u64,
    /// Number of 60-second epochs to generate.
    pub epochs: u64,
    /// Epoch length in seconds of the `time` attribute.
    pub epoch_secs: u64,
    /// Flows started per epoch.
    pub flows_per_epoch: usize,
    /// Pareto shape of the per-flow packet count (smaller = heavier
    /// tail).
    pub pareto_alpha: f64,
    /// Cap on per-flow packets.
    pub max_flow_packets: u64,
    /// Number of distinct host addresses.
    pub hosts: u64,
    /// Zipf exponent of host popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Fraction of flows carrying the suspicious flag pattern.
    pub suspicious_fraction: f64,
    /// Spread host indices across the 32-bit IPv4 space (Fibonacci
    /// hashing) instead of using dense small integers. Real traces have
    /// high subnet diversity, which matters to masked groupings like
    /// `srcIP & 0xFFF0`; dense indices would collapse them to a handful
    /// of groups.
    pub spread_ips: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            seed: 42,
            epochs: 5,
            epoch_secs: 60,
            flows_per_epoch: 2_000,
            pareto_alpha: 1.2,
            max_flow_packets: 500,
            hosts: 5_000,
            zipf_exponent: 1.1,
            suspicious_fraction: 0.05,
            spread_ips: false,
        }
    }
}

impl TraceConfig {
    /// A small trace for unit tests.
    pub fn tiny(seed: u64) -> Self {
        TraceConfig {
            seed,
            epochs: 3,
            flows_per_epoch: 100,
            hosts: 50,
            ..TraceConfig::default()
        }
    }
}

/// The skew-ramp scenario: a small *hot set* of source hosts carries a
/// fixed fraction of all flows, and the hot set drifts (is re-drawn)
/// every `drift_period` epochs. Static partitionings that happened to
/// colocate the hot set degrade until the drift relieves them; an
/// adaptive splitter re-spreads the hot buckets each phase. Everything
/// is deterministic in `base.seed`.
#[derive(Debug, Clone)]
pub struct SkewRampConfig {
    /// Underlying flow-structured generator settings (seed, epochs,
    /// hosts, flow sizes...).
    pub base: TraceConfig,
    /// Hot-set size per phase (ignored when `hot_hosts` is given).
    pub hot_keys: usize,
    /// Fraction of flows whose source is drawn from the hot set.
    pub hot_fraction: f64,
    /// Epochs between hot-set re-draws (one *phase* = this many epochs).
    pub drift_period: u64,
    /// Explicit per-phase hot source addresses, used verbatim as
    /// `srcIP` values (no IP spreading). Callers that know the
    /// partitioner use this to build adversarial layouts — e.g. hot
    /// keys that all route to one host under the static assignment.
    /// Phase `p` uses entry `p % hot_hosts.len()`. `None` derives hot
    /// sets from the seed.
    pub hot_hosts: Option<Vec<Vec<u64>>>,
}

impl Default for SkewRampConfig {
    fn default() -> Self {
        SkewRampConfig {
            base: TraceConfig::default(),
            hot_keys: 8,
            hot_fraction: 0.8,
            drift_period: 2,
            hot_hosts: None,
        }
    }
}

impl SkewRampConfig {
    /// A small skew-ramp for unit tests.
    pub fn tiny(seed: u64) -> Self {
        SkewRampConfig {
            base: TraceConfig::tiny(seed),
            hot_keys: 4,
            drift_period: 1,
            ..SkewRampConfig::default()
        }
    }
}

/// Zipf sampler over `0..n` via inverse-CDF table.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, s: f64) -> Self {
        let n = n.max(1) as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Discrete Pareto: `ceil(1 / U^(1/alpha))`, capped.
fn pareto_count(rng: &mut StdRng, alpha: f64, cap: u64) -> u64 {
    let u: f64 = rng.random::<f64>().max(1e-12);
    let x: f64 = 1.0 / u.powf(1.0 / alpha);
    let x = x.ceil() as u64;
    x.clamp(1, cap)
}

/// Flag sequences: normal flows follow handshake-ish patterns whose OR
/// never includes URG; suspicious flows cycle FIN/PSH/URG so the
/// complete flow ORs to [`SUSPICIOUS_PATTERN`] while any proper subset
/// may not — detecting them requires the whole flow on one host or a
/// correct super-aggregate.
const NORMAL_FLAGS: [u64; 4] = [0x02, 0x12, 0x10, 0x18];
const SUSPICIOUS_FLAGS: [u64; 3] = [0x01, 0x08, 0x20];

/// Maps a dense host index onto the IPv4 space (Fibonacci hashing keeps
/// the mapping deterministic and collision-free for < 2^32 hosts).
fn spread(h: u64) -> u64 {
    (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & 0xFFFF_FFFF
}

/// One packet before it becomes a row: `[timestamp, srcIP, destIP,
/// srcPort, destPort, flags, len, generation index]`. `time` is
/// `timestamp / 10⁶` and the protocol is always TCP.
type Packet = [u64; 8];

/// Draws one flow's ports, size and packets, in that order, appending
/// the packets to `epoch` in generation order.
fn flow_packets(
    rng: &mut StdRng,
    cfg: &TraceConfig,
    time_base: u64,
    (src, dst): (u64, u64),
    epoch: &mut Vec<Packet>,
) {
    let src_port: u64 = rng.random_range(1024..=65535);
    let dst_port: u64 = *[80u64, 443, 53, 22, 25]
        .get(rng.random_range(0..5usize))
        .expect("index in range");
    let suspicious = rng.random::<f64>() < cfg.suspicious_fraction;
    let mut count = pareto_count(rng, cfg.pareto_alpha, cfg.max_flow_packets);
    if suspicious {
        // A suspicious flow needs all three flag values present.
        count = count.max(SUSPICIOUS_FLAGS.len() as u64);
    }
    for i in 0..count {
        let time = time_base + rng.random_range(0..cfg.epoch_secs);
        let micro: u64 = rng.random_range(0..1_000_000);
        let flags = if suspicious {
            SUSPICIOUS_FLAGS[(i as usize) % SUSPICIOUS_FLAGS.len()]
        } else {
            NORMAL_FLAGS[rng.random_range(0..NORMAL_FLAGS.len())]
        };
        let len: u64 = if rng.random::<f64>() < 0.5 {
            rng.random_range(40..=100)
        } else {
            rng.random_range(100..=1500)
        };
        let index = epoch.len() as u64;
        let timestamp = time * 1_000_000 + micro;
        epoch.push([timestamp, src, dst, src_port, dst_port, flags, len, index]);
    }
}

/// Sorts one epoch's packets into arrival order — by timestamp, which
/// carries `time` in its high digits, then by generation index — and
/// only then builds their rows, so the trace's heap order is its
/// arrival order: a reader walking the `Vec<Tuple>` walks memory
/// forward. Epochs are disjoint in `time`, so appending epoch after
/// epoch is the global order. Leaves `epoch` empty for reuse.
fn append_epoch(epoch: &mut Vec<Packet>, trace: &mut Vec<Tuple>) {
    epoch.sort_unstable_by_key(|p| (p[0], p[7]));
    trace.reserve(epoch.len());
    for &[timestamp, src, dst, src_port, dst_port, flags, len, _] in epoch.iter() {
        trace.push(Tuple::new(vec![
            Value::UInt(timestamp / 1_000_000),
            Value::UInt(timestamp),
            Value::UInt(src),
            Value::UInt(dst),
            Value::UInt(src_port),
            Value::UInt(dst_port),
            Value::UInt(6),
            Value::UInt(flags),
            Value::UInt(len),
        ]));
    }
    epoch.clear();
}

/// Generates a trace as tuples of the `TCP` schema:
/// `(time, timestamp, srcIP, destIP, srcPort, destPort, protocol,
/// flags, len)`, ordered by `time`/`timestamp`.
///
/// ```
/// use qap_trace::{generate, stats, TraceConfig};
///
/// let trace = generate(&TraceConfig::tiny(7));
/// let s = stats(&trace);
/// assert!(s.flows > 0 && s.packets >= s.flows);
/// // Deterministic in the seed.
/// assert_eq!(trace, generate(&TraceConfig::tiny(7)));
/// ```
pub fn generate(cfg: &TraceConfig) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let zipf = Zipf::new(cfg.hosts, cfg.zipf_exponent);
    let ip = |h: u64| if cfg.spread_ips { spread(h) } else { h };
    let (mut epoch_packets, mut trace) = (Vec::new(), Vec::new());

    for epoch in 0..cfg.epochs {
        let time_base = epoch * cfg.epoch_secs;
        for _ in 0..cfg.flows_per_epoch {
            let src = zipf.sample(&mut rng) + 1;
            let mut dst = zipf.sample(&mut rng) + 1;
            if dst == src {
                dst = (dst % cfg.hosts) + 1;
            }
            let endpoints = (ip(src), ip(dst));
            flow_packets(&mut rng, cfg, time_base, endpoints, &mut epoch_packets);
        }
        append_epoch(&mut epoch_packets, &mut trace);
    }
    trace
}

/// Generates a skew-ramp trace (same `TCP` schema and ordering as
/// [`generate`]): per phase, `hot_fraction` of flows originate from a
/// small hot set of sources that is re-drawn every `drift_period`
/// epochs.
///
/// ```
/// use qap_trace::{generate_skew_ramp, SkewRampConfig};
///
/// let trace = generate_skew_ramp(&SkewRampConfig::tiny(7));
/// assert!(!trace.is_empty());
/// assert_eq!(trace, generate_skew_ramp(&SkewRampConfig::tiny(7)));
/// ```
pub fn generate_skew_ramp(cfg: &SkewRampConfig) -> Vec<Tuple> {
    let base = &cfg.base;
    let mut rng = StdRng::seed_from_u64(base.seed);
    let zipf = Zipf::new(base.hosts, base.zipf_exponent);
    let ip = |h: u64| if base.spread_ips { spread(h) } else { h };
    let drift = cfg.drift_period.max(1);
    let (mut epoch_packets, mut trace) = (Vec::new(), Vec::new());

    for epoch in 0..base.epochs {
        let phase = epoch / drift;
        // The hot set is a function of (seed, phase) only, so it is
        // stable within a phase and re-drawn at every drift boundary.
        let hot: Vec<u64> = match &cfg.hot_hosts {
            Some(sets) if !sets.is_empty() => sets[(phase as usize) % sets.len()].clone(),
            _ => {
                let mut hr =
                    StdRng::seed_from_u64(base.seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut set = Vec::with_capacity(cfg.hot_keys.max(1));
                while set.len() < cfg.hot_keys.max(1) {
                    let h = ip(hr.random_range(1..=base.hosts.max(1)));
                    if !set.contains(&h) {
                        set.push(h);
                    }
                }
                set
            }
        };
        let time_base = epoch * base.epoch_secs;
        for _ in 0..base.flows_per_epoch {
            let src = if rng.random::<f64>() < cfg.hot_fraction {
                hot[rng.random_range(0..hot.len())]
            } else {
                ip(zipf.sample(&mut rng) + 1)
            };
            let mut dst = ip(zipf.sample(&mut rng) + 1);
            if dst == src {
                dst = ip((dst % base.hosts) + 1);
            }
            flow_packets(&mut rng, base, time_base, (src, dst), &mut epoch_packets);
        }
        append_epoch(&mut epoch_packets, &mut trace);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&TraceConfig::tiny(7));
        let b = generate(&TraceConfig::tiny(7));
        assert_eq!(a, b);
        let c = generate(&TraceConfig::tiny(8));
        assert_ne!(a, c);
    }

    /// `h = (h ^ v) * FNV_PRIME` over every value in row order, with
    /// the tuple count: any value, row or order change moves it.
    fn fold(trace: &[Tuple]) -> (u64, usize) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in trace.iter().flat_map(Tuple::values) {
            h = (h ^ v.as_u64().expect("TCP rows are unsigned")).wrapping_mul(0x0100_0000_01b3);
        }
        (h, trace.len())
    }

    /// The constants were computed with the generator that built every
    /// row in flow order and stable-sorted the whole trace by
    /// `(time, timestamp)`; the per-epoch generator must reproduce it
    /// tuple for tuple.
    #[test]
    fn traces_are_pinned_value_for_value() {
        assert_eq!(
            fold(&generate(&TraceConfig::tiny(7))),
            (10883829857733480819, 1384)
        );
        assert_eq!(
            fold(&generate_skew_ramp(&SkewRampConfig::tiny(7))),
            (13990304757106620655, 1650)
        );
        let spread_hot = SkewRampConfig {
            base: TraceConfig {
                spread_ips: true,
                ..TraceConfig::tiny(9)
            },
            hot_hosts: Some(vec![vec![77_777, 88_888], vec![99_999]]),
            ..SkewRampConfig::tiny(9)
        };
        assert_eq!(
            fold(&generate_skew_ramp(&spread_hot)),
            (17336057840193092485, 1525)
        );
        // bench_e2e's trace (`spec.rs::trace_config(20080609, false)`).
        let bench = TraceConfig {
            seed: 20080609,
            epochs: 5,
            epoch_secs: 60,
            flows_per_epoch: 20_000,
            hosts: 1_000,
            max_flow_packets: 32,
            pareto_alpha: 1.1,
            zipf_exponent: 1.1,
            suspicious_fraction: 0.05,
            spread_ips: true,
        };
        assert_eq!(fold(&generate(&bench)), (6133711191889091491, 453_507));
        // One-second epochs: 343 adjacent pairs share a timestamp, and
        // the fold is order-sensitive.
        let ties = generate(&TraceConfig {
            epoch_secs: 1,
            flows_per_epoch: 3000,
            ..TraceConfig::tiny(7)
        });
        let tied = ties.windows(2).filter(|w| w[0].get(1) == w[1].get(1));
        assert_eq!(tied.count(), 343);
        assert_eq!(fold(&ties), (1189624882039854796, 44_938));
    }

    /// Two packets on one timestamp arrive in the order they were
    /// generated.
    #[test]
    fn same_timestamp_sorts_by_generation_index() {
        let mut epoch: Vec<Packet> = vec![
            [9, 1, 0, 0, 0, 0, 0, 0],
            [5, 2, 0, 0, 0, 0, 0, 1],
            [9, 3, 0, 0, 0, 0, 0, 2],
            [5, 4, 0, 0, 0, 0, 0, 3],
        ];
        let mut trace = Vec::new();
        append_epoch(&mut epoch, &mut trace);
        assert!(epoch.is_empty());
        let srcs: Vec<u64> = trace.iter().map(|t| t.get(2).as_u64().unwrap()).collect();
        assert_eq!(srcs, [2, 4, 1, 3]);
    }

    #[test]
    fn ordered_by_time() {
        let trace = generate(&TraceConfig::tiny(1));
        let mut last = 0u64;
        for t in &trace {
            let time = t.get(0).as_u64().unwrap();
            assert!(time >= last);
            last = time;
        }
    }

    #[test]
    fn schema_shape_and_ranges() {
        let cfg = TraceConfig::tiny(2);
        let trace = generate(&cfg);
        assert!(!trace.is_empty());
        for t in &trace {
            assert_eq!(t.arity(), 9);
            let time = t.get(0).as_u64().unwrap();
            assert!(time < cfg.epochs * cfg.epoch_secs);
            let src = t.get(2).as_u64().unwrap();
            assert!((1..=cfg.hosts).contains(&src));
            assert_eq!(t.get(6), &Value::UInt(6));
            let len = t.get(8).as_u64().unwrap();
            assert!((40..=1500).contains(&len));
        }
    }

    #[test]
    fn zipf_skews_popularity() {
        let cfg = TraceConfig {
            hosts: 1000,
            flows_per_epoch: 2000,
            ..TraceConfig::tiny(3)
        };
        let trace = generate(&cfg);
        let mut counts = std::collections::HashMap::new();
        for t in &trace {
            *counts.entry(t.get(2).as_u64().unwrap()).or_insert(0u64) += 1;
        }
        let total: u64 = counts.values().sum();
        let max = *counts.values().max().unwrap();
        // The most popular host should carry far more than uniform share.
        assert!(max as f64 > 10.0 * total as f64 / cfg.hosts as f64);
    }

    #[test]
    fn suspicious_flows_or_to_pattern() {
        let cfg = TraceConfig {
            suspicious_fraction: 1.0,
            ..TraceConfig::tiny(4)
        };
        let trace = generate(&cfg);
        // Per-flow OR of flags must equal the pattern.
        let mut per_flow: std::collections::HashMap<(u64, u64, u64, u64), u64> =
            std::collections::HashMap::new();
        for t in &trace {
            let key = (
                t.get(2).as_u64().unwrap(),
                t.get(3).as_u64().unwrap(),
                t.get(4).as_u64().unwrap(),
                t.get(5).as_u64().unwrap(),
            );
            *per_flow.entry(key).or_insert(0) |= t.get(7).as_u64().unwrap();
        }
        for (_, or) in per_flow {
            assert_eq!(or, SUSPICIOUS_PATTERN);
        }
    }

    #[test]
    fn normal_flows_never_match_pattern() {
        let cfg = TraceConfig {
            suspicious_fraction: 0.0,
            ..TraceConfig::tiny(5)
        };
        let trace = generate(&cfg);
        for t in &trace {
            let flags = t.get(7).as_u64().unwrap();
            assert_eq!(flags & 0x20, 0, "normal traffic never sets URG");
        }
    }

    #[test]
    fn spread_ips_diversifies_subnets() {
        let dense = generate(&TraceConfig::tiny(9));
        let spread = generate(&TraceConfig {
            spread_ips: true,
            ..TraceConfig::tiny(9)
        });
        let subnets = |trace: &[Tuple]| {
            trace
                .iter()
                .map(|t| t.get(2).as_u64().unwrap() & 0xFFF0)
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert!(
            subnets(&spread) > 2 * subnets(&dense),
            "spreading should multiply subnet diversity: {} vs {}",
            subnets(&spread),
            subnets(&dense)
        );
        // Same flow structure either way.
        assert_eq!(dense.len(), spread.len());
    }

    #[test]
    fn skew_ramp_is_deterministic_and_well_formed() {
        let a = generate_skew_ramp(&SkewRampConfig::tiny(11));
        let b = generate_skew_ramp(&SkewRampConfig::tiny(11));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let mut last = 0u64;
        for t in &a {
            assert_eq!(t.arity(), 9);
            let time = t.get(0).as_u64().unwrap();
            assert!(time >= last);
            last = time;
        }
    }

    #[test]
    fn skew_ramp_concentrates_traffic_on_hot_set() {
        let cfg = SkewRampConfig {
            hot_fraction: 0.8,
            ..SkewRampConfig::tiny(12)
        };
        let trace = generate_skew_ramp(&cfg);
        let mut counts = std::collections::HashMap::new();
        for t in &trace {
            *counts.entry(t.get(2).as_u64().unwrap()).or_insert(0u64) += 1;
        }
        let total: u64 = counts.values().sum();
        let mut by_count: Vec<u64> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        // Hot keys are re-drawn per phase (3 epochs × drift 1 → up to
        // 3×4 hot hosts); the heaviest dozen sources must dominate.
        let heavy: u64 = by_count.iter().take(12).sum();
        assert!(
            heavy as f64 > 0.5 * total as f64,
            "hot set carries {heavy}/{total}"
        );
    }

    #[test]
    fn skew_ramp_hot_set_drifts_across_phases() {
        let cfg = SkewRampConfig {
            base: TraceConfig {
                epochs: 4,
                ..TraceConfig::tiny(13)
            },
            drift_period: 2,
            ..SkewRampConfig::tiny(13)
        };
        let trace = generate_skew_ramp(&cfg);
        let phase_len = 2 * cfg.base.epoch_secs;
        let top_sources = |phase: u64| {
            let mut counts = std::collections::HashMap::new();
            for t in &trace {
                let time = t.get(0).as_u64().unwrap();
                if time / phase_len == phase {
                    *counts.entry(t.get(2).as_u64().unwrap()).or_insert(0u64) += 1;
                }
            }
            let mut v: Vec<(u64, u64)> = counts.into_iter().collect();
            v.sort_unstable_by_key(|&(_, n)| std::cmp::Reverse(n));
            v.into_iter()
                .take(4)
                .map(|(h, _)| h)
                .collect::<std::collections::HashSet<_>>()
        };
        let p0 = top_sources(0);
        let p1 = top_sources(1);
        assert!(
            p0.intersection(&p1).count() < p0.len(),
            "hot set must change between phases: {p0:?} vs {p1:?}"
        );
    }

    #[test]
    fn skew_ramp_honors_explicit_hot_hosts() {
        let cfg = SkewRampConfig {
            hot_hosts: Some(vec![vec![77_777, 88_888], vec![99_999]]),
            hot_fraction: 1.0,
            base: TraceConfig {
                epochs: 2,
                ..TraceConfig::tiny(14)
            },
            drift_period: 1,
            ..SkewRampConfig::tiny(14)
        };
        let trace = generate_skew_ramp(&cfg);
        for t in &trace {
            let time = t.get(0).as_u64().unwrap();
            let src = t.get(2).as_u64().unwrap();
            if time < cfg.base.epoch_secs {
                assert!(src == 77_777 || src == 88_888, "phase0 src {src}");
            } else {
                assert_eq!(src, 99_999, "phase1 src {src}");
            }
        }
    }

    #[test]
    fn heavy_tail_produces_large_flows() {
        let cfg = TraceConfig {
            flows_per_epoch: 3000,
            ..TraceConfig::tiny(6)
        };
        let trace = generate(&cfg);
        let mut per_flow: std::collections::HashMap<(u64, u64, u64, u64), u64> =
            std::collections::HashMap::new();
        for t in &trace {
            let key = (
                t.get(2).as_u64().unwrap(),
                t.get(3).as_u64().unwrap(),
                t.get(4).as_u64().unwrap(),
                t.get(5).as_u64().unwrap(),
            );
            *per_flow.entry(key).or_insert(0) += 1;
        }
        let max = *per_flow.values().max().unwrap();
        assert!(
            max >= 20,
            "heavy tail should yield some large flows, max={max}"
        );
    }
}
