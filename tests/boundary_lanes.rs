//! The leaf → aggregator boundary stays on lanes, and nobody downstream
//! can tell: every frame a leaf unit ships is byte for byte the frame
//! the row-staged boundary shipped — the producer's output as rows, cut
//! positionally into `frame_batch`-row chunks, each chunk pushed row by
//! row into a fresh batch and encoded.
//!
//! The frames are read off the wire. Each leaf host is an in-process
//! [`serve_host`] behind a tap: a loopback proxy that forwards control
//! frames both ways and keeps a copy of every boundary `Data` frame the
//! host sends. Each producer's frames are pinned by a checksum over
//! their bytes, generated while a row-fed run of the same deployment
//! still served as the oracle — rows decoded from row frames, no lane
//! involved — and every frame matched it byte for byte.

use std::collections::BTreeMap;
use std::sync::Mutex;

use qap::cluster::link::{read_control, write_control, DuplexStream};
use qap::prelude::*;
use qap::types::{Bytes, BytesMut, ControlFrame};

/// Rows per boundary frame: small enough that the edges of the tiny
/// trace ship several full frames and a partial tail.
const FRAME_BATCH: usize = 7;

/// Every boundary frame of one run, in shipping order, by producer.
type Frames = BTreeMap<u32, Vec<Bytes>>;

fn loopback() -> HostListener {
    HostListener::bind(&HostAddr::Tcp("127.0.0.1:0".into())).expect("bind loopback")
}

/// Forwards control frames from `from` to `to` until either side ends,
/// handing each to `see` first.
fn forward(mut from: DuplexStream, mut to: DuplexStream, mut see: impl FnMut(&ControlFrame)) {
    let mut scratch = BytesMut::new();
    while let Ok(Some(frame)) = read_control(&mut from) {
        see(&frame);
        if write_control(&mut to, &frame, &mut scratch).is_err() {
            break;
        }
    }
}

/// Runs the plan over sockets with every leaf host behind a tap;
/// returns the result and the boundary frames the hosts shipped.
fn tapped_run(plan: &DistributedPlan, trace: &[Tuple], cfg: &SimConfig) -> (SimResult, Frames) {
    let n = remote_host_count(plan, cfg);
    let hosts: Vec<HostListener> = (0..n).map(|_| loopback()).collect();
    let taps: Vec<HostListener> = (0..n).map(|_| loopback()).collect();
    let tap_addrs: Vec<HostAddr> = taps.iter().map(|t| t.local_addr().unwrap()).collect();
    let frames = Mutex::new(Frames::new());
    let result = std::thread::scope(|scope| {
        for (host, tap) in hosts.iter().zip(&taps) {
            scope.spawn(move || serve_host(host, &HostServerConfig { once: true }));
            let frames = &frames;
            scope.spawn(move || {
                let down = tap.accept().expect("coordinator connects to the tap");
                let up = connect_with_backoff(&host.local_addr().unwrap(), 5_000)
                    .expect("tap connects to the host");
                let (down_w, up_w) = (down.try_clone().unwrap(), up.try_clone().unwrap());
                std::thread::scope(|pair| {
                    // The host ends its session after `Result`; the
                    // coordinator hangs up once it has read that.
                    pair.spawn(|| {
                        forward(up, down_w, |frame| {
                            if let ControlFrame::Data { producer, frame } = frame {
                                let mut frames = frames.lock().unwrap();
                                frames.entry(*producer).or_default().push(frame.clone());
                            }
                        })
                    });
                    forward(down, up_w.try_clone().unwrap(), |_| {});
                    up_w.shutdown();
                });
            });
        }
        run_distributed_remote(plan, trace, cfg, &tap_addrs)
    });
    (result.expect("tapped run"), frames.into_inner().unwrap())
}

/// 64-bit FNV-1a over the concatenated bytes of `frames`.
fn fnv1a(frames: &[Bytes]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in frames.iter().flat_map(|f| f.iter()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by(|a, b| {
        for (x, y) in a.values().iter().zip(b.values()) {
            let ord = x.total_cmp(y);
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

fn cfg() -> SimConfig {
    SimConfig {
        transport: TransportConfig::new(64, FRAME_BATCH),
        ..SimConfig::default()
    }
}

/// The tiny trace overlaid with its own echo one epoch later, so every
/// flow also exists in the following epoch and the self-joins have
/// pairs to emit (generated flows do not outlive their epoch).
fn with_echo(mut trace: Vec<Tuple>) -> Vec<Tuple> {
    let echo: Vec<Tuple> = trace
        .iter()
        .map(|t| {
            let mut vals = t.values().to_vec();
            vals[0] = Value::UInt(vals[0].as_u64().unwrap() + 60);
            vals[1] = Value::UInt(vals[1].as_u64().unwrap() + 60_000_000);
            Tuple::new(vals)
        })
        .collect();
    trace.extend(echo);
    trace.sort_by_key(|t| t.get(1).as_u64());
    trace
}

/// One edge's `(producer, frames, tuples, payload bytes)`.
type Edge = (usize, u64, u64, u64);

fn edge_counts(result: &SimResult) -> Vec<Edge> {
    let edges = &result.metrics.transport.edges;
    edges
        .iter()
        .map(|e| (e.producer, e.frames, e.tuples, e.bytes))
        .collect()
}

/// One deployment on one trace: each producer's tapped frames against
/// `frame_sums` (the FNV-1a checksum of their concatenated bytes), and
/// both runners' per-edge counts against `pinned` — both generated
/// while the frames were still checked against the row-staged oracle.
/// The edges are the ones that ship: the leaf hosts' boundary
/// producers (the aggregator host's own stay inside the central unit).
fn check(
    label: &str,
    scenario: Scenario,
    config: &str,
    trace: &[Tuple],
    pinned: &[Edge],
    frame_sums: &[(u32, u64)],
) {
    let plan = scenario.plan(config, 3);
    let reference = run_distributed(&plan, trace, &cfg()).unwrap();

    let (run, frames) = tapped_run(&plan, trace, &cfg());
    assert!(run.failures.is_empty(), "{label}");
    for ((name, rows), (ref_name, ref_rows)) in run.outputs.iter().zip(&reference.outputs) {
        assert_eq!(name, ref_name, "{label}");
        assert_eq!(
            sorted(rows.clone()),
            sorted(ref_rows.clone()),
            "{label}: {name}"
        );
    }
    let sums: Vec<(u32, u64)> = frames.iter().map(|(p, f)| (*p, fnv1a(f))).collect();
    assert_eq!(sums, frame_sums, "{label}: frame checksums");

    assert_eq!(edge_counts(&run), pinned, "{label}: socket runner edges");
    let threaded = run_distributed_threaded(&plan, trace, &cfg()).unwrap();
    assert_eq!(edge_counts(&threaded), pinned, "{label}: threaded edges");
}

#[test]
fn simple_agg_naive_frames_are_the_row_staged_frames() {
    let trace = generate(&TraceConfig::tiny(31));
    let pinned = [
        (8, 19, 132, 8790),
        (9, 18, 120, 8004),
        (10, 20, 140, 9320),
        (11, 18, 124, 8260),
    ];
    let sums = [
        (8, 0x0a8d_5580_401c_5086),
        (9, 0x17e2_e5c8_8d2b_cbf0),
        (10, 0x5e72_2b61_957d_117b),
        (11, 0x981b_b7dd_2c57_062a),
    ];
    check(
        "6.1 Naive",
        Scenario::SimpleAgg,
        "Naive",
        &trace,
        &pinned,
        &sums,
    );
}

#[test]
fn simple_agg_partitioned_frames_are_the_row_staged_frames() {
    let trace = generate(&TraceConfig::tiny(31));
    let pinned = [
        (8, 1, 3, 210),
        (9, 1, 5, 338),
        (10, 1, 3, 210),
        (11, 1, 3, 210),
    ];
    let sums = [
        (8, 0xf87a_f81d_8cf1_5d33),
        (9, 0x9f0f_457b_2a84_dd7d),
        (10, 0x37d6_b87d_5869_4e0b),
        (11, 0x8859_219a_a178_ab4a),
    ];
    check(
        "6.1 Partitioned",
        Scenario::SimpleAgg,
        "Partitioned",
        &trace,
        &pinned,
        &sums,
    );
}

#[test]
fn query_set_optimal_frames_are_the_row_staged_frames() {
    let trace = generate(&TraceConfig::tiny(37));
    let config = "Partitioned (optimal)";
    // Producers 20–23 are the leaf hosts' share of the pushed-down
    // self-join: nothing to emit until the echo gives flows a second
    // epoch.
    let pinned = [
        (8, 3, 15, 636),
        (9, 2, 14, 584),
        (10, 3, 16, 676),
        (11, 3, 21, 876),
        (20, 0, 0, 0),
        (21, 0, 0, 0),
        (22, 0, 0, 0),
        (23, 0, 0, 0),
    ];
    let sums = [
        (8, 0xd860_0f57_63e4_61a8),
        (9, 0xc5bf_a26f_c2a1_b07d),
        (10, 0x579a_813b_2c11_b68b),
        (11, 0x9abd_a011_dee5_8874),
    ];
    check(
        "6.2 optimal",
        Scenario::QuerySet,
        config,
        &trace,
        &pinned,
        &sums,
    );
    let pinned = [
        (8, 4, 26, 1088),
        (9, 4, 23, 968),
        (10, 4, 28, 1168),
        (11, 5, 33, 1380),
        (20, 4, 26, 1304),
        (21, 3, 20, 1002),
        (22, 4, 23, 1160),
        (23, 9, 59, 2958),
    ];
    // The self-join's `delay` (`S2.first_ts - S1.first_ts`) is an `int`
    // lane, so producers 20–23 ship lane tag 2 where the row-staged
    // oracle's frames, which typed it by value, had tag 1; re-encoding
    // that lane as `uint` gives the oracle's checksums back.
    let sums = [
        (8, 0x2c6f_b9bd_88db_4c44),
        (9, 0x0aeb_1d57_4611_e8cf),
        (10, 0x7c35_97d1_0c0c_1792),
        (11, 0x638a_18af_4daf_b9e2),
        (20, 0x6c55_a8c4_d396_437c),
        (21, 0xebbb_a0db_09b8_4b83),
        (22, 0x950f_ab23_e2f1_51a7),
        (23, 0x72ff_f456_0601_9a31),
    ];
    check(
        "6.2 optimal, echo",
        Scenario::QuerySet,
        config,
        &with_echo(trace),
        &pinned,
        &sums,
    );
}

#[test]
fn complex_full_frames_are_the_row_staged_frames() {
    let trace = generate(&TraceConfig::tiny(41));
    let config = "Partitioned (full)";
    let pinned = [
        (20, 1, 4, 138),
        (21, 2, 8, 276),
        (22, 1, 5, 170),
        (23, 1, 7, 234),
    ];
    let sums = [
        (20, 0xab00_e842_d7d3_c6d3),
        (21, 0x897f_5d37_1052_18d3),
        (22, 0xa565_910a_b354_50fb),
        (23, 0x5fc7_5a6b_beb8_e2b7),
    ];
    check(
        "6.3 full",
        Scenario::Complex,
        config,
        &trace,
        &pinned,
        &sums,
    );
    let pinned = [
        (20, 2, 11, 372),
        (21, 3, 21, 702),
        (22, 3, 15, 510),
        (23, 4, 22, 744),
    ];
    let sums = [
        (20, 0x19a8_b453_e0d8_f2b4),
        (21, 0x2e02_1f5d_29b2_03fc),
        (22, 0x7dfe_5825_5b7a_26f4),
        (23, 0x22cb_a72b_d857_76c4),
    ];
    check(
        "6.3 full, echo",
        Scenario::Complex,
        config,
        &with_echo(trace),
        &pinned,
        &sums,
    );
}
