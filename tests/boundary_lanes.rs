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
//! involved — and every frame matched it byte for byte. Packed `uint`
//! and `int` lanes re-pinned the checksums and the per-edge bytes:
//! every tapped frame, decoded and re-encoded with 8 bytes per integer
//! as before, gave the earlier checksums back, and frames and tuples
//! per edge did not move.

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
        (8, 19, 132, 3134),
        (9, 18, 120, 2916),
        (10, 20, 140, 3326),
        (11, 18, 124, 2965),
    ];
    let sums = [
        (8, 0x465a_1561_8f0f_b310),
        (9, 0x1db6_2377_12b3_f3b0),
        (10, 0x7462_86e3_c9c8_25ea),
        (11, 0xaabb_e693_f32d_51e7),
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
        (8, 1, 3, 123),
        (9, 1, 5, 145),
        (10, 1, 3, 120),
        (11, 1, 3, 123),
    ];
    let sums = [
        (8, 0x2842_94db_f66e_e79d),
        (9, 0x2611_1e16_ad57_cdf8),
        (10, 0x43f0_e3cf_5a8b_e2f5),
        (11, 0x8c05_533a_35f4_373a),
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
        (8, 3, 15, 260),
        (9, 2, 14, 198),
        (10, 3, 16, 267),
        (11, 3, 21, 297),
        (20, 0, 0, 0),
        (21, 0, 0, 0),
        (22, 0, 0, 0),
        (23, 0, 0, 0),
    ];
    let sums = [
        (8, 0xd3f2_b406_3804_adb5),
        (9, 0x5cfa_c2a7_93f9_dcff),
        (10, 0x7ea1_1615_6b14_66a1),
        (11, 0x5790_53d6_b903_184d),
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
        (8, 4, 26, 384),
        (9, 4, 23, 366),
        (10, 4, 28, 396),
        (11, 5, 33, 483),
        (20, 4, 26, 468),
        (21, 3, 20, 357),
        (22, 4, 23, 449),
        (23, 9, 59, 1063),
    ];
    // The self-join's `delay` (`S2.first_ts - S1.first_ts`) is an `int`
    // lane, so producers 20–23 ship lane tag 2 where the row-staged
    // oracle's frames, which typed it by value, had tag 1; re-encoding
    // that lane as `uint` gives the oracle's checksums back.
    let sums = [
        (8, 0x2ef2_718d_ce2b_6816),
        (9, 0xf1ca_18ac_86aa_0b58),
        (10, 0x645a_8dd0_7326_a67e),
        (11, 0xd7ea_e4cf_a736_f4bc),
        (20, 0xb283_deff_2980_86df),
        (21, 0x666d_d4d2_4613_27c9),
        (22, 0x3aa1_6c02_94ec_57c6),
        (23, 0x00d8_d5fe_264f_7e7c),
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
        (20, 1, 4, 62),
        (21, 2, 8, 124),
        (22, 1, 5, 66),
        (23, 1, 7, 74),
    ];
    let sums = [
        (20, 0xb515_8c11_9a3c_9067),
        (21, 0x8a85_785e_a794_3bf5),
        (22, 0x716e_7c2b_b827_beeb),
        (23, 0x190d_4993_3974_02bd),
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
        (20, 2, 11, 136),
        (21, 3, 21, 222),
        (22, 3, 15, 198),
        (23, 4, 22, 272),
    ];
    let sums = [
        (20, 0xe500_5676_b785_a5ce),
        (21, 0xb0b7_fe6a_651d_80f6),
        (22, 0x3e3b_7509_9800_9ada),
        (23, 0xeb77_ca46_546d_818e),
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
