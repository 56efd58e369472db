//! The payloads of process-level deployment: what a host is sent to
//! run, the migration commands it is sent mid-run, and what it sends
//! back.
//!
//! A `Deploy` payload ([`qap_types::ControlFrame::Deploy`]) does not
//! carry the host's execution unit. It carries the inputs the
//! coordinator planned from ([`DeployInputs`]): the catalog as `STREAM`
//! statements, the query set's GSQL, the partitioning, the optimizer
//! and run knobs, which leaf unit to run, and a fingerprint of the
//! coordinator's plan. The host plans again, slices the plan with the
//! same decomposition, and runs its unit only if its plan has the same
//! fingerprint ([`crate::serve_host`]). Planning is deterministic, so
//! the IR has one definition — its GSQL surface — and no second one
//! here. The [`UnitCmd`](crate::unit::UnitCmd) halves of a
//! drain-and-handoff travel inside [`qap_types::ControlFrame::Migrate`],
//! and the [`UnitReply`](crate::unit::UnitReply) inside `MigrateAck`:
//! per node, the extracted state rows and each row's partition under
//! the new table, which tells the coordinator where the row goes. The
//! [`UnitOutcome`](crate::unit::UnitOutcome) the host streams back
//! travels inside [`qap_types::ControlFrame::Result`]. State and
//! outputs are lanes throughout, each batch one lane frame of the
//! hardened boundary codec; its round trip is exact for every value
//! kind.
//!
//! Every payload is a [`Wire`] type of [`qap_types::codec`], encoded
//! beside its type: this module holds [`DeployInputs`]'s, and the
//! records it nests carry theirs. The workspace has no serialization
//! library; the codec's reader surfaces typed [`TypeError`]s for
//! truncation, bad tags and length disagreements — a corrupt deployment
//! never panics a host process.

use qap_optimizer::{
    DistributedPlan, OptimizerConfig, PartialAggScope, Partitioning, PlanSource, SplitStrategy,
};
use qap_partition::{fnv1a_hash, AnalysisOptions, PartitionSet};
use qap_types::{Reader, TypeError, TypeResult, Wire, Writer};

use crate::transport::FaultPlan;

/// What a `Deploy` payload carries: the inputs the coordinator planned
/// from, and which of the plan's leaf units the host runs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DeployInputs {
    /// The plan's base streams ([`qap_types::Catalog::stream_defs`]).
    pub(crate) catalog: String,
    /// The query set's GSQL and the optimizer knobs.
    pub(crate) source: PlanSource,
    /// The deployed partitioning; a hash set travels as the GSQL of its
    /// items.
    pub(crate) partitioning: Partitioning,
    /// Index of the host's leaf unit in the deployment (≥ 1).
    pub(crate) unit: u32,
    /// The run knobs a leaf unit sees: engine batch size, tuples per
    /// boundary frame and the fault plan.
    pub(crate) max_batch: u32,
    pub(crate) frame_batch: u32,
    pub(crate) fault: FaultPlan,
    /// [`plan_fingerprint`] of the coordinator's plan.
    pub(crate) fingerprint: u64,
}

/// FNV-1a over the plan's full rendering ([`DistributedPlan::render`]):
/// equal on two processes exactly when they planned the same thing.
pub(crate) fn plan_fingerprint(plan: &DistributedPlan) -> u64 {
    fnv1a_hash(plan.render().bytes().map(u64::from))
}

/// A hash partitioning set from its items' GSQL: the items of
/// `PartitionSet::exprs`, each as its `render()`.
pub(crate) fn parse_set(items: &[String]) -> TypeResult<PartitionSet> {
    let exprs = items
        .iter()
        .map(|item| qap_sql::parse_expression(item))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| TypeError::Corrupt("partitioning set item is not a GSQL expression"))?;
    Ok(PartitionSet::from_exprs(&exprs))
}

/// The catalog and the GSQL, the four optimizer flags, the hash set's
/// items (none under round-robin), the partition, host and aggregator
/// counts, the unit and its knobs as `u32`s, the fault plan and the
/// fingerprint.
impl Wire for DeployInputs {
    const MIN_LEN: usize = 2 * 4 + 4 + 1 + 6 * 4 + FaultPlan::MIN_LEN + 8;
    fn put(&self, w: &mut Writer) {
        self.catalog.put(w);
        self.source.gsql.put(w);
        let o = &self.source.config;
        w.bool(o.agnostic);
        w.bool(o.partial_aggregation);
        w.bool(o.partial_agg_scope == PartialAggScope::PerHost);
        w.bool(o.analysis.strict_join_compatibility);
        let p = &self.partitioning;
        let set = match &p.strategy {
            SplitStrategy::RoundRobin => None,
            SplitStrategy::Hash(set) => Some(set.exprs().iter().map(|e| e.render()).collect()),
        };
        Option::<Vec<String>>::put(&set, w);
        for n in [p.partitions, p.hosts, p.aggregator_host] {
            w.count(n);
        }
        for n in [self.unit, self.max_batch, self.frame_batch] {
            w.u32(n);
        }
        self.fault.put(w);
        w.u64(self.fingerprint);
    }
    fn get(r: &mut Reader) -> TypeResult<Self> {
        let catalog = String::get(r)?;
        let gsql = String::get(r)?;
        let config = OptimizerConfig {
            agnostic: r.bool()?,
            partial_aggregation: r.bool()?,
            partial_agg_scope: match r.bool()? {
                true => PartialAggScope::PerHost,
                false => PartialAggScope::PerPartition,
            },
            analysis: AnalysisOptions {
                strict_join_compatibility: r.bool()?,
            },
        };
        let strategy = match Option::<Vec<String>>::get(r)? {
            None => SplitStrategy::RoundRobin,
            Some(items) => SplitStrategy::Hash(parse_set(&items)?),
        };
        Ok(DeployInputs {
            catalog,
            source: PlanSource { gsql, config },
            partitioning: Partitioning {
                strategy,
                partitions: r.u32()? as usize,
                hosts: r.u32()? as usize,
                aggregator_host: r.u32()? as usize,
            },
            unit: r.u32()?,
            max_batch: r.u32()?,
            frame_batch: r.u32()?,
            fault: FaultPlan::get(r)?,
            fingerprint: r.u64()?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qap_exec::{OpCounters, OpMetrics};
    use qap_expr::{BinOp, ScalarExpr};
    use qap_obs::Histogram;
    use qap_types::{Bytes, ColumnBatch, ControlFrame, Tuple, Value};

    use crate::experiments::Scenario;
    use crate::sim::tests::rows_of;
    use crate::transport::EdgeTransport;
    use crate::unit::{UnitCmd, UnitOutcome, UnitReply};

    /// The inputs of leaf unit 2 of the §6.2 optimal deployment.
    fn sample_deploy() -> DeployInputs {
        let plan = Scenario::QuerySet.plan("Partitioned (optimal)", 3);
        DeployInputs {
            catalog: plan.dag.catalog().stream_defs(),
            source: plan.source.clone().unwrap(),
            partitioning: plan.partitioning.clone(),
            unit: 2,
            max_batch: 512,
            frame_batch: 128,
            fault: FaultPlan::seeded(11).corrupt_every(3).slow(1, 40),
            fingerprint: plan_fingerprint(&plan),
        }
    }

    #[test]
    fn remote_unit_round_trips() {
        let round_robin = DeployInputs {
            partitioning: Partitioning::round_robin(4),
            ..sample_deploy()
        };
        for inputs in [sample_deploy(), round_robin] {
            assert_eq!(
                DeployInputs::decode(inputs.encode().unwrap()).unwrap(),
                inputs
            );
        }
    }

    #[test]
    fn truncated_unit_is_typed_error() {
        let bytes = sample_deploy().encode().unwrap();
        for cut in 0..bytes.len() {
            let err = DeployInputs::decode(bytes.slice(..cut));
            assert!(err.is_err(), "cut {cut} decoded");
        }
        let mut longer = bytes.to_vec();
        longer.push(0);
        assert!(DeployInputs::decode(Bytes::from(longer)).is_err());
    }

    /// Every §6 hash set, plus a `Div`, a `Mask` and an `Opaque` item,
    /// is the same set after its items go through GSQL text.
    #[test]
    fn partition_sets_survive_their_gsql() {
        let mut sets = Vec::new();
        for scenario in [Scenario::SimpleAgg, Scenario::QuerySet, Scenario::Complex] {
            for &config in scenario.configs() {
                if let SplitStrategy::Hash(set) = scenario.deployment(config, 3).0.strategy {
                    sets.push(set);
                }
            }
        }
        assert_eq!(sets.len(), 5);
        sets.push(PartitionSet::from_exprs([
            &ScalarExpr::col("time").div(60),
            &ScalarExpr::qcol("TCP", "srcIP").mask(0xFF00),
            &ScalarExpr::col("destPort").binary(BinOp::Add, ScalarExpr::lit(1u64)),
        ]));
        for set in sets {
            let items: Vec<String> = set.exprs().iter().map(|e| e.render()).collect();
            assert_eq!(parse_set(&items).unwrap(), set, "{items:?}");
        }
    }

    fn sample_outcome() -> UnitOutcome {
        let mut h = Histogram::new();
        h.record(3);
        h.record(900);
        let metrics = OpMetrics {
            tuples_in: 10,
            tuples_out: 4,
            bytes_in: 210,
            bytes_out: 84,
            batches_in: 2,
            batches_out: 1,
            late_dropped: 1,
            batch_occupancy: h,
            kernel_hits: 5,
            kernel_fallbacks: 1,
            kernel_lane_hits: [5, 0, 1, 2],
            flushes: 2,
            flush_ns: 12_345,
            group_slots: 16,
            group_probes: 20,
            group_inserts: 8,
        };
        UnitOutcome {
            counters: vec![
                OpCounters {
                    tuples_in: 10,
                    tuples_out: 4,
                    late_dropped: 1,
                },
                OpCounters::default(),
            ],
            node_metrics: vec![metrics, OpMetrics::default()],
            outputs: vec![
                (
                    0,
                    lanes(&[Tuple::new(vec![Value::UInt(1), Value::Str("a".into())])]),
                ),
                (1, lanes(&every_lane_kind())),
                (2, ColumnBatch::new(3)),
            ],
            edges: vec![EdgeTransport {
                producer: 9,
                from_host: 3,
                frames: 4,
                tuples: 400,
                bytes: 3_600,
                retries: 2,
            }],
            stalls: 1,
            dropped: 0,
        }
    }

    #[test]
    fn unit_outcome_round_trips() {
        let outcome = sample_outcome();
        let bytes = outcome.encode().unwrap();
        let decoded = UnitOutcome::decode(bytes).unwrap();
        assert_eq!(decoded.counters, outcome.counters);
        assert_eq!(decoded.node_metrics, outcome.node_metrics);
        assert_eq!(rows_of(&decoded.outputs), rows_of(&outcome.outputs));
        assert_eq!(decoded.edges, outcome.edges);
        assert_eq!(
            (decoded.stalls, decoded.dropped),
            (outcome.stalls, outcome.dropped)
        );
    }

    fn lanes(rows: &[Tuple]) -> ColumnBatch {
        ColumnBatch::from_rows(rows)
    }

    /// A migrate command with its state as rows, for comparison.
    fn cmd_rows(cmd: &UnitCmd) -> String {
        match cmd {
            UnitCmd::Absorb(batches) => format!("Absorb({:?})", rows_of(batches)),
            other => format!("{other:?}"),
        }
    }

    /// Rows whose columns land on every lane a frame carries: `UInt`,
    /// negative `Int`, `Bool`, `Str`, all-NULL, and a nullable `UInt`.
    fn every_lane_kind() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![
                Value::UInt(u64::MAX),
                Value::Int(-7),
                Value::Bool(true),
                Value::from("tcp"),
                Value::Null,
                Value::UInt(3),
            ]),
            Tuple::new(vec![
                Value::UInt(0),
                Value::Int(i64::MIN),
                Value::Bool(false),
                Value::from(""),
                Value::Null,
                Value::Null,
            ]),
        ]
    }

    fn sample_migrate_cmds() -> Vec<UnitCmd> {
        vec![
            UnitCmd::Extract {
                boundary: 1_234_567,
                partitions: 8,
                assignment: (0..64).map(|b| b / 8).collect(),
                jobs: vec![(3, vec![2, 3]), (9, vec![6, 7])],
            },
            UnitCmd::Absorb(vec![
                (
                    3,
                    lanes(&[Tuple::new(vec![
                        Value::UInt(60),
                        Value::UInt(0xDEAD),
                        Value::Int(7),
                    ])]),
                ),
                (9, ColumnBatch::new(3)),
                (12, lanes(&every_lane_kind())),
            ]),
            UnitCmd::Absorb(Vec::new()),
        ]
    }

    #[test]
    fn migrate_cmd_round_trips() {
        for cmd in sample_migrate_cmds() {
            let bytes = cmd.encode().unwrap();
            let decoded = UnitCmd::decode(bytes).unwrap();
            assert_eq!(cmd_rows(&decoded), cmd_rows(&cmd));
        }
    }

    #[test]
    fn truncated_migrate_cmd_is_typed_error() {
        for cmd in sample_migrate_cmds() {
            let bytes = cmd.encode().unwrap();
            for cut in 0..bytes.len() {
                assert!(
                    UnitCmd::decode(bytes.slice(..cut)).is_err(),
                    "{cmd:?} cut {cut} decoded"
                );
            }
            let mut longer = bytes.to_vec();
            longer.push(0);
            assert!(UnitCmd::decode(Bytes::from(longer)).is_err());
        }
        assert!(UnitCmd::decode(Bytes::from(vec![9u8])).is_err(), "bad tag");
    }

    #[test]
    fn migrate_reply_round_trips() {
        let reply = vec![
            (
                4,
                lanes(&[
                    Tuple::new(vec![Value::UInt(1), Value::Str("k".into())]),
                    Tuple::new(vec![Value::UInt(2), Value::Null]),
                ]),
                vec![5, 0],
            ),
            (11, ColumnBatch::new(2), Vec::new()),
        ];
        let rows = |r: &UnitReply| -> Vec<_> {
            r.iter()
                .map(|(n, b, p)| (*n, b.to_rows(), p.clone()))
                .collect()
        };
        let bytes = reply.encode().unwrap();
        assert_eq!(
            rows(&UnitReply::decode(bytes.clone()).unwrap()),
            rows(&reply)
        );
        for cut in 0..bytes.len() {
            assert!(UnitReply::decode(bytes.slice(..cut)).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn truncated_outcome_is_typed_error() {
        let outcome = UnitOutcome {
            counters: vec![OpCounters::default()],
            node_metrics: vec![OpMetrics::default()],
            outputs: vec![(0, lanes(&[Tuple::new(vec![Value::UInt(7)])]))],
            edges: Vec::new(),
            stalls: 0,
            dropped: 0,
        };
        let bytes = outcome.encode().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                UnitOutcome::decode(bytes.slice(..cut)).is_err(),
                "cut {cut}"
            );
        }
    }

    /// Every damaged variant of each valid payload under the two
    /// mutators `property_based`'s `mutate_frame` has for sizes and
    /// frame boundaries, applied exhaustively: each `u32` word inflated
    /// by the payload's length, or set to the number of bytes after it
    /// (the largest count a bound of one byte per element admits), and
    /// the payload's head spliced onto the tail of another valid payload
    /// at every cut.
    fn inflated_and_spliced(bytes: &[u8], other: &[u8]) -> Vec<Bytes> {
        let mut out = Vec::new();
        for at in 0..bytes.len().saturating_sub(3) {
            let word = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap());
            let rest = (bytes.len() - at - 4) as u32;
            for inflated in [word.saturating_add(bytes.len() as u32), rest] {
                let mut b = bytes.to_vec();
                b[at..at + 4].copy_from_slice(&inflated.to_be_bytes());
                out.push(Bytes::from(b));
            }
        }
        for cut in 0..=bytes.len() {
            let mut b = bytes[..cut].to_vec();
            b.extend_from_slice(&other[cut.min(other.len())..]);
            out.push(Bytes::from(b));
        }
        out
    }

    /// Counts the bytes the calling thread allocates while a count is
    /// open ([`allocated_by`]), so a test can bound one decode's
    /// allocations by its payload's length; the harness runs tests on
    /// parallel threads, and only the counting thread's count.
    struct CountingAlloc;

    thread_local! {
        static COUNTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        static ALLOCATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn charge(bytes: usize) {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                ALLOCATED.with(|a| a.set(a.get() + bytes));
            }
        });
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // so `System`'s guarantees are this allocator's. Counting reads and
    // writes two const-initialized thread-local `Cell`s, which neither
    // allocate nor re-enter the allocator.
    unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            charge(layout.size());
            std::alloc::System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
            charge(layout.size());
            std::alloc::System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, size: usize) -> *mut u8 {
            charge(size.saturating_sub(layout.size()));
            std::alloc::System.realloc(ptr, layout, size)
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    /// Runs `f` and returns its result with the bytes it allocated on
    /// this thread (a `realloc` counts its growth).
    pub(crate) fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        ALLOCATED.with(|a| a.set(0));
        COUNTING.with(|on| on.set(true));
        let out = f();
        COUNTING.with(|on| on.set(false));
        (out, ALLOCATED.with(std::cell::Cell::get))
    }

    /// Holds a decoder to totality on [`inflated_and_spliced`] payloads
    /// of every pair of `valid` ones: each decode returns a typed error
    /// or a value the codec round-trips (an inflated word that holds a
    /// value, not a size, decodes to a different well-formed value),
    /// and none panics or allocates more than the lane decoders may
    /// (`property_based`'s bound): 10 bytes per payload byte and 1 KiB.
    fn assert_total<T: Wire>(valid: &[T]) {
        let valid: Vec<Bytes> = valid.iter().map(|v| v.encode().unwrap()).collect();
        for a in &valid {
            for b in &valid {
                for damaged in inflated_and_spliced(a, b) {
                    let len = damaged.len();
                    let (decoded, allocated) = allocated_by(|| T::decode(damaged));
                    assert!(
                        allocated <= 10 * len + 1024,
                        "decoding {len} bytes allocated {allocated} bytes"
                    );
                    if let Ok(v) = decoded {
                        let canon = v.encode().unwrap();
                        assert_eq!(T::decode(canon.clone()).unwrap().encode().unwrap(), canon);
                    }
                }
            }
        }
    }

    fn empty_outcome() -> UnitOutcome {
        UnitOutcome {
            counters: Vec::new(),
            node_metrics: Vec::new(),
            outputs: Vec::new(),
            edges: Vec::new(),
            stalls: 0,
            dropped: 0,
        }
    }

    fn sample_replies() -> Vec<UnitReply> {
        vec![
            vec![(4, lanes(&every_lane_kind()), vec![5, 0])],
            vec![
                (
                    4,
                    lanes(&[
                        Tuple::new(vec![Value::UInt(1), Value::Str("k".into())]),
                        Tuple::new(vec![Value::UInt(2), Value::Null]),
                    ]),
                    vec![5, 0],
                ),
                (11, ColumnBatch::new(2), Vec::new()),
            ],
            Vec::new(),
        ]
    }

    /// The one-output outcome `truncated_outcome_is_typed_error` cuts.
    fn one_output_outcome() -> UnitOutcome {
        UnitOutcome {
            counters: vec![OpCounters::default()],
            node_metrics: vec![OpMetrics::default()],
            outputs: vec![(0, lanes(&[Tuple::new(vec![Value::UInt(7)])]))],
            ..empty_outcome()
        }
    }

    /// `control.rs`'s samples: every variant, empty payloads included.
    fn sample_controls() -> Vec<ControlFrame> {
        use qap_types::{ERROR_EXEC, ERROR_VERSION, PROTOCOL_VERSION};
        vec![
            ControlFrame::Hello {
                version: PROTOCOL_VERSION,
                host: 3,
            },
            ControlFrame::Welcome {
                version: PROTOCOL_VERSION,
            },
            ControlFrame::Deploy(Bytes::from(b"unit-bytes".to_vec())),
            ControlFrame::Deploy(Bytes::new()),
            ControlFrame::DeployAck,
            ControlFrame::Data {
                producer: 42,
                frame: Bytes::from(vec![0u8; 8]),
            },
            ControlFrame::Data {
                producer: 0,
                frame: Bytes::new(),
            },
            ControlFrame::Eos,
            ControlFrame::Result(Bytes::from(b"outcome".to_vec())),
            ControlFrame::Error {
                kind: ERROR_VERSION,
                message: "version 1 != 2".into(),
            },
            ControlFrame::Error {
                kind: ERROR_EXEC,
                message: String::new(),
            },
            ControlFrame::Migrate(Bytes::from(b"drain-command".to_vec())),
            ControlFrame::Migrate(Bytes::new()),
            ControlFrame::MigrateAck(Bytes::from(b"state-rows".to_vec())),
            ControlFrame::MigrateAck(Bytes::new()),
        ]
    }

    /// Every `Wire` type through the trait: the four payloads, the
    /// control frame, a bare lane frame and each record they nest.
    #[test]
    fn decoders_are_total_on_inflated_words_and_splices() {
        let round_robin = DeployInputs {
            partitioning: Partitioning::round_robin(4),
            ..sample_deploy()
        };
        assert_total(&[sample_deploy(), round_robin]);
        assert_total(&[sample_outcome(), empty_outcome()]);
        assert_total(&sample_migrate_cmds());
        assert_total(&sample_replies());
        assert_total(&sample_controls());
        assert_total(&[lanes(&every_lane_kind()), ColumnBatch::new(2)]);
        assert_total(&sample_outcome().node_metrics);
        assert_total(&[sample_outcome().node_metrics[0].batch_occupancy.clone()]);
        assert_total(&sample_outcome().counters);
        assert_total(&sample_outcome().edges);
        assert_total(&[sample_deploy().fault, FaultPlan::default()]);
    }

    /// Holds `T::MIN_LEN` to what it bounds: no sample encodes shorter.
    fn min_len_bounds<T: Wire>(samples: &[T]) {
        for v in samples {
            let len = v.encode().unwrap().len();
            let name = std::any::type_name::<T>();
            assert!(len >= T::MIN_LEN, "{name}: {len} < {}", T::MIN_LEN);
        }
    }

    /// The default value of a fixed-size record encodes to exactly its
    /// `MIN_LEN`: a field left out of one direction, or a count of a
    /// record's fields kept by hand, shows here.
    fn min_len_is_exact<T: Wire + Default>() {
        let len = T::default().encode().unwrap().len();
        assert_eq!(len, T::MIN_LEN, "{}", std::any::type_name::<T>());
    }

    #[test]
    fn min_len_is_the_least_encoding() {
        min_len_bounds(&[sample_deploy()]);
        min_len_bounds(&[sample_outcome(), empty_outcome()]);
        min_len_bounds(&sample_migrate_cmds());
        min_len_bounds(&sample_replies());
        min_len_bounds(&sample_controls());
        min_len_bounds(&[lanes(&every_lane_kind()), ColumnBatch::new(0)]);
        min_len_bounds(&sample_outcome().node_metrics);
        min_len_bounds(&sample_outcome().counters);
        min_len_bounds(&sample_outcome().edges);
        min_len_bounds(&[sample_deploy().fault, FaultPlan::default()]);
        min_len_bounds(&every_lane_kind());
        min_len_bounds(every_lane_kind()[0].values());
        min_len_bounds(&[String::new(), "gsql".into()]);
        min_len_bounds(&[Bytes::new()]);
        min_len_bounds(&[None, Some(7usize)]);
        min_len_bounds(&[(1u8, true), (0, false)]);
        min_len_bounds(&[[0u16; 3]]);
        min_len_bounds(&[-1i64]);
        min_len_is_exact::<OpMetrics>();
        min_len_is_exact::<Histogram>();
        min_len_is_exact::<OpCounters>();
        min_len_is_exact::<EdgeTransport>();
    }

    /// The bytes of every deploy, outcome, migrate and control sample,
    /// pinned by their FNV-1a: the layouts are the protocol's, and a
    /// codec change that moves a byte shows here.
    #[test]
    fn sample_encodings_are_pinned() {
        // Computed with the hand-written codecs this one replaced; the
        // payloads carrying a `uint` or `int` lane re-pinned for packed
        // lanes; `Hello` and `Welcome`, which carry the protocol
        // version, re-pinned for version 11.
        const PINNED: [u64; 26] = [
            0xc574c6b6b159ef0a,
            0x7bf1453975afd034,
            0xb0a2660603a4a2a9,
            0xd80ac658736bb725,
            0x0ef868a2765df85b,
            0xf411faca8ff2ffa6,
            0xa159e46a1d132922,
            0xa23a95427e23c1a4,
            0xacda2d73934e3ffe,
            0x8602cb6c89634953,
            0x0c8210784d8af5a5,
            0xc1dff281364a1ca4,
            0xf3027e36233783a8,
            0xa233cdc448e9845e,
            0x5fd16515fbe5a666,
            0xc4eb81e8c53933c1,
            0xd024e69ef421b6c6,
            0xf6b8a3d35f5daba4,
            0x02e10ffadb17c803,
            0x82ccf006dc4ba5cf,
            0x65bb6d33db7a8334,
            0x9043977079dc58eb,
            0xeaa807023d2b7ffb,
            0x19b20f4c3d81632c,
            0x2c90199a36dd1ea6,
            0x76a264675e4f418f,
        ];
        let round_robin = DeployInputs {
            partitioning: Partitioning::round_robin(4),
            ..sample_deploy()
        };
        let mut encodings = vec![sample_deploy().encode(), round_robin.encode()];
        for outcome in [sample_outcome(), empty_outcome(), one_output_outcome()] {
            encodings.push(outcome.encode());
        }
        encodings.extend(sample_migrate_cmds().iter().map(Wire::encode));
        encodings.extend(sample_replies().iter().map(Wire::encode));
        encodings.extend(sample_controls().iter().map(Wire::encode));
        let hashes: Vec<u64> = encodings
            .into_iter()
            .map(|b| fnv1a_hash(b.unwrap().iter().map(|&x| u64::from(x))))
            .collect();
        assert_eq!(hashes, PINNED);
    }
}
