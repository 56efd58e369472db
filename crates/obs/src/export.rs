//! Snapshot exporters: JSON and Prometheus text formats.
//!
//! Both are hand-rolled (the workspace has no serialization library) and
//! deterministic — rows emit in insertion order, floats format via Rust's
//! shortest-roundtrip `Display` — so golden-snapshot tests can compare
//! exported text byte-for-byte.

use std::fmt::Write as _;

use crate::{Histogram, MetricsRegistry, OpMetrics, KERNEL_LANE_LABELS};

/// A metric family for the Prometheus exporter: metric name, help text,
/// and the accessor that projects one value out of a record of type `R`.
type Family<R, T> = (&'static str, &'static str, fn(&R) -> T);

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number: finite values via shortest-roundtrip
/// `Display`, non-finite values as `null` (JSON has no Inf/NaN).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Formats an `f64` for Prometheus text: `+Inf`/`-Inf`/`NaN` spellings for
/// non-finite values, shortest-roundtrip `Display` otherwise.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn json_histogram(out: &mut String, h: &Histogram) {
    out.push_str("{\"count\":");
    let _ = write!(out, "{}", h.count());
    out.push_str(",\"sum\":");
    let _ = write!(out, "{}", h.sum());
    out.push_str(",\"max\":");
    let _ = write!(out, "{}", h.max());
    out.push_str(",\"buckets\":[");
    for (i, c) in h.bucket_counts().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{c}");
    }
    out.push_str("]}");
}

fn json_op_metrics(out: &mut String, m: &OpMetrics) {
    let _ = write!(
        out,
        "{{\"tuples_in\":{},\"tuples_out\":{},\"bytes_in\":{},\"bytes_out\":{},\
         \"batches_in\":{},\"batches_out\":{},\"late_dropped\":{},\
         \"kernel_hits\":{},\"kernel_fallbacks\":{},\
         \"flushes\":{},\"flush_ns\":{},\"group_slots\":{},\"group_probes\":{},\
         \"group_inserts\":{},\"batch_occupancy\":",
        m.tuples_in,
        m.tuples_out,
        m.bytes_in,
        m.bytes_out,
        m.batches_in,
        m.batches_out,
        m.late_dropped,
        m.kernel_hits,
        m.kernel_fallbacks,
        m.flushes,
        m.flush_ns,
        m.group_slots,
        m.group_probes,
        m.group_inserts,
    );
    json_histogram(out, &m.batch_occupancy);
    out.push_str(",\"kernel_lane_hits\":{");
    for (i, (label, v)) in KERNEL_LANE_LABELS
        .iter()
        .zip(&m.kernel_lane_hits)
        .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{label}\":{v}");
    }
    out.push_str("}}");
}

impl MetricsRegistry {
    /// Renders the snapshot as a single JSON object:
    /// `{"ops": [...], "hosts": [...], "edges": [...], "gauges": {...}}`.
    /// Deterministic —
    /// rows in insertion order, no whitespace — so golden tests can
    /// compare output byte-for-byte.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.ops.len() * 256);
        out.push_str("{\"ops\":[");
        for (i, e) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"node\":{},\"op\":\"{}\",\"host\":{},\"metrics\":",
                e.node,
                json_escape(&e.op),
                e.host
            );
            json_op_metrics(&mut out, &e.metrics);
            out.push('}');
        }
        out.push_str("],\"hosts\":[");
        for (i, h) in self.hosts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"host\":{},\"rx_tuples\":{},\"rx_bytes\":{},\"tx_tuples\":{},\
                 \"tx_bytes\":{},\"queue_peak\":{},\"frames_tx\":{},\
                 \"frame_bytes_tx\":{},\"frames_rx\":{},\"frame_bytes_rx\":{},\
                 \"failures\":{},\"frames_corrupt_dropped\":{},\
                 \"work_units\":{},\"cpu_pct\":{}}}",
                i,
                h.rx_tuples,
                h.rx_bytes,
                h.tx_tuples,
                h.tx_bytes,
                h.queue_peak,
                h.frames_tx,
                h.frame_bytes_tx,
                h.frames_rx,
                h.frame_bytes_rx,
                h.failures,
                h.frames_corrupt_dropped,
                json_f64(h.work_units),
                json_f64(h.cpu_pct),
            );
        }
        out.push_str("],\"edges\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"producer\":{},\"from_host\":{},\"frames\":{},\"tuples\":{},\
                 \"bytes\":{},\"retries\":{}}}",
                e.producer, e.from_host, e.frames, e.tuples, e.bytes, e.retries,
            );
        }
        out.push_str("],\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(name), json_f64(*value));
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// one `# TYPE`-headed family per metric, operator rows labelled
    /// `{op,node,host}`, host gauges labelled `{host}`, boundary-edge
    /// transport counters labelled `{node,host}`, run-level
    /// gauges as unlabelled `qap_run_*` series. Histograms emit
    /// cumulative `_bucket{le=...}` series ending in `le="+Inf"` plus
    /// `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024 + self.ops.len() * 1024);

        // Per-operator counter families.
        let op_counters: &[Family<OpMetrics, u64>] = &[
            (
                "qap_op_tuples_in",
                "Tuples delivered to the operator",
                |m| m.tuples_in,
            ),
            ("qap_op_tuples_out", "Tuples the operator emitted", |m| {
                m.tuples_out
            }),
            (
                "qap_op_bytes_in",
                "Estimated wire bytes delivered to the operator",
                |m| m.bytes_in,
            ),
            (
                "qap_op_bytes_out",
                "Estimated wire bytes the operator emitted",
                |m| m.bytes_out,
            ),
            ("qap_op_batches_in", "Input batches delivered", |m| {
                m.batches_in
            }),
            ("qap_op_batches_out", "Output batches emitted", |m| {
                m.batches_out
            }),
            (
                "qap_op_late_dropped",
                "Tuples dropped for arriving behind the window",
                |m| m.late_dropped,
            ),
            (
                "qap_op_kernel_hits",
                "Compiled-kernel executions that ran to completion",
                |m| m.kernel_hits,
            ),
            (
                "qap_op_kernel_fallbacks",
                "Columnar evaluations that fell back to the per-tuple interpreter",
                |m| m.kernel_fallbacks,
            ),
            ("qap_op_flushes", "Window flushes performed", |m| m.flushes),
            (
                "qap_op_flush_ns",
                "Wall-clock nanoseconds spent in window flushes",
                |m| m.flush_ns,
            ),
            (
                "qap_op_group_slots",
                "Open-addressed slots across group tables",
                |m| m.group_slots,
            ),
            (
                "qap_op_group_probes",
                "Slot inspections across group-table lookups",
                |m| m.group_probes,
            ),
            ("qap_op_group_inserts", "Groups created", |m| {
                m.group_inserts
            }),
        ];
        for (name, help, get) in op_counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for e in &self.ops {
                let _ = writeln!(
                    out,
                    "{name}{{op=\"{}\",node=\"{}\",host=\"{}\"}} {}",
                    e.op,
                    e.node,
                    e.host,
                    get(&e.metrics)
                );
            }
        }

        // Per-lane evaluation counter: a `lane` label per lane type, so
        // dashboards can break evaluations down by the column
        // representation they read.
        let name = "qap_op_kernel_lane_hits";
        let _ = writeln!(out, "# HELP {name} Completed kernel runs per lane type");
        let _ = writeln!(out, "# TYPE {name} counter");
        for e in &self.ops {
            for (label, v) in KERNEL_LANE_LABELS.iter().zip(&e.metrics.kernel_lane_hits) {
                let _ = writeln!(
                    out,
                    "{name}{{op=\"{}\",node=\"{}\",host=\"{}\",lane=\"{label}\"}} {v}",
                    e.op, e.node, e.host
                );
            }
        }

        // Batch-occupancy histogram (cumulative le buckets).
        let hname = "qap_op_batch_occupancy";
        let _ = writeln!(out, "# HELP {hname} Tuples per delivered input batch");
        let _ = writeln!(out, "# TYPE {hname} histogram");
        for e in &self.ops {
            let labels = format!("op=\"{}\",node=\"{}\",host=\"{}\"", e.op, e.node, e.host);
            let h = &e.metrics.batch_occupancy;
            let mut cum = 0u64;
            for (i, c) in h.bucket_counts().iter().enumerate() {
                cum += c;
                let bound = Histogram::bucket_bound(i);
                let le = if bound == u64::MAX {
                    "+Inf".to_string()
                } else {
                    format!("{bound}")
                };
                let _ = writeln!(out, "{hname}_bucket{{{labels},le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{hname}_sum{{{labels}}} {}", h.sum());
            let _ = writeln!(out, "{hname}_count{{{labels}}} {}", h.count());
        }

        // Per-host gauge families.
        let host_u64: &[Family<crate::HostMetrics, u64>] = &[
            (
                "qap_host_rx_tuples",
                "Tuples received over transfers",
                |h| h.rx_tuples,
            ),
            (
                "qap_host_rx_bytes",
                "Estimated wire bytes received over transfers",
                |h| h.rx_bytes,
            ),
            ("qap_host_tx_tuples", "Tuples shipped to other hosts", |h| {
                h.tx_tuples
            }),
            ("qap_host_tx_bytes", "Estimated wire bytes shipped", |h| {
                h.tx_bytes
            }),
            (
                "qap_host_queue_peak",
                "Peak boundary-queue depth (in-flight batches)",
                |h| h.queue_peak,
            ),
            (
                "qap_host_frames_tx",
                "Boundary frames shipped from this host (measured)",
                |h| h.frames_tx,
            ),
            (
                "qap_host_frame_bytes_tx",
                "Measured encoded bytes shipped, including frame headers",
                |h| h.frame_bytes_tx,
            ),
            (
                "qap_host_frames_rx",
                "Boundary frames received by this host (measured)",
                |h| h.frames_rx,
            ),
            (
                "qap_host_frame_bytes_rx",
                "Measured encoded bytes received, including frame headers",
                |h| h.frame_bytes_rx,
            ),
            (
                "qap_host_failures",
                "Failure records attributed to this host (panics, decode faults, timeouts)",
                |h| h.failures,
            ),
            (
                "qap_frames_corrupt_dropped",
                "Corrupt boundary frames this host detected and discarded",
                |h| h.frames_corrupt_dropped,
            ),
        ];
        for (name, help, get) in host_u64 {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (i, h) in self.hosts.iter().enumerate() {
                let _ = writeln!(out, "{name}{{host=\"{i}\"}} {}", get(h));
            }
        }
        let host_f64: &[Family<crate::HostMetrics, f64>] = &[
            ("qap_host_work_units", "Accounted work units", |h| {
                h.work_units
            }),
            ("qap_host_cpu_pct", "CPU load percentage", |h| h.cpu_pct),
        ];
        for (name, help, get) in host_f64 {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (i, h) in self.hosts.iter().enumerate() {
                let _ = writeln!(out, "{name}{{host=\"{i}\"}} {}", prom_f64(get(h)));
            }
        }

        // Per-boundary-edge measured transport counters.
        let edge_u64: &[Family<crate::EdgeEntry, u64>] = &[
            (
                "qap_edge_frames",
                "Frames shipped over this boundary edge",
                |e| e.frames,
            ),
            (
                "qap_edge_tuples",
                "Tuples carried over this boundary edge",
                |e| e.tuples,
            ),
            (
                "qap_edge_bytes",
                "Encoded payload bytes carried over this boundary edge",
                |e| e.bytes,
            ),
            (
                "qap_edge_retries",
                "Bounded-backoff retries against a full channel on this boundary edge",
                |e| e.retries,
            ),
        ];
        for (name, help, get) in edge_u64 {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for e in &self.edges {
                let _ = writeln!(
                    out,
                    "{name}{{node=\"{}\",host=\"{}\"}} {}",
                    e.producer,
                    e.from_host,
                    get(e)
                );
            }
        }

        // Run-level scalar gauges.
        for (name, value) in &self.gauges {
            let metric = format!("qap_run_{}", prom_name(name));
            let _ = writeln!(out, "# TYPE {metric} gauge");
            let _ = writeln!(out, "{metric} {}", prom_f64(*value));
        }

        out
    }
}

/// Sanitizes a gauge name into a Prometheus metric-name suffix
/// (`[a-zA-Z0-9_]`, other characters become `_`).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::{EdgeEntry, MetricsRegistry, OpMetrics};

    fn sample() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        let mut m = OpMetrics {
            tuples_in: 10,
            tuples_out: 4,
            bytes_in: 380,
            bytes_out: 152,
            batches_in: 2,
            batches_out: 1,
            flushes: 1,
            group_slots: 16,
            group_probes: 11,
            group_inserts: 4,
            ..OpMetrics::default()
        };
        m.batch_occupancy.record(5);
        m.batch_occupancy.record(5);
        r.record_op(0, "scan", 0, OpMetrics::default());
        r.record_op(1, "aggregate", 1, m);
        r.host_mut(1).rx_tuples = 10;
        r.host_mut(1).rx_bytes = 380;
        r.host_mut(0).frames_tx = 3;
        r.host_mut(0).frame_bytes_tx = 404;
        r.host_mut(1).frames_rx = 3;
        r.host_mut(1).frame_bytes_rx = 404;
        r.host_mut(1).failures = 1;
        r.host_mut(1).frames_corrupt_dropped = 2;
        r.record_edge(EdgeEntry {
            producer: 0,
            from_host: 0,
            frames: 3,
            tuples: 10,
            bytes: 380,
            retries: 4,
        });
        r.set_gauge("duration_secs", 2.5);
        r
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let r = sample();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"ops\":["));
        assert!(a.contains("\"op\":\"aggregate\""));
        assert!(a.contains("\"tuples_in\":10"));
        assert!(a.contains("\"duration_secs\":2.5"));
        assert!(a.ends_with("}}"));
        // Two hosts materialised (0 grown implicitly, 1 set).
        assert!(a.contains("\"host\":0"));
        assert!(a.contains("\"rx_bytes\":380"));
        // Measured frame transport appears per host and per edge.
        assert!(a.contains("\"frames_tx\":3"));
        assert!(a.contains("\"frame_bytes_rx\":404"));
        assert!(a.contains(
            "\"edges\":[{\"producer\":0,\"from_host\":0,\"frames\":3,\
             \"tuples\":10,\"bytes\":380,\"retries\":4}]"
        ));
        // Fault-tolerance counters appear per host.
        assert!(a.contains("\"failures\":1"));
        assert!(a.contains("\"frames_corrupt_dropped\":2"));
    }

    #[test]
    fn json_escapes_strings() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("weird\"name\n", 1.0);
        let j = r.to_json();
        assert!(j.contains("\"weird\\\"name\\n\":1"));
    }

    #[test]
    fn prometheus_has_type_headers_and_cumulative_buckets() {
        let r = sample();
        let p = r.to_prometheus();
        assert!(p.contains("# TYPE qap_op_tuples_in counter"));
        assert!(p.contains("qap_op_tuples_in{op=\"aggregate\",node=\"1\",host=\"1\"} 10"));
        assert!(p.contains("# TYPE qap_op_batch_occupancy histogram"));
        // Two samples of 5 land in bucket (4,8]; cumulative from there on.
        assert!(p.contains("le=\"8\"} 2"));
        assert!(p.contains("le=\"+Inf\"} 2"));
        assert!(p.contains("qap_op_batch_occupancy_sum{op=\"aggregate\",node=\"1\",host=\"1\"} 10"));
        assert!(p.contains("qap_host_rx_bytes{host=\"1\"} 380"));
        assert!(p.contains("qap_host_frames_tx{host=\"0\"} 3"));
        assert!(p.contains("qap_host_frame_bytes_rx{host=\"1\"} 404"));
        assert!(p.contains("# TYPE qap_edge_frames counter"));
        assert!(p.contains("qap_edge_tuples{node=\"0\",host=\"0\"} 10"));
        assert!(p.contains("qap_edge_retries{node=\"0\",host=\"0\"} 4"));
        assert!(p.contains("qap_host_failures{host=\"0\"} 0"));
        assert!(p.contains("qap_host_failures{host=\"1\"} 1"));
        assert!(p.contains("qap_frames_corrupt_dropped{host=\"1\"} 2"));
        assert!(p.contains("qap_run_duration_secs 2.5"));
        // Every line is either a comment or `name{labels} value` / `name value`.
        for line in p.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() >= 2,
                "bad line: {line}"
            );
        }
    }

    #[test]
    fn non_finite_values_render_safely() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("bad", f64::NAN);
        r.set_gauge("inf", f64::INFINITY);
        assert!(r.to_json().contains("\"bad\":null"));
        assert!(r.to_json().contains("\"inf\":null"));
        assert!(r.to_prometheus().contains("qap_run_bad NaN"));
        assert!(r.to_prometheus().contains("qap_run_inf +Inf"));
    }
}
