//! Every workload and metric name the benchmark emits — the single list
//! `BENCHMARK.json` is generated from (`spbench --emit-benchmark-json`)
//! and the result lines are checked against, so nothing can silently
//! vanish from either.

use std::fmt::Write as _;

/// How long one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "wire_fanout",
        why: "closed loop, 1 connection: aggregate and diagnosis queries of ~11 shard RPCs with fat replies; codec, serve, host scan and thread hand-offs dominate, round-trip count is irrelevant",
    },
    Workload {
        name: "wire_sweep",
        why: "closed loop, 1 connection: SilentDrop retention sweeps of 500 tiny sequential round trips each; per-RPC mux, envelope and dispatch cost is everything, payload codec and host scan nothing",
    },
    Workload {
        name: "plane_storm",
        why: "closed loop, in-process QueryPlane::execute_batch of 2048 aggregates then 64 sweeps: no socket, no codec; executor, scatter, pointer union and the sequential replay tail do the work",
    },
    Workload {
        name: "watch_stream",
        why: "fixed windows: refresh, close_window and subscriber drain of 61 standing queries while a reader queries the state being swapped; writes beside reads through the same layers",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn ns(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: "lower",
    }
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: "lower",
    }
}

const fn of(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // wireplane::client
    ns("client.query_ns.p50"),
    ns("client.query_ns.p99"),
    ns("client.hop_ns.p50"),
    // wireplane::frontend
    ns("front.enqueue_ns.p50"),
    ns("front.exec_ns.p50"),
    ns("front.self_ns.p50"),
    count("front.rpcs_per_query"),
    count("front.rounds_per_query"),
    // wireplane::mux
    ns("mux.wire_ns_per_query.p50"),
    ns("mux.rtt_ns.p50"),
    ns("mux.rtt_ns.p99"),
    count("mux.frames_per_query"),
    of("mux.bytes_per_query", "bytes", "lower"),
    of("mux.combine_ratio", "ratio", "higher"),
    // wireplane::server
    ns("server.decode_ns_per_query"),
    ns("server.serve_ns_per_query"),
    ns("server.encode_ns_per_query"),
    ns("server.serve_ns.p99"),
    count("server.frames_served_per_query"),
    ns("server.wait_ns.p50"),
    // wireplane::proto / telemetry::frame (probes)
    ns("probe.proto.encode_ns.probe_exact"),
    ns("probe.proto.encode_ns.topk_wave_rep"),
    ns("probe.proto.encode_ns.query_rep"),
    ns("probe.proto.encode_ns.delta_append"),
    ns("probe.proto.decode_ns.probe_exact"),
    ns("probe.proto.decode_ns.topk_wave_rep"),
    ns("probe.proto.decode_ns.query_rep"),
    ns("probe.proto.decode_ns.delta_append"),
    of("probe.proto.bytes.probe_exact", "bytes", "lower"),
    of("probe.proto.bytes.topk_wave_rep", "bytes", "lower"),
    of("probe.proto.bytes.query_rep", "bytes", "lower"),
    of("probe.proto.bytes.delta_append", "bytes", "lower"),
    // transport floor (probes)
    ns("probe.mux.null_rtt_ns"),
    ns("probe.shard.horizon_rtt_ns"),
    ns("probe.shard.probe_exact_rtt_ns"),
    ns("probe.shard.union_slice_rtt_ns"),
    ns("probe.shard.topk_wave_rtt_ns"),
    of("probe.shard.topk_wave_reply_bytes", "bytes", "lower"),
    // queryplane::pool
    of("pool.busy_share", "ratio", "higher"),
    count("pool.steals_per_batch"),
    count("pool.chunks_per_batch"),
    count("pool.queue_depth_max"),
    ns("probe.pool.scatter_null_ns_per_item"),
    // switchpointer::query (executor), in situ and probed
    ns("exec.contention_ns.p50"),
    ns("exec.red_lights_ns.p50"),
    ns("exec.cascade_ns.p50"),
    ns("exec.load_imbalance_ns.p50"),
    ns("exec.top_k_ns.p50"),
    ns("exec.silent_drop_ns.p50"),
    ns("probe.exec.contention_ns"),
    ns("probe.exec.red_lights_ns"),
    ns("probe.exec.cascade_ns"),
    ns("probe.exec.load_imbalance_ns"),
    ns("probe.exec.top_k_ns"),
    ns("probe.exec.silent_drop_ns"),
    // switchpointer::pointer, ::hoststore, mphf (probes)
    ns("probe.pointer.union_ns"),
    ns("probe.pointer.decode_ns"),
    ns("probe.hoststore.topk_ns"),
    ns("probe.hoststore.filter_ns"),
    ns("probe.hoststore.sizes_ns"),
    ns("probe.mphf.lookup_ns"),
    // queryplane (plane, snapshot, cache)
    ns("plane.batch_ns.p50.agg"),
    ns("plane.batch_ns.p50.sweep"),
    ns("plane.exec_sum_ns_per_batch"),
    ns("plane.self_ns_per_query"),
    of("plane.pointer_hit_rate", "ratio", "higher"),
    ns("probe.snapshot.capture_ns"),
    ns("probe.snapshot.delta_ns"),
    ns("probe.snapshot.apply_record_ns"),
    ns("probe.snapshot.slice_encode_ns"),
    // streamplane + wireplane::repl (in situ, watch_stream)
    ns("stream.sim_advance_ns.p50"),
    ns("stream.refresh_ns.p50"),
    ns("stream.close_ns.p50"),
    ns("stream.drain_ns.p50"),
    ns("stream.reader_query_ns.p50"),
    ns("stream.reader_query_ns.p90"),
    count("stream.reader_mixed_replies"),
    count("stream.evaluated_per_window"),
    count("stream.incidents_per_window"),
    count("stream.delta_copied_per_window"),
    of("stream.append_bytes_per_window", "bytes", "lower"),
    count("stream.state_records_end"),
    ns("repl.apply_ns.p50"),
    count("repl.appends"),
    count("repl.bootstraps"),
    // open-loop ladder
    of("open.p50_us.r100", "us", "lower"),
    of("open.p50_us.r200", "us", "lower"),
    of("open.p50_us.r400", "us", "lower"),
    of("open.p90_us.r100", "us", "lower"),
    of("open.p90_us.r200", "us", "lower"),
    of("open.p90_us.r400", "us", "lower"),
    of("open.late_max_us.r100", "us", "lower"),
    of("open.late_max_us.r200", "us", "lower"),
    of("open.late_max_us.r400", "us", "lower"),
    count("open.backlog_max.r100"),
    count("open.backlog_max.r200"),
    count("open.backlog_max.r400"),
    // tail and mean of the untraced phase (ungated: see the README)
    of("tail.op_p90_us", "us", "lower"),
    of("tail.op_p99_us", "us", "lower"),
    of("tail.ops_per_s", "1/s", "higher"),
    // failures / obsplane
    count("fail.reconnects"),
    count("fail.failovers"),
    count("fail.refused"),
    count("trace.spans_lost"),
    count("trace.spans_per_query"),
    of("trace.overhead_pct", "%", "lower"),
    of("trace.unattributed_pct", "%", "lower"),
    of("trace.join_rate", "ratio", "higher"),
];

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "spbench/Cargo.toml",
    "--",
];

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let mut o = String::from("{\n");
    let cmd: Vec<String> = COMMAND.iter().map(|s| quoted(s)).collect();
    writeln!(o, "  \"command\": [{}],", cmd.join(", ")).unwrap();
    writeln!(o, "  \"paths\": [\"spbench\"],").unwrap();
    writeln!(o, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    writeln!(o, "  \"workloads\": [\n{}\n  ],", rows.join(",\n")).unwrap();
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better),
                m.bound
            )
        })
        .collect();
    writeln!(o, "  \"end_to_end\": [\n{}\n  ],", rows.join(",\n")).unwrap();
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better)
            )
        })
        .collect();
    writeln!(o, "  \"per_layer\": [\n{}\n  ]", rows.join(",\n")).unwrap();
    o.push_str("}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The committed `BENCHMARK.json` is exactly what this binary emits:
    /// a workload or metric cannot be added, renamed or dropped on one
    /// side only.
    #[test]
    fn the_committed_benchmark_json_lists_exactly_what_the_binary_emits() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `spbench --emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_lists_meet_the_driver_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() <= 64 << 10);
    }
}
