//! The traced run's instruments, all from outside the planes: harness
//! spans around the benchmark's own calls, the planes' span rings pulled
//! by scrape and joined to those calls, and deltas of the registries the
//! planes already expose.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use obsplane::{HistogramSnapshot, MetricsRegistry, RegistrySnapshot};
use wireplane::{assemble, WireCluster, WireSpan};

use switchpointer::query::QUERY_CLASS_NAMES;

use crate::stats::{median_u64, percentile, supported_q};

/// Per-layer metric values by name. Names missing from a workload's map
/// are reported as 0: that layer did no work on that workload.
pub type Layer = BTreeMap<String, f64>;

/// One span recorded by the harness around one of its own calls.
#[derive(Debug, Clone)]
pub struct HarnessSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the log.
    pub parent: Option<usize>,
    /// The operation (query, batch, window) it belongs to.
    pub op: u64,
}

/// The harness span log: kept in memory, written out when the run ends.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<HarnessSpan>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(HarnessSpan {
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }
}

/// Length of the union of `[start, end)` intervals.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Groups of intervals that overlap in time: a group is one *round* — the
/// RPCs a query had in flight together before it could go on.
pub fn rounds(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut n, mut reach) = (0u64, 0u64);
    for (s, e) in intervals {
        if n == 0 || s >= reach {
            n += 1;
        }
        reach = reach.max(e);
    }
    n
}

/// One wire query as the traces saw it, joined to the client call that
/// caused it.
#[derive(Debug, Clone, Default)]
pub struct QueryBreakdown {
    /// The harness span around `WireClient::query`.
    pub client_ns: u64,
    /// The front-end's root `query` span and its two children.
    pub root_ns: u64,
    pub enqueue_ns: u64,
    pub exec_ns: u64,
    /// Part of `exec` covered by `wire` child spans (front clock).
    pub wire_cover_ns: u64,
    pub rounds: u64,
    /// Spans retained for this query across all processes.
    pub spans: u64,
}

/// Pulls the cluster's span rings between batches of client calls and
/// joins each new front-end `query` tree to the client call that caused
/// it. The client protocol carries no trace context, so the join is by
/// order: one closed-loop connection issues calls one at a time, so the
/// k-th call is the k-th root in the front-end's clock.
pub struct QueryJoiner {
    seen: HashSet<u64>,
    /// Client spans not yet joined, oldest first.
    pending: Vec<u64>,
    pub joined: Vec<QueryBreakdown>,
    /// Client calls whose tree was no longer (fully) in the rings.
    pub unjoined: u64,
    /// A few whole trees, for the trace file.
    pub sample_trees: Vec<Vec<(String, WireSpan)>>,
    /// `wire − serve` per RPC, all joined queries.
    pub wait_samples: Vec<u64>,
}

impl QueryJoiner {
    pub fn new() -> Self {
        QueryJoiner {
            seen: HashSet::new(),
            pending: Vec::new(),
            joined: Vec::new(),
            unjoined: 0,
            sample_trees: Vec::new(),
            wait_samples: Vec::new(),
        }
    }

    /// Marks every tree currently in the rings as not ours (warm-up
    /// queries, other phases).
    pub fn skip_existing(&mut self, cluster: &WireCluster) {
        if let Ok(scrape) = cluster.front().scrape_traces() {
            for t in assemble(&scrape) {
                self.seen.insert(t.trace_id);
            }
        }
    }

    pub fn client_call(&mut self, dur_ns: u64) {
        self.pending.push(dur_ns);
    }

    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Scrapes and joins the pending client calls. Untimed: the caller
    /// invokes it between operations. `ordered: false` (concurrent
    /// connections, whose calls cannot be told apart by order) keeps the
    /// trees without a client span.
    pub fn scrape(&mut self, cluster: &WireCluster, ordered: bool) {
        let mut pending = std::mem::take(&mut self.pending);
        let Ok(scrape) = cluster.front().scrape_traces() else {
            self.unjoined += pending.len() as u64;
            return;
        };
        let mut fresh: Vec<_> = assemble(&scrape)
            .into_iter()
            .filter(|t| !self.seen.contains(&t.trace_id))
            .filter(|t| {
                t.root()
                    .is_some_and(|r| r.stage == "query" && r.parent_id == 0)
            })
            .collect();
        for t in &fresh {
            self.seen.insert(t.trace_id);
        }
        if !ordered {
            pending = vec![0; fresh.len()];
        }
        if fresh.len() != pending.len() {
            // A ring wrapped (or an unrelated query ran): the order join
            // is no longer safe for this batch.
            self.unjoined += pending.len() as u64;
            return;
        }
        fresh.sort_by_key(|t| t.root().map_or(0, |r| r.start_ns));
        for (client_ns, tree) in pending.into_iter().zip(fresh) {
            let root = tree.root().expect("filtered on root").clone();
            let mut b = QueryBreakdown {
                client_ns,
                root_ns: root.dur_ns,
                spans: tree.spans.len() as u64,
                ..QueryBreakdown::default()
            };
            let mut wire: Vec<&WireSpan> = Vec::new();
            let mut serve_by_parent: BTreeMap<u64, u64> = BTreeMap::new();
            for (_, s) in &tree.spans {
                match s.stage.as_str() {
                    "enqueue" => b.enqueue_ns += s.dur_ns,
                    "exec" => b.exec_ns += s.dur_ns,
                    "wire" => wire.push(s),
                    "serve" => {
                        *serve_by_parent.entry(s.parent_id).or_default() += s.dur_ns;
                    }
                    _ => {}
                }
            }
            let intervals: Vec<(u64, u64)> = wire
                .iter()
                .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
                .collect();
            b.wire_cover_ns = covered_ns(intervals.clone());
            b.rounds = rounds(intervals);
            for w in &wire {
                if let Some(&serve) = serve_by_parent.get(&w.span_id) {
                    let wait = w.dur_ns.saturating_sub(serve);
                    self.wait_samples.push(wait);
                }
            }
            if self.sample_trees.len() < 4 {
                self.sample_trees.push(tree.spans.clone());
            }
            self.joined.push(b);
        }
    }
}

pub fn p50(values: impl Iterator<Item = u64>) -> f64 {
    median_u64(&values.collect::<Vec<_>>()) as f64
}

pub fn p99(values: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    percentile(&v, 0.99) as f64
}

// ----------------------------------------------------------------------
// Registry deltas
// ----------------------------------------------------------------------

/// `after − before`, bucket by bucket. `max` cannot be subtracted; the
/// later one is kept (an upper bound for the interval).
pub fn hist_delta(
    after: &HistogramSnapshot,
    before: Option<&HistogramSnapshot>,
) -> HistogramSnapshot {
    let Some(before) = before else {
        return after.clone();
    };
    let old: BTreeMap<u32, u64> = before.counts.iter().copied().collect();
    let counts: Vec<(u32, u64)> = after
        .counts
        .iter()
        .filter_map(|&(i, n)| {
            let d = n.saturating_sub(old.get(&i).copied().unwrap_or(0));
            (d > 0).then_some((i, d))
        })
        .collect();
    HistogramSnapshot {
        grid_bits: after.grid_bits,
        count: counts.iter().map(|&(_, n)| n).sum(),
        sum: after.sum.wrapping_sub(before.sum),
        max: after.max,
        counts,
    }
}

/// What a set of registries recorded between two points in time.
pub struct RegistryDelta {
    before: RegistrySnapshot,
    after: RegistrySnapshot,
}

impl RegistryDelta {
    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name))
    }

    /// Sum of the deltas of every counter whose name starts with `prefix`
    /// and ends with `suffix`.
    pub fn counter_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.after
            .counters
            .keys()
            .filter(|k| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|k| self.counter(k))
            .sum()
    }

    pub fn hist(&self, name: &str) -> HistogramSnapshot {
        match self.after.hist(name) {
            Some(a) => hist_delta(a, self.before.hist(name)),
            None => HistogramSnapshot::default(),
        }
    }

    /// The merged delta of every histogram whose name starts with `prefix`.
    pub fn hist_merged(&self, prefix: &str) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for k in self.after.hists.keys().filter(|k| k.starts_with(prefix)) {
            out.merge(&self.hist(k));
        }
        out
    }
}

/// Snapshots a set of registries merged into one view; call twice and
/// [`RegistryProbe::since`] gives the interval.
pub struct RegistryProbe {
    before: RegistrySnapshot,
}

fn merged<'a>(regs: impl Iterator<Item = &'a MetricsRegistry>) -> RegistrySnapshot {
    let mut out = RegistrySnapshot::default();
    for r in regs {
        out.merge(&r.snapshot());
    }
    out
}

impl RegistryProbe {
    pub fn start<'a>(regs: impl Iterator<Item = &'a MetricsRegistry>) -> Self {
        RegistryProbe {
            before: merged(regs),
        }
    }

    pub fn since<'a>(self, regs: impl Iterator<Item = &'a MetricsRegistry>) -> RegistryDelta {
        RegistryDelta {
            before: self.before,
            after: merged(regs),
        }
    }
}

// ----------------------------------------------------------------------
// Layer metrics every workload derives the same way
// ----------------------------------------------------------------------

/// `queryplane::pool` metrics of whichever pool the registries cover.
pub fn pool_layers(delta: &RegistryDelta, queue_depth_max: f64, out: &mut Layer) {
    let busy = delta.counter_sum("pool.worker", ".busy_ns") as f64;
    let idle = delta.counter_sum("pool.worker", ".idle_ns") as f64;
    let batches = delta.counter("pool.batches").max(1) as f64;
    if busy + idle > 0.0 {
        out.insert("pool.busy_share".into(), busy / (busy + idle));
    }
    out.insert(
        "pool.steals_per_batch".into(),
        delta.counter("pool.steals") as f64 / batches,
    );
    out.insert(
        "pool.chunks_per_batch".into(),
        delta.counter("pool.chunks") as f64 / batches,
    );
    out.insert("pool.queue_depth_max".into(), queue_depth_max);
}

pub fn exec_layers(delta: &RegistryDelta, out: &mut Layer) {
    for class in QUERY_CLASS_NAMES {
        let h = delta.hist(&format!("queryplane.exec_ns.{class}"));
        if h.count > 0 {
            out.insert(format!("exec.{class}_ns.p50"), h.quantile(0.5) as f64);
        }
    }
}

/// The tail of the untraced operations (ascending latencies, ns) at the
/// percentiles the sample supports, and the mean as `weight` units of
/// work per second of service: ungated, because on a shared 2-core box
/// they follow the neighbours more than the code (see the README).
pub fn tail_metrics(untraced: &[u64], weight: f64, out: &mut Layer) {
    let total: u64 = untraced.iter().sum();
    if total > 0 {
        out.insert(
            "tail.ops_per_s".into(),
            untraced.len() as f64 * weight * 1e9 / total as f64,
        );
    }
    for (name, q) in [("tail.op_p90_us", 0.9), ("tail.op_p99_us", 0.99)] {
        let q = supported_q(untraced.len(), q);
        out.insert(name.into(), percentile(untraced, q) as f64 / 1e3);
    }
}

// ----------------------------------------------------------------------
// Trace file
// ----------------------------------------------------------------------

/// Writes the spans kept in memory during the traced phase next to the
/// executable: every harness span, and a few whole cross-process trees.
pub fn write_trace_file(workload: &str, log: &SpanLog, sample_trees: &[Vec<(String, WireSpan)>]) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
    else {
        return;
    };
    let mut o = String::from("{\n  \"harness_spans\": [\n");
    let rows: Vec<String> = log
        .spans
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )
        })
        .collect();
    o.push_str(&rows.join(",\n"));
    o.push_str("\n  ],\n  \"sample_trees\": [\n");
    let trees: Vec<String> = sample_trees
        .iter()
        .map(|t| {
            let spans: Vec<String> = t
                .iter()
                // A sweep tree has thousands of spans; its first rounds
                // show the shape.
                .take(64)
                .map(|(process, s)| {
                    format!(
                        "      {{\"process\": \"{process}\", \"stage\": \"{}\", \"class\": \"{}\", \"shard\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"span\": {}, \"parent\": {}}}",
                        s.stage, s.class, s.shard, s.start_ns, s.dur_ns, s.span_id, s.parent_id
                    )
                })
                .collect();
            format!("    [\n{}\n    ]", spans.join(",\n"))
        })
        .collect();
    o.push_str(&trees.join(",\n"));
    o.push_str("\n  ]\n}\n");
    // Best effort: the numbers are already in the result line.
    let _ = obsplane::write_atomic(
        dir.join(format!("spbench_trace.{workload}.json")),
        o.as_bytes(),
    );
}

// ----------------------------------------------------------------------
// Self-time table
// ----------------------------------------------------------------------

/// One row of a workload's self-time table: a span kind, its median
/// duration, and its median self time (duration minus what its children
/// cover).
pub struct SelfTimeRow {
    pub span: &'static str,
    pub depth: usize,
    pub dur_ns: f64,
    pub self_ns: f64,
}

pub fn render_self_time(workload: &str, rows: &[SelfTimeRow], unattributed_pct: f64) -> String {
    let mut out = format!("self-time table — {workload} (medians per operation)\n");
    out.push_str(&format!(
        "  {:<34} {:>12} {:>12}\n",
        "span", "dur_us", "self_us"
    ));
    for r in rows {
        out.push_str(&format!(
            "  {:<34} {:>12.1} {:>12.1}\n",
            format!("{}{}", "  ".repeat(r.depth), r.span),
            r.dur_ns / 1e3,
            r.self_ns / 1e3
        ));
    }
    out.push_str(&format!("  unattributed_pct = {unattributed_pct:.1}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_the_union_and_rounds_are_overlap_groups() {
        // Two overlapping RPCs, a gap, then one more.
        let iv = vec![(0, 10), (5, 20), (30, 40)];
        assert_eq!(covered_ns(iv.clone()), 30);
        assert_eq!(rounds(iv), 2);
        // Back-to-back sequential RPCs are one round each.
        assert_eq!(rounds(vec![(0, 10), (10, 20), (20, 30)]), 3);
        assert_eq!(covered_ns(vec![]), 0);
        assert_eq!(rounds(vec![]), 0);
    }

    #[test]
    fn histogram_deltas_subtract_bucketwise() {
        let h = obsplane::Histogram::new();
        for v in [10, 10, 20] {
            h.record(v);
        }
        let before = h.snapshot();
        for v in [20, 30, 30, 30] {
            h.record(v);
        }
        let d = hist_delta(&h.snapshot(), Some(&before));
        assert_eq!(d.count, 4);
        assert_eq!(d.sum, 110);
        assert_eq!(d.quantile(0.5), 30);
    }
}
