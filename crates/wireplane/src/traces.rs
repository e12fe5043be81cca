//! Cross-process trace reassembly.
//!
//! A `Frame::TraceScrapeReq` pulls each process's retained spans — its
//! ring plus its pinned slow-query exemplars — as labelled
//! [`WireSpan`] dumps, exactly like a stats scrape pulls registry
//! snapshots. This module turns those dumps back into causal trees:
//! group by trace id, dedup by span id (ids are seed-perturbed per
//! process so they never collide across a cluster), and link children
//! to parents. `start_ns` offsets are per-process clocks, so only
//! durations are compared across processes; within one process, spans
//! order by start offset.
//!
//! The scrape is **side-effect-free and snapshot-based**: it drains
//! nothing, records no spans of its own, and is excluded from the wire
//! histograms, so scraping a quiesced cluster twice yields identical
//! bytes — the same identity invariant the stats scrape keeps.

use std::collections::{BTreeMap, BTreeSet};

use obsplane::Tracer;

use crate::proto::WireSpan;

/// Snapshots every span a process retains — ring events plus exemplar
/// store — deduplicated by span id, in deterministic order. Ring events
/// whose trace is pinned are flagged `exemplar` too, so the flag means
/// "this trace was slow here" regardless of which store answered.
pub(crate) fn dump_spans(tracer: &Tracer) -> Vec<WireSpan> {
    let pinned: BTreeSet<u64> = tracer.exemplar_trace_ids().into_iter().collect();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut out: Vec<WireSpan> = Vec::new();
    for ev in tracer.events() {
        if seen.insert(ev.span_id) {
            out.push(WireSpan::from_event(&ev, pinned.contains(&ev.trace_id)));
        }
    }
    for ev in tracer.exemplar_events() {
        if seen.insert(ev.span_id) {
            out.push(WireSpan::from_event(&ev, true));
        }
    }
    out.sort_by(|a, b| {
        (a.trace_id, a.start_ns, a.span_id).cmp(&(b.trace_id, b.start_ns, b.span_id))
    });
    out
}

/// One reassembled causal trace: every scraped span sharing a trace id,
/// tagged with the process label it came from.
#[derive(Debug, Clone)]
pub struct TraceTree {
    pub trace_id: u64,
    /// `(process label, span)` pairs, ordered by `(start_ns, span_id)`.
    pub spans: Vec<(String, WireSpan)>,
}

impl TraceTree {
    /// The root span: a parentless query-stage span if present,
    /// otherwise any span whose parent is not in the tree.
    pub fn root(&self) -> Option<&WireSpan> {
        let ids: BTreeSet<u64> = self.spans.iter().map(|(_, s)| s.span_id).collect();
        self.spans
            .iter()
            .map(|(_, s)| s)
            .find(|s| s.stage == "query" && s.parent_id == 0)
            .or_else(|| {
                self.spans
                    .iter()
                    .map(|(_, s)| s)
                    .find(|s| !ids.contains(&s.parent_id))
            })
    }

    /// End-to-end latency as the trace recorded it: the root span's
    /// duration (the slowest span when no root was retained).
    pub fn e2e_ns(&self) -> u64 {
        self.root().map_or_else(
            || self.spans.iter().map(|(_, s)| s.dur_ns).max().unwrap_or(0),
            |r| r.dur_ns,
        )
    }

    /// Total duration of every span in the given stage.
    pub fn stage_ns(&self, stage: &str) -> u64 {
        self.spans
            .iter()
            .filter(|(_, s)| s.stage == stage)
            .map(|(_, s)| s.dur_ns)
            .sum()
    }

    /// The distinct process labels this trace crossed.
    pub fn processes(&self) -> BTreeSet<&str> {
        self.spans.iter().map(|(l, _)| l.as_str()).collect()
    }

    /// Whether every span links into the tree: its parent is another
    /// retained span, or it is the (single) root.
    pub fn causally_linked(&self) -> bool {
        let ids: BTreeSet<u64> = self.spans.iter().map(|(_, s)| s.span_id).collect();
        let roots = self
            .spans
            .iter()
            .filter(|(_, s)| !ids.contains(&s.parent_id))
            .count();
        roots == 1
    }

    /// Whether any process pinned this trace as a slow-query exemplar.
    pub fn has_exemplar(&self) -> bool {
        self.spans.iter().any(|(_, s)| s.exemplar)
    }

    /// Chunk-steal annotations summed over the tree.
    pub fn steals(&self) -> u64 {
        self.spans.iter().map(|(_, s)| u64::from(s.steals)).sum()
    }
}

/// Reassembles scraped span dumps into per-trace trees. Untraced spans
/// (`trace_id == 0`) are skipped; duplicate span ids (a span scraped
/// from both its ring and its exemplar pin) keep their first
/// occurrence. Trees come back ordered by trace id — sort by
/// [`TraceTree::e2e_ns`] descending to find the slowest.
pub fn assemble(scrape: &[(String, Vec<WireSpan>)]) -> Vec<TraceTree> {
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut by_trace: BTreeMap<u64, Vec<(String, WireSpan)>> = BTreeMap::new();
    for (label, spans) in scrape {
        for s in spans {
            if s.trace_id == 0 || !seen.insert(s.span_id) {
                continue;
            }
            by_trace
                .entry(s.trace_id)
                .or_default()
                .push((label.clone(), s.clone()));
        }
    }
    by_trace
        .into_iter()
        .map(|(trace_id, mut spans)| {
            spans.sort_by_key(|a| (a.1.start_ns, a.1.span_id));
            TraceTree { trace_id, spans }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, stage: &str, dur: u64) -> WireSpan {
        WireSpan {
            class: "q".to_string(),
            stage: stage.to_string(),
            epoch: 0,
            shard: 0,
            start_ns: id,
            dur_ns: dur,
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            steals: 0,
            exemplar: false,
        }
    }

    #[test]
    fn assemble_links_across_processes_and_skips_untraced() {
        let scrape = vec![
            (
                "front".to_string(),
                vec![
                    span(7, 1, 0, "query", 100),
                    span(7, 2, 1, "wire", 60),
                    span(0, 99, 0, "span", 5), // untraced: skipped
                ],
            ),
            ("shard0".to_string(), vec![span(7, 3, 2, "serve", 40)]),
        ];
        let trees = assemble(&scrape);
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        assert_eq!(t.trace_id, 7);
        assert_eq!(t.spans.len(), 3);
        assert!(t.causally_linked());
        assert_eq!(t.root().unwrap().span_id, 1);
        assert_eq!(t.e2e_ns(), 100);
        assert_eq!(t.stage_ns("serve"), 40);
        assert_eq!(
            t.processes().into_iter().collect::<Vec<_>>(),
            vec!["front", "shard0"]
        );
    }

    #[test]
    fn assemble_dedups_span_ids_and_detects_broken_links() {
        let twice = vec![
            ("front".to_string(), vec![span(9, 1, 0, "query", 10)]),
            ("front".to_string(), vec![span(9, 1, 0, "query", 10)]),
            // Parent 42 was never retained: the tree has two "roots".
            ("shard1".to_string(), vec![span(9, 5, 42, "serve", 3)]),
        ];
        let trees = assemble(&twice);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].spans.len(), 2, "duplicate span id dropped");
        assert!(!trees[0].causally_linked());
    }
}
