//! Modelled accounting — analysis only, never on the serving path.
//!
//! What a batch would have cost on the paper's RPC fabric, computed by
//! replaying the [`QueryOutcome`]s [`QueryPlane::execute_batch`] returns.
//! The replay bills what the plane ran, once:
//!
//! * every executed query pays each of its pointer rounds in full — the
//!   analyzer keeps no pointer cache, so two requests that read the same
//!   `(switch, epoch window)` each pull it;
//! * a slot the plane answered from an earlier identical request (its
//!   `trace` is the same `Arc` as an earlier slot's) cost the batch
//!   nothing: it is billed zero and its contacts stay out of the wave;
//! * all executed (query, host) contacts of a batch coalesce into one
//!   [`CostModel::batched_query_wave`] (connection initiation, the Fig. 12
//!   term, once per host per batch), shared by executed queries in
//!   proportion to their contacts;
//! * per-shard decode is priced from the measured fan-out.
//!
//! Every slot's `sequential` cost is its full cost alone, and every
//! slot's contacts count in `host_requests`. A pure function of the
//! outcomes in submission order, so the figures are independent of worker
//! and shard scheduling.
//!
//! [`QueryPlane::execute_batch`]: crate::QueryPlane::execute_batch

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use netsim::packet::NodeId;
use netsim::time::SimTime;
use switchpointer::cost::{BatchedHostLoad, CostModel};

use crate::QueryOutcome;

/// Modelled cost of one query, alone versus inside its batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelledCost {
    /// Pointer retrieval + host query waves when executed alone (no
    /// batching) — the sequential analyzer's service latency.
    pub sequential: SimTime,
    /// The same work inside the batch: its retrieval rounds plus its
    /// share of the batched fan-out wave; zero for a repeat.
    pub batched: SimTime,
}

/// Cumulative modelled figures over every batch replayed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelReport {
    /// (query, host) request pairs before coalescing / host RPCs after.
    pub host_requests: u64,
    pub host_rpcs_issued: u64,
    /// Σ sequential service latency / Σ latency under batching.
    pub sequential_total: SimTime,
    pub batched_total: SimTime,
    /// Σ pointer-decode wall time under the directory sharding the
    /// outcomes ran with (shards decode concurrently, the merge is
    /// serial). Only executed decodes count: a repeat the plane answered
    /// from an identical request's run carries a zeroed fan-out.
    pub modelled_decode_total: SimTime,
}

impl ModelReport {
    /// Modelled speedup of batched over sequential execution.
    pub fn modelled_speedup(&self) -> f64 {
        let (num, den) = (self.sequential_total.as_ns(), self.batched_total.as_ns());
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    }

    /// Host RPCs avoided by fan-out coalescing.
    pub fn rpcs_saved(&self) -> u64 {
        self.host_requests - self.host_rpcs_issued
    }
}

/// The replay: a [`CostModel`] and the running [`ModelReport`].
#[derive(Debug)]
pub struct ModelReplay {
    cost: CostModel,
    report: ModelReport,
}

impl ModelReplay {
    pub fn new(cost: CostModel) -> Self {
        ModelReplay {
            cost,
            report: ModelReport::default(),
        }
    }

    /// The cumulative figures so far.
    pub fn report(&self) -> ModelReport {
        self.report
    }

    /// Replays one batch — `outcomes` exactly as `execute_batch` returned
    /// them, in submission order — and returns each query's modelled cost.
    pub fn replay(&mut self, outcomes: &[QueryOutcome]) -> Vec<ModelledCost> {
        // Coalesced per-host load across the batch's executed contacts.
        // BTreeMap keeps the host order deterministic.
        let mut per_host: BTreeMap<NodeId, BatchedHostLoad> = BTreeMap::new();
        // Per query: its cost so far (`batched` holds the pointer share
        // only until the wave is priced) and its contacts in the wave.
        let mut per_query: Vec<(ModelledCost, u64)> = Vec::with_capacity(outcomes.len());
        let mut executed = HashSet::new();
        let mut batched_pointer_total = SimTime::ZERO;
        let r = &mut self.report;

        for QueryOutcome {
            trace, counters, ..
        } in outcomes
        {
            // Shards decode their slices concurrently (max term), the
            // router pays the serial merge.
            r.modelled_decode_total += counters.fanout.modelled_decode(&self.cost);
            let ran = executed.insert(Arc::as_ptr(trace));

            // Sequential baseline: each wave billed alone.
            let mut sequential = trace.pointer_total();
            let mut requests = 0u64;
            for wave in &trace.waves {
                let counts: Vec<usize> = wave.iter().map(|&(_, records)| records).collect();
                sequential += self.cost.query_wave(wave.len(), &counts).total();
                requests += wave.len() as u64;
            }
            r.host_requests += requests;
            r.sequential_total += sequential;

            // An executed query pays its rounds and folds its contacts
            // into the batch-wide load; a repeat adds nothing.
            let (batched, in_wave) = if ran {
                for &(host, records) in trace.waves.iter().flatten() {
                    let load = per_host.entry(host).or_insert(BatchedHostLoad {
                        requests: 0,
                        records: 0,
                    });
                    load.requests += 1;
                    load.records += records;
                }
                (trace.pointer_total(), requests)
            } else {
                (SimTime::ZERO, 0)
            };
            batched_pointer_total += batched;
            per_query.push((
                ModelledCost {
                    sequential,
                    batched,
                },
                in_wave,
            ));
        }

        // One batched fan-out wave covers the batch's executed contacts.
        let loads: Vec<BatchedHostLoad> = per_host.into_values().collect();
        let wave_total = self.cost.batched_query_wave(&loads).total();
        let wave_requests: u64 = per_query.iter().map(|&(_, n)| n).sum();
        r.host_rpcs_issued += loads.len() as u64;
        r.batched_total += batched_pointer_total + wave_total;

        per_query
            .into_iter()
            .map(|(mut cost, requests)| {
                // This query's share of the batched wave, proportional to
                // its contacts in it (the totals above use the exact batch
                // quantities, not these rounded shares).
                if wave_requests > 0 {
                    cost.batched += SimTime(
                        (wave_total.as_ns() as u128 * requests as u128 / wave_requests as u128)
                            as u64,
                    );
                }
                cost
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_batch_replays_to_nothing() {
        let mut m = ModelReplay::new(CostModel::paper_calibrated());
        assert!(m.replay(&[]).is_empty());
        assert_eq!(m.report(), ModelReport::default());
        assert_eq!(m.report().modelled_speedup(), 1.0);
    }
}
