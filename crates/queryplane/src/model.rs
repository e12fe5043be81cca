//! Modelled accounting — analysis only, never on the serving path.
//!
//! What a batch would have cost on the paper's RPC fabric, computed by
//! replaying the [`QueryOutcome`]s [`QueryPlane::execute_batch`] returns:
//! pointer rounds run against an LRU of `(switch, epoch window)` keys (a
//! round whose keys are all resident is billed
//! `CostModel::pointer_cache_hit` instead of its ≈ 7.5 ms retrieval), all
//! (query, host) contacts of a batch coalesce into one
//! [`CostModel::batched_query_wave`] (connection initiation, the Fig. 12
//! term, once per host per batch), and per-shard decode is priced from
//! the measured fan-out. A pure function of the outcomes in submission
//! order, so the figures are independent of worker and shard scheduling.
//!
//! [`QueryPlane::execute_batch`]: crate::QueryPlane::execute_batch

use std::collections::{BTreeMap, HashMap};

use netsim::packet::NodeId;
use netsim::time::SimTime;
use switchpointer::cost::{BatchedHostLoad, CostModel};

use crate::QueryOutcome;

/// One switch's pointer union over one epoch window: `(switch, lo, hi)`.
type PointerKey = (NodeId, u64, u64);

/// LRU set of recently retrieved pointer keys. Recency is a dual index —
/// `entries` maps key → last-use stamp, `by_stamp` stamp → key (stamps are
/// unique) — so lookup and eviction are both O(log n).
#[derive(Debug)]
struct PointerLru {
    capacity: usize,
    entries: HashMap<PointerKey, u64>,
    by_stamp: BTreeMap<u64, PointerKey>,
    clock: u64,
}

impl PointerLru {
    /// Looks `key` up, refreshing recency; on a miss, inserts it (evicting
    /// the least recently used entry if full). Returns `true` on a hit.
    fn touch(&mut self, key: PointerKey) -> bool {
        self.clock += 1;
        if let Some(stamp) = self.entries.get_mut(&key) {
            self.by_stamp.remove(stamp);
            *stamp = self.clock;
            self.by_stamp.insert(self.clock, key);
            return true;
        }
        if self.entries.len() >= self.capacity {
            if let Some((_, victim)) = self.by_stamp.pop_first() {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, self.clock);
        self.by_stamp.insert(self.clock, key);
        false
    }
}

/// Modelled cost of one query, alone versus inside its batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelledCost {
    /// Pointer retrieval + host query waves when executed alone (no cache,
    /// no batching) — the sequential analyzer's service latency.
    pub sequential: SimTime,
    /// The same work inside the batch: cache-served retrieval rounds plus
    /// this query's share of the batched fan-out wave.
    pub batched: SimTime,
    /// Pointer keys served from the LRU / retrieved from switches.
    pub pointer_hits: u32,
    pub pointer_misses: u32,
}

/// Cumulative modelled figures over every batch replayed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelReport {
    pub pointer_hits: u64,
    pub pointer_misses: u64,
    /// Retrieval rounds fully served from the LRU (the ≈ 7.5 ms skips).
    pub rounds_skipped: u64,
    /// (query, host) request pairs before coalescing / host RPCs after.
    pub host_requests: u64,
    pub host_rpcs_issued: u64,
    /// Σ sequential service latency / Σ latency under caching + batching.
    pub sequential_total: SimTime,
    pub batched_total: SimTime,
    /// Σ pointer-decode wall time under the directory sharding the
    /// outcomes ran with (shards decode concurrently, the merge is
    /// serial). Only executed decodes count: a repeat the plane answered
    /// from an identical request's run carries a zeroed fan-out.
    pub modelled_decode_total: SimTime,
}

fn ratio(num: u64, den: u64, empty: f64) -> f64 {
    if den == 0 {
        empty
    } else {
        num as f64 / den as f64
    }
}

impl ModelReport {
    /// Fraction of pointer lookups served from the LRU.
    pub fn cache_hit_rate(&self) -> f64 {
        ratio(
            self.pointer_hits,
            self.pointer_hits + self.pointer_misses,
            0.0,
        )
    }

    /// Modelled speedup of cached + batched over sequential execution.
    pub fn modelled_speedup(&self) -> f64 {
        ratio(
            self.sequential_total.as_ns(),
            self.batched_total.as_ns(),
            1.0,
        )
    }

    /// Host RPCs avoided by fan-out coalescing.
    pub fn rpcs_saved(&self) -> u64 {
        self.host_requests - self.host_rpcs_issued
    }
}

/// The replay: a [`CostModel`], the modelled pointer LRU (which persists
/// across batches, so a repeated batch replays warm) and the running
/// [`ModelReport`].
#[derive(Debug)]
pub struct ModelReplay {
    cost: CostModel,
    lru: PointerLru,
    report: ModelReport,
}

impl ModelReplay {
    /// `lru_capacity` is in `(switch, epoch window)` keys (clamped ≥ 1).
    pub fn new(cost: CostModel, lru_capacity: usize) -> Self {
        ModelReplay {
            cost,
            lru: PointerLru {
                capacity: lru_capacity.max(1),
                entries: HashMap::new(),
                by_stamp: BTreeMap::new(),
                clock: 0,
            },
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
        // Coalesced per-host load across the whole batch. BTreeMap keeps
        // the host order deterministic.
        let mut per_host: BTreeMap<NodeId, BatchedHostLoad> = BTreeMap::new();
        // Per query: its cost so far (`batched` holds the pointer share
        // only until the wave is priced) and its host-request count.
        let mut per_query: Vec<(ModelledCost, u64)> = Vec::with_capacity(outcomes.len());
        let mut batched_pointer_total = SimTime::ZERO;
        let r = &mut self.report;

        for QueryOutcome {
            trace, counters, ..
        } in outcomes
        {
            // Shards decode their slices concurrently (max term), the
            // router pays the serial merge.
            r.modelled_decode_total += counters.fanout.modelled_decode(&self.cost);

            let (mut hits, mut misses) = (0u32, 0u32);
            let mut batched_pointer = SimTime::ZERO;
            for round in &trace.pointer_rounds {
                let mut round_missed = false;
                for &(sw, range) in &round.keys {
                    if self.lru.touch((sw, range.lo, range.hi)) {
                        hits += 1;
                    } else {
                        misses += 1;
                        round_missed = true;
                    }
                }
                if round.keys.is_empty() || round_missed {
                    batched_pointer += round.modelled;
                } else {
                    batched_pointer += self.cost.pointer_cache_hit;
                    r.rounds_skipped += 1;
                }
            }
            batched_pointer_total += batched_pointer;

            // Sequential baseline: each wave billed alone; meanwhile fold
            // the wave's contacts into the batch-wide per-host load.
            let mut sequential = trace.pointer_total();
            let mut requests = 0u64;
            for wave in &trace.waves {
                let counts: Vec<usize> = wave.iter().map(|&(_, records)| records).collect();
                sequential += self.cost.query_wave(wave.len(), &counts).total();
                requests += wave.len() as u64;
                for &(host, records) in wave {
                    let load = per_host.entry(host).or_insert(BatchedHostLoad {
                        requests: 0,
                        records: 0,
                    });
                    load.requests += 1;
                    load.records += records;
                }
            }

            r.pointer_hits += hits as u64;
            r.pointer_misses += misses as u64;
            r.sequential_total += sequential;
            per_query.push((
                ModelledCost {
                    sequential,
                    batched: batched_pointer,
                    pointer_hits: hits,
                    pointer_misses: misses,
                },
                requests,
            ));
        }

        // One batched fan-out wave covers the whole batch's host contacts.
        let loads: Vec<BatchedHostLoad> = per_host.into_values().collect();
        let wave_total = self.cost.batched_query_wave(&loads).total();
        let total_requests: u64 = per_query.iter().map(|&(_, n)| n).sum();
        r.host_rpcs_issued += loads.len() as u64;
        r.host_requests += total_requests;
        r.batched_total += batched_pointer_total + wave_total;

        per_query
            .into_iter()
            .map(|(mut cost, requests)| {
                // This query's share of the batched wave, proportional to
                // its request count (the totals above use the exact batch
                // quantities, not these rounded shares).
                if total_requests > 0 {
                    cost.batched += SimTime(
                        (wave_total.as_ns() as u128 * requests as u128 / total_requests as u128)
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

    fn lru(capacity: usize) -> PointerLru {
        ModelReplay::new(CostModel::paper_calibrated(), capacity).lru
    }

    fn k(n: u32) -> PointerKey {
        (NodeId(n), 0, 5)
    }

    #[test]
    fn hit_after_miss_and_distinct_ranges_are_distinct_keys() {
        let mut c = lru(4);
        assert!(!c.touch(k(1)));
        assert!(c.touch(k(1)));
        assert!(!c.touch((NodeId(1), 0, 6)));
    }

    #[test]
    fn lru_evicts_least_recently_used_within_capacity() {
        let mut c = lru(2);
        c.touch(k(1));
        c.touch(k(2));
        c.touch(k(1)); // refresh 1 ⇒ 2 is now LRU
        c.touch(k(3)); // evicts 2
        assert!(c.touch(k(1)), "1 was refreshed and must survive");
        assert!(!c.touch(k(2)), "2 was evicted");
        for i in 10..110 {
            c.touch(k(i));
        }
        assert_eq!((c.entries.len(), c.by_stamp.len()), (2, 2));
    }

    #[test]
    fn an_empty_batch_replays_to_nothing() {
        let mut m = ModelReplay::new(CostModel::paper_calibrated(), 8);
        assert!(m.replay(&[]).is_empty());
        assert_eq!(m.report(), ModelReport::default());
        assert_eq!(m.report().modelled_speedup(), 1.0);
    }
}
