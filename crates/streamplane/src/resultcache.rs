//! The whole-result cache.
//!
//! This cache skips the *computation* of an entire query: a standing
//! query whose dependency state did not change between windows is served
//! its previous (bit-identical) response without touching the worker pool
//! at all. An entry keeps the response and the dependency set its
//! validity hangs on — never the whole execution trace.
//!
//! **Key.** A cached entry is keyed by the concrete [`QueryRequest`] and
//! remembers the snapshot epoch horizon it was computed at.
//!
//! **Invalidation rule (load-bearing).** An entry computed at horizon `h`
//! may serve any later horizon `h' ≥ h` *iff no applied snapshot delta in
//! between touched the entry's dependency set* — the exact switches whose
//! pointers were read and hosts whose stores/trigger logs were consulted,
//! as recorded in the executor's
//! [`TraceDeps`](switchpointer::query::TraceDeps). Deltas report their
//! dirty switch/host sets; [`ResultCache::invalidate`] drops precisely the
//! intersecting entries. Soundness: every state read a query's answer
//! depends on is in its dep set (the executor records them at the view
//! boundary), and the deployment's static context (topology, routes,
//! directory, cost model) never changes after capture — so an entry that
//! survives invalidation re-derives bit-identically.
//!
//! **GC interaction.** Retention sweeps reach this cache the same way any
//! eviction does: the sweep's store evictions surface as `FullRescan`
//! deltas (`rescanned_hosts`/`rescanned_shards`), so rule 2 of
//! [`ResultCache::invalidate_delta`] broadcasts per owning directory
//! shard. Entries whose dependencies were *pinned* by the stream plane's
//! retention floors (see `StreamPlane::retention_pins`) may still fall to
//! the conservative broadcast — they then re-derive bit-identically,
//! which `tests/streamplane_props.rs` pins across a straddling sweep.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use netsim::packet::NodeId;
use queryplane::{QueryOutcome, SnapshotDelta};
use switchpointer::query::{QueryRequest, QueryResponse, TraceDeps};
use switchpointer::shard::host_shard_of;

/// A retained outcome plus the bookkeeping its validity hangs on.
#[derive(Debug, Clone)]
pub struct CachedResult {
    pub response: QueryResponse,
    pub deps: TraceDeps,
    /// The shard dimension of the dependency set: the directory shards
    /// owning the hosts in `deps` (under the cache's configured shard
    /// count). A sharded deployment broadcasts eviction invalidations per
    /// shard, so entries also fall when a whole owning shard is rescanned.
    pub dep_shards: BTreeSet<usize>,
    /// Snapshot epoch horizon the result was computed at.
    pub computed_at_horizon: u64,
}

/// Bounded LRU of whole query results, keyed by the concrete
/// [`QueryRequest`] itself (a small `Copy + Hash + Eq` enum — no render
/// step on the hot path). Recency is a dual index (request → stamp,
/// stamp → request); stamps are unique so eviction is O(log n).
#[derive(Debug, Default)]
pub struct ResultCache {
    capacity: usize,
    /// Directory shards the dep-shard dimension is computed against
    /// (1 = unsharded: the shard dimension is inert and invalidation is
    /// purely per-host).
    dir_shards: usize,
    entries: HashMap<QueryRequest, (u64, CachedResult)>,
    by_stamp: BTreeMap<u64, QueryRequest>,
    clock: u64,
    hits: u64,
    misses: u64,
    invalidated: u64,
}

impl ResultCache {
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 1)
    }

    /// A cache whose entries carry the directory-shard dimension of their
    /// dependency sets, computed against `dir_shards` shards.
    pub fn with_shards(capacity: usize, dir_shards: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            dir_shards: dir_shards.max(1),
            ..ResultCache::default()
        }
    }

    /// Non-mutating lookup: no recency refresh, no hit/miss accounting.
    /// The stream plane's retention-pin pass reads an entry's dependency
    /// shards through this without perturbing the LRU order.
    pub fn peek(&self, req: &QueryRequest) -> Option<&CachedResult> {
        self.entries.get(req).map(|(_, c)| c)
    }

    /// Looks up a still-valid result for `req`, refreshing recency.
    pub fn lookup(&mut self, req: &QueryRequest) -> Option<CachedResult> {
        self.clock += 1;
        match self.entries.get_mut(req) {
            Some((stamp, cached)) => {
                self.by_stamp.remove(stamp);
                *stamp = self.clock;
                self.by_stamp.insert(self.clock, *req);
                self.hits += 1;
                Some(cached.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a freshly computed outcome for `req` at `horizon`.
    pub fn insert(&mut self, req: &QueryRequest, outcome: &QueryOutcome, horizon: u64) {
        self.clock += 1;
        if let Some((stamp, _)) = self.entries.remove(req) {
            self.by_stamp.remove(&stamp);
        } else if self.entries.len() >= self.capacity {
            if let Some((&oldest, _)) = self.by_stamp.first_key_value() {
                let victim = self.by_stamp.remove(&oldest).unwrap();
                self.entries.remove(&victim);
            }
        }
        self.by_stamp.insert(self.clock, *req);
        let deps = &outcome.trace.deps;
        let dep_shards: BTreeSet<usize> = deps
            .hosts
            .iter()
            .map(|&h| host_shard_of(h, self.dir_shards))
            .collect();
        self.entries.insert(
            *req,
            (
                self.clock,
                CachedResult {
                    response: outcome.response.clone(),
                    deps: deps.clone(),
                    dep_shards,
                    computed_at_horizon: horizon,
                },
            ),
        );
    }

    /// Applies a snapshot delta: drops exactly the entries whose dependency
    /// set intersects the dirty switches/hosts. Returns how many fell.
    pub fn invalidate(&mut self, dirty_switches: &[NodeId], dirty_hosts: &[NodeId]) -> usize {
        self.invalidate_matching(dirty_switches, dirty_hosts, &[])
    }

    /// Full delta invalidation, eviction-aware. Two rules compose:
    ///
    /// 1. *Precise (per host/switch).* Entries whose [`TraceDeps`]
    ///    intersect the delta's dirty switches or hosts fall — this alone
    ///    already covers eviction-forced rescans, because a rescanned host
    ///    is in `dirty_hosts` and every host read is journaled in the
    ///    entry's dep set.
    /// 2. *Shard-granular (eviction broadcast).* When the directory is
    ///    sharded (`dir_shards > 1`) and the delta carries
    ///    eviction-forced full rescans, entries whose dep-shard dimension
    ///    intersects the delta's `rescanned_shards` also fall: a sharded
    ///    deployment invalidates per owning shard (the per-flow journal
    ///    that would allow finer addressing was itself destroyed by the
    ///    eviction). Conservative — dropped entries simply re-derive
    ///    bit-identically. Contract: the snapshot producing the delta and
    ///    this cache are configured with the same directory-shard count
    ///    (both derive from `QueryPlaneConfig::directory_shards`), so the
    ///    delta's precomputed shard set addresses this cache's dimension.
    pub fn invalidate_delta(&mut self, delta: &SnapshotDelta) -> usize {
        let rescanned_shards: &[usize] = if self.dir_shards > 1 {
            &delta.rescanned_shards
        } else {
            &[]
        };
        self.invalidate_matching(&delta.dirty_switches, &delta.dirty_hosts, rescanned_shards)
    }

    fn invalidate_matching(
        &mut self,
        dirty_switches: &[NodeId],
        dirty_hosts: &[NodeId],
        rescanned_shards: &[usize],
    ) -> usize {
        if dirty_switches.is_empty() && dirty_hosts.is_empty() && rescanned_shards.is_empty() {
            return 0;
        }
        let stale: Vec<(QueryRequest, u64)> = self
            .entries
            .iter()
            .filter(|(_, (_, c))| {
                c.deps.intersects(dirty_switches, dirty_hosts)
                    || rescanned_shards.iter().any(|s| c.dep_shards.contains(s))
            })
            .map(|(k, (stamp, _))| (*k, *stamp))
            .collect();
        for (key, stamp) in &stale {
            self.entries.remove(key);
            self.by_stamp.remove(stamp);
        }
        self.invalidated += stale.len() as u64;
        stale.len()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn invalidated(&self) -> u64 {
        self.invalidated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimTime;
    use std::collections::BTreeSet;
    use switchpointer::analyzer::TopKResult;
    use switchpointer::cost::QueryWaveCost;
    use switchpointer::query::ExecutionTrace;
    use switchpointer::shard::ShardFanout;
    use telemetry::EpochRange;

    fn req(switch: u32) -> QueryRequest {
        QueryRequest::TopK {
            switch: NodeId(switch),
            k: 5,
            range: EpochRange { lo: 0, hi: 4 },
        }
    }

    fn outcome(switch: u32, hosts: &[u32]) -> QueryOutcome {
        QueryOutcome {
            response: QueryResponse::TopK(TopKResult {
                flows: vec![],
                hosts_contacted: hosts.len(),
                pointer_retrieval: SimTime::ZERO,
                wave: QueryWaveCost::default(),
            }),
            trace: ExecutionTrace {
                deps: TraceDeps {
                    switches: BTreeSet::from([NodeId(switch)]),
                    hosts: hosts.iter().map(|&h| NodeId(h)).collect(),
                },
                ..ExecutionTrace::default()
            },
            fanout: ShardFanout::default(),
        }
    }

    #[test]
    fn hit_after_insert_and_precise_invalidation() {
        let mut c = ResultCache::new(8);
        assert!(c.lookup(&req(1)).is_none());
        c.insert(&req(1), &outcome(1, &[100]), 7);
        c.insert(&req(2), &outcome(2, &[101]), 7);
        let hit = c.lookup(&req(1)).expect("cached");
        assert_eq!(hit.computed_at_horizon, 7);

        // A delta touching switch 9 / host 100 kills only the entry
        // depending on them.
        assert_eq!(c.invalidate(&[NodeId(9)], &[NodeId(100)]), 1);
        assert!(c.lookup(&req(1)).is_none(), "dependent entry dropped");
        assert!(c.lookup(&req(2)).is_some(), "independent entry survives");

        // An empty delta invalidates nothing.
        assert_eq!(c.invalidate(&[], &[]), 0);
    }

    #[test]
    fn rescans_broadcast_per_shard_when_directory_is_sharded() {
        use queryplane::SnapshotDelta;
        // 4-way shard dimension: an eviction-forced rescan of one host
        // drops every entry depending on the same owning shard; a plain
        // dirty host still only drops exact dep matches.
        let n = 4usize;
        let mut c = ResultCache::with_shards(8, n);
        // Two hosts in the same shard, one in another.
        let mut same_shard: Vec<u32> = Vec::new();
        let mut other: Option<u32> = None;
        for h in 100u32..200 {
            let s = host_shard_of(NodeId(h), n);
            if s == 0 && same_shard.len() < 2 {
                same_shard.push(h);
            } else if s != 0 && other.is_none() {
                other = Some(h);
            }
        }
        let (a, b, o) = (same_shard[0], same_shard[1], other.unwrap());
        c.insert(&req(1), &outcome(1, &[a]), 0);
        c.insert(&req(2), &outcome(2, &[b]), 0);
        c.insert(&req(3), &outcome(3, &[o]), 0);

        // A non-eviction delta dirtying `a` is precise: only entry 1 falls.
        let precise = SnapshotDelta {
            dirty_hosts: vec![NodeId(a)],
            ..SnapshotDelta::default()
        };
        assert_eq!(c.invalidate_delta(&precise), 1);
        assert!(c.lookup(&req(2)).is_some());

        // An eviction rescan of `a` broadcasts to its shard: entry 2
        // (same shard, different host) falls too; the other shard holds.
        c.insert(&req(1), &outcome(1, &[a]), 1);
        let rescan = SnapshotDelta {
            dirty_hosts: vec![NodeId(a)],
            rescanned_hosts: vec![NodeId(a)],
            rescanned_shards: vec![host_shard_of(NodeId(a), n)],
            ..SnapshotDelta::default()
        };
        assert_eq!(c.invalidate_delta(&rescan), 2);
        assert!(c.lookup(&req(2)).is_none(), "same-shard entry must fall");
        assert!(c.lookup(&req(3)).is_some(), "other shard survives");
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.insert(&req(1), &outcome(1, &[]), 0);
        c.insert(&req(2), &outcome(2, &[]), 0);
        assert!(c.lookup(&req(1)).is_some()); // refresh 1 ⇒ 2 is LRU
        c.insert(&req(3), &outcome(3, &[]), 0);
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&req(2)).is_none(), "LRU victim");
        assert!(c.lookup(&req(1)).is_some());
        assert!(c.lookup(&req(3)).is_some());
    }
}
