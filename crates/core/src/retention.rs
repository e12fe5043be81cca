//! Per-directory-shard retention: the GC pass that keeps a long-lived
//! deployment's state bounded.
//!
//! The paper's analyzer only ever accretes state — every epoch adds flow
//! records at the hosts and archived pointer sets at the switches, so a
//! continuously monitored deployment (and every `queryplane` snapshot
//! frozen over it) grows without bound. This module reclaims what standing
//! queries can no longer reach:
//!
//! * **Flow records** are evicted per *directory shard*
//!   ([`crate::shard::host_shard_of`] groups hosts exactly as the sharded
//!   directory partitions them): shard `s`'s eviction floor is the
//!   policy's trailing epoch horizon, lowered by any *pin* (the oldest
//!   epoch a standing query homed on — or last evaluated against — that
//!   shard can still reach) and raised, up to the pin, by the per-shard
//!   record budget.
//! * **Trigger logs** are trimmed at the same per-shard floor as the
//!   records ([`crate::host::HostComponent::trim_triggers_before`]): a
//!   pinned watch's trigger epoch is at or above its shard's floor, so
//!   resolved watches keep resolving; everything older is reclaimed with
//!   the records it indexed.
//! * **Archived pointer sets** are retired at the minimum floor across
//!   shards ([`crate::pointer::PointerHierarchy::retire_archive_before`],
//!   built on the PR-3 checked [`crate::pointer::PointerConfig`] span
//!   arithmetic): a pointer hierarchy serves decode for every shard, so it
//!   keeps whatever the most conservative shard still needs.
//!
//! A sweep mutates the *live* components. The incremental snapshot layer
//! picks the reclamation up on its next delta: record eviction invalidates
//! the store's per-flow journal and therefore surfaces as a
//! [`crate::hoststore::StoreDelta::FullRescan`] (broadcast per owning
//! shard by the result caches); archive retirement rides the pointer patch
//! as a retired-prefix count. `tests/retention_props.rs` pins
//! `apply_delta`-with-GC ≡ fresh-capture-of-the-truncated-state under
//! arbitrary interleavings, and pins retained-epoch answers against an
//! unswept twin deployment.

use crate::analyzer::Analyzer;
use crate::shard::host_shard_of;

/// What a retention sweep may reclaim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Trailing epochs to keep: the sweep's policy floor is
    /// `newest_epoch − keep_epochs` (saturating). Epochs at or above the
    /// floor are never collected.
    pub keep_epochs: u64,
    /// Maximum resident flow records per directory shard after a sweep.
    /// Enforced by raising that shard's floor past the policy horizon —
    /// but never past a pin, so a subscription's reachable window wins
    /// over the budget (such shards are reported in
    /// [`SweepReport::over_budget_shards`]). `usize::MAX` disables the
    /// budget.
    pub shard_record_budget: usize,
}

impl RetentionPolicy {
    /// A pure epoch-horizon policy with no record budget.
    pub fn horizon(keep_epochs: u64) -> Self {
        RetentionPolicy {
            keep_epochs,
            shard_record_budget: usize::MAX,
        }
    }

    /// A budgeted policy: keep `keep_epochs` trailing epochs, and at most
    /// `shard_record_budget` records per directory shard.
    pub fn budgeted(keep_epochs: u64, shard_record_budget: usize) -> Self {
        RetentionPolicy {
            keep_epochs,
            shard_record_budget,
        }
    }
}

/// What one sweep did, per directory shard and in total.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Newest epoch any switch had seen at sweep time.
    pub newest_epoch: u64,
    /// `newest_epoch − keep_epochs`: the floor before pins and budgets.
    pub policy_floor: u64,
    /// The eviction floor actually applied per shard (pins lower it,
    /// budgets raise it).
    pub floor_per_shard: Vec<u64>,
    /// Flow records evicted per shard.
    pub evicted_per_shard: Vec<usize>,
    /// Flow records resident per shard after the sweep.
    pub resident_per_shard: Vec<usize>,
    /// Shards whose pin kept them above the record budget (best-effort:
    /// reachability wins over the budget).
    pub over_budget_shards: Vec<usize>,
    /// Total flow records evicted.
    pub records_evicted: usize,
    /// Archived pointer sets retired across all switches.
    pub archived_retired: usize,
    /// Trigger-log entries trimmed across all hosts (each shard's trigger
    /// log is trimmed at the same floor as its records, so a pinned
    /// watch's trigger always survives on its shard).
    pub triggers_trimmed: usize,
}

impl SweepReport {
    /// Total flow records resident after the sweep.
    pub fn resident_total(&self) -> usize {
        self.resident_per_shard.iter().sum()
    }

    /// Did the sweep reclaim anything at all?
    pub fn reclaimed_anything(&self) -> bool {
        self.records_evicted > 0 || self.archived_retired > 0 || self.triggers_trimmed > 0
    }
}

/// Newest epoch any switch's pointer hierarchy has seen — the "now" the
/// policy's trailing horizon counts back from.
pub fn newest_epoch(analyzer: &Analyzer) -> u64 {
    analyzer
        .all_switches()
        .into_iter()
        .filter_map(|sw| {
            analyzer
                .switch(sw)
                .expect("listed switch")
                .borrow()
                .pointers
                .last_epoch()
        })
        .max()
        .unwrap_or(0)
}

/// The budget cutoff for one shard: the lowest floor that keeps at most
/// `budget` of the records whose newest epochs are `kept` (sorted
/// descending). Ties at the boundary are evicted wholesale — the budget is
/// a ceiling, not a target. Budget 0 floors past every representable
/// epoch: decoded telemetry ranges widened for clock asynchrony can stamp
/// records *beyond* the switch horizon, and those must go too.
fn budget_cutoff(kept: &[u64], budget: usize) -> u64 {
    if budget == 0 {
        return u64::MAX;
    }
    let e = kept[budget - 1];
    let at_least_e = kept.iter().take_while(|&&x| x >= e).count();
    if at_least_e <= budget {
        e
    } else {
        e.saturating_add(1)
    }
}

/// One retention sweep over the live deployment behind `analyzer`,
/// treating the host set as an `n_shards`-way directory partition.
/// `pins[s]`, when present, is the oldest epoch some standing query can
/// still reach on shard `s`: the sweep never collects at or above it
/// there. An empty/short pin slice means "nothing pinned".
///
/// Mutates the live component state; the caller's snapshot picks the
/// reclamation up on its next `apply_delta`/`refresh_delta`.
pub fn sweep(
    analyzer: &Analyzer,
    policy: RetentionPolicy,
    n_shards: usize,
    pins: &[Option<u64>],
) -> SweepReport {
    sweep_at(analyzer, policy, n_shards, pins, newest_epoch(analyzer))
}

/// Like [`sweep`], with a caller-provided `newest` epoch — callers that
/// already scanned the switches to compute pins (the stream plane's
/// per-window path) avoid a second scan.
pub fn sweep_at(
    analyzer: &Analyzer,
    policy: RetentionPolicy,
    n_shards: usize,
    pins: &[Option<u64>],
    newest: u64,
) -> SweepReport {
    let n_shards = n_shards.max(1);
    let policy_floor = newest.saturating_sub(policy.keep_epochs);

    let mut hosts_by_shard: Vec<Vec<_>> = vec![Vec::new(); n_shards];
    for h in analyzer.all_hosts() {
        hosts_by_shard[host_shard_of(h, n_shards)].push(h);
    }

    let mut report = SweepReport {
        newest_epoch: newest,
        policy_floor,
        ..SweepReport::default()
    };
    for (s, hosts) in hosts_by_shard.iter().enumerate() {
        let pin = pins.get(s).copied().flatten();
        let mut floor = policy_floor.min(pin.unwrap_or(u64::MAX));

        // Budget pass: only when the shard's raw record count (a cheap
        // upper bound on what the horizon floor would keep) can exceed
        // the budget — the steady-state common case skips the epoch scan
        // entirely — collect the kept records' newest epochs, newest
        // first.
        let shard_len: usize = hosts
            .iter()
            .map(|&h| analyzer.host(h).expect("listed host").borrow().store.len())
            .sum();
        if policy.shard_record_budget != usize::MAX && shard_len > policy.shard_record_budget {
            let mut kept: Vec<u64> = Vec::new();
            for &h in hosts {
                let comp = analyzer.host(h).expect("listed host").borrow();
                for rec in comp.store.records() {
                    match rec.newest_epoch() {
                        Some(e) if e >= floor => kept.push(e),
                        _ => {}
                    }
                }
            }
            if kept.len() > policy.shard_record_budget {
                kept.sort_unstable_by(|a, b| b.cmp(a));
                let cutoff = budget_cutoff(&kept, policy.shard_record_budget);
                // Reachability wins: never raise the floor past the pin.
                floor = cutoff.max(floor).min(pin.unwrap_or(u64::MAX));
            }
        }

        // Trigger-log entries below the same floor go with the records:
        // epoch `floor` starts at local time `floor × α` (saturating — a
        // budget-0 floor of `u64::MAX` trims everything).
        let trigger_cutoff =
            netsim::time::SimTime(analyzer.params().alpha.as_ns().saturating_mul(floor));
        let mut evicted = 0usize;
        let mut resident = 0usize;
        for &h in hosts {
            let handle = analyzer.host(h).expect("listed host");
            let mut comp = handle.borrow_mut();
            evicted += comp.store.evict_older_than(floor);
            report.triggers_trimmed += comp.trim_triggers_before(trigger_cutoff);
            resident += comp.store.len();
        }
        if resident > policy.shard_record_budget {
            report.over_budget_shards.push(s);
        }
        report.floor_per_shard.push(floor);
        report.evicted_per_shard.push(evicted);
        report.resident_per_shard.push(resident);
        report.records_evicted += evicted;
    }

    // Pointer hierarchies serve decode for every shard: retire archives at
    // the most conservative (minimum) shard floor.
    let pointer_floor = report
        .floor_per_shard
        .iter()
        .copied()
        .min()
        .unwrap_or(policy_floor);
    for sw in analyzer.all_switches() {
        report.archived_retired += analyzer
            .switch(sw)
            .expect("listed switch")
            .borrow_mut()
            .pointers
            .retire_archive_before(pointer_floor);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_cutoff_handles_ties_and_zero() {
        // 5 records, budget 3: the 3rd newest is 7 and only 3 are ≥ 7.
        assert_eq!(budget_cutoff(&[9, 8, 7, 3, 1], 3), 7);
        // Ties at the boundary: keeping epoch 7 would keep 4 > 3 records,
        // so the whole tie group goes.
        assert_eq!(budget_cutoff(&[9, 7, 7, 7, 1], 3), 8);
        // Budget 0 evicts everything — even records whose asynchrony-
        // widened epoch stamps run past the switch horizon.
        assert_eq!(budget_cutoff(&[5, 4], 0), u64::MAX);
    }
}
