//! The ranged presence probe's contract:
//!
//! (a) **`PointerHierarchy::contains_exact_in` ≡ the per-epoch loop.** One
//!     hash plus a scan of the level-1 slots answers exactly what
//!     `(lo..=hi).any(|e| contains_within(addr, e, 1) == Some(true))`
//!     answers — over random `(α, k)` including `k = 1`, histories that
//!     recycle level-1 slots and carry late packets, unknown addresses,
//!     and ranges that start at 0, end at `u64::MAX`, or lie wholly
//!     before or after the live window.
//! (b) **`StateView::presence_wave` ≡ `presence_by_epoch`** for every view
//!     that overrides it: `Snapshot`, and a coalescing `BackendRouter` over
//!     `LocalBackend`s of the snapshot and of the live view (what
//!     `ShardedAnalyzer` routes over) at 1/2/4/8 directory shards — while
//!     the router pays one backend call per wave, not one per
//!     `(switch, epoch)`.

use std::sync::Arc;

use mphf::Mphf;
use netsim::prelude::*;
use proptest::prelude::*;
use queryplane::Snapshot;
use switchpointer::pointer::{PointerConfig, PointerHierarchy};
use switchpointer::query::{presence_by_epoch, StateView};
use switchpointer::scenarios::{self, Scenario};
use switchpointer::shard::{BackendRouter, LocalBackend, ShardedDirectory};
use telemetry::EpochRange;

const N_HOSTS: usize = 16;

fn hierarchy(alpha: u32, k: usize) -> (PointerHierarchy, Vec<u64>) {
    let addrs: Vec<u64> = (0..N_HOSTS as u64).map(|i| 0x0a00_0000 + i).collect();
    let mphf = Arc::new(Mphf::build(&addrs).unwrap());
    let cfg = PointerConfig {
        n_hosts: N_HOSTS,
        alpha,
        k,
    };
    (PointerHierarchy::new(cfg, mphf), addrs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ranged_probe_equals_per_epoch_loop(
        alpha in 2u32..7,
        k in 1usize..4,
        // (address index — ≥ N_HOSTS is outside the MPHF key set, epoch
        // advance, how far behind "now" the packet claims to be).
        steps in prop::collection::vec((0usize..20, 0u64..16, 0u64..12), 0..60),
        ranges in prop::collection::vec((0u64..120, 0u64..40), 1..12),
    ) {
        let (mut h, addrs) = hierarchy(alpha, k);
        let addr_of = |i: usize| addrs.get(i).copied().unwrap_or(0xdead_0000 + i as u64);
        let mut now = 0u64;
        let mut newest: Option<(u64, u64)> = None;
        for (ai, advance, late) in steps {
            // Small advances keep slots live, large ones recycle whole
            // levels; one packet in four arrives for an already-passed
            // epoch (never recorded over newer state).
            now += advance;
            let epoch = if late % 4 == 0 { now.saturating_sub(late) } else { now };
            h.update(addr_of(ai), epoch);
            // Unknown destinations never rotate a slot, so "newest" is
            // over recorded (known-address) updates only.
            if ai < N_HOSTS && newest.is_none_or(|(_, e)| epoch >= e) {
                newest = Some((addr_of(ai), epoch));
            }
        }
        // Not vacuous: the newest recorded update is always still live.
        if let Some((addr, epoch)) = newest {
            prop_assert!(h.contains_exact_in(addr, epoch, epoch));
            prop_assert!(h.contains_exact_in(addr, 0, u64::MAX));
        }
        // No slot is ever labelled with an epoch that was never written,
        // so beyond `now` the per-epoch probe cannot answer `Some(true)`;
        // the reference loop may stop a safe margin past it. Spot-checked
        // here rather than assumed.
        let margin = now + 2 * alpha as u64 + 2;
        for ai in 0..20 {
            for e in [now + 1, margin, u64::MAX / 2, u64::MAX] {
                prop_assert_ne!(h.contains_within(addr_of(ai), e, 1), Some(true));
            }
        }
        let reference = |addr: u64, lo: u64, hi: u64| {
            (lo..=hi.min(margin)).any(|e| h.contains_within(addr, e, 1) == Some(true))
        };

        let mut cases: Vec<(u64, u64)> = ranges.iter().map(|&(lo, len)| (lo, lo + len)).collect();
        cases.extend([
            (0, 0),
            (0, now),
            (0, u64::MAX),
            (now, u64::MAX),
            (now + 1, u64::MAX),                             // wholly after
            (u64::MAX, u64::MAX),
            (0, now.saturating_sub(alpha as u64 + 1)),       // wholly before level 1's window
            (now.saturating_sub(alpha as u64 - 1), now),     // exactly the live window
            (now, now),                                      // one epoch
            (5, 4),                                          // inverted: empty
        ]);
        for (lo, hi) in cases {
            for ai in 0..20 {
                let addr = addr_of(ai);
                prop_assert_eq!(
                    h.contains_exact_in(addr, lo, hi),
                    reference(addr, lo, hi),
                    "alpha={} k={} now={} addr#{} range=[{}, {}]",
                    alpha, k, now, ai, lo, hi
                );
            }
        }
    }
}

#[test]
fn presence_wave_equals_per_epoch_loop_on_every_overriding_view() {
    // A fat tree under mixed traffic, long enough that level-1 slots have
    // recycled several times (default α = 10 epochs of 1 ms).
    let Scenario { tb, .. } = scenarios::storm("h2_0_1", false).run();
    let analyzer = tb.analyzer();
    let snapshot = Snapshot::capture(&analyzer, 8);
    let live = analyzer.live_view();

    let mut switches: Vec<NodeId> = tb.switches.keys().copied().collect();
    switches.sort();
    let mut hosts: Vec<NodeId> = tb.hosts.keys().copied().collect();
    hosts.sort();
    // Addresses: every host, plus one outside the directory.
    let mut addrs: Vec<u64> = hosts.iter().map(|h| h.addr()).collect();
    addrs.push(0xdead_beef);

    let mut rng = proptest::rng_for("presence wave view parity");
    let mut waves: Vec<(Vec<NodeId>, EpochRange)> = vec![
        (Vec::new(), EpochRange { lo: 0, hi: 50 }),
        (switches.clone(), EpochRange { lo: 0, hi: 60 }),
        (switches.clone(), EpochRange { lo: 31, hi: 40 }),
        (switches.clone(), EpochRange { lo: 50, hi: 90 }),
        (switches.clone(), EpochRange { lo: 7, hi: 3 }),
    ];
    for _ in 0..24 {
        // A random path-like list: a few switches, sometimes a node with
        // no pointer component (a host), sometimes a repeat.
        let mut list: Vec<NodeId> = (0..1 + rng.below(6))
            .map(|_| switches[rng.below(switches.len() as u64) as usize])
            .collect();
        if rng.below(3) == 0 {
            list.push(hosts[rng.below(hosts.len() as u64) as usize]);
        }
        let lo = rng.below(60);
        waves.push((
            list,
            EpochRange {
                lo,
                hi: lo + rng.below(30),
            },
        ));
    }

    let dirs: Vec<ShardedDirectory> = [1usize, 2, 4, 8]
        .iter()
        .map(|&n| {
            ShardedDirectory::new(
                analyzer.directory().mphf().clone(),
                &analyzer.all_hosts(),
                n,
            )
        })
        .collect();

    let mut hits = 0usize;
    for (list, range) in &waves {
        for &addr in &addrs {
            let want = presence_by_epoch(&snapshot, list, addr, *range);
            hits += want.iter().filter(|&&p| p).count();
            assert_eq!(
                snapshot.presence_wave(list, addr, *range),
                want,
                "Snapshot diverged: {list:?} {addr:#x} {range}"
            );
            // The ranged form's cost does not depend on the range, so it
            // can afford the unbounded sweep the loop cannot: nothing is
            // recorded past the horizon, so it must equal the loop
            // clamped there.
            let clamped = EpochRange {
                lo: range.lo,
                hi: snapshot.epoch_horizon() + 50,
            };
            assert_eq!(
                snapshot.presence_wave(
                    list,
                    addr,
                    EpochRange {
                        lo: range.lo,
                        hi: u64::MAX
                    }
                ),
                presence_by_epoch(&snapshot, list, addr, clamped),
                "unbounded sweep diverged: {list:?} {addr:#x} from {}",
                range.lo
            );

            for dir in &dirs {
                let n_shards = dir.n_shards();
                let live_backends = dir.local_backends(&live);
                let over_live = BackendRouter::new(&live_backends, dir);
                assert_eq!(
                    over_live.presence_wave(list, addr, *range),
                    want,
                    "the live-view router diverged at {n_shards} shards"
                );
                let backends: Vec<LocalBackend<'_, Snapshot>> = dir
                    .shards()
                    .iter()
                    .map(|s| LocalBackend::new(s, &snapshot))
                    .collect();
                let router = BackendRouter::new(&backends, dir);
                assert_eq!(
                    router.presence_wave(list, addr, *range),
                    want,
                    "BackendRouter diverged at {n_shards} shards"
                );
                // The count the wave exists for: one backend call and one
                // round per non-empty wave, whatever the range length.
                let c = router.counters();
                let expect = u64::from(!list.is_empty());
                assert_eq!((c.rpcs, c.rounds), (expect, expect));
                // The naive regime keeps the per-epoch call pattern (it
                // is the baseline) — and the same answers.
                let naive = BackendRouter::new(&backends, dir).without_coalescing();
                assert_eq!(naive.presence_wave(list, addr, *range), want);
                if want.iter().any(|&p| !p) && range.hi > range.lo {
                    assert!(
                        naive.counters().rpcs > 1,
                        "the naive router must still probe epoch by epoch"
                    );
                }
            }
        }
    }
    assert!(hits > 0, "fixture must include present destinations");
}
