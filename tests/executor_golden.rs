//! The executor's answers, pinned by digest: a seeded mix of all six §5
//! query classes on the storm (`switchpointer::scenarios::storm`),
//! each request's `format!("{response:?}{trace:?}")` hashed and compared
//! against a constant.
//!
//! Every parity test elsewhere compares one view against
//! `Analyzer::execute`, so a change to the executor itself moves both
//! sides together and passes them all. These digests do not move with
//! it: the responses and the traces — pointer rounds and host waves —
//! must stay what they were, over the flat live view, a
//! 4-shard `ShardedAnalyzer` and a 4-shard `BackendRouter` over
//! `LocalBackend`s alike. The in-process query plane's accounting of a
//! batch — fan-out, coalesced copies, executions per class — is pinned
//! the same way.

use netsim::prelude::*;
use netsim::rng::DetRng;
use queryplane::{QueryPlane, QueryPlaneConfig, Snapshot};
use suite::digest::fnv1a;
use switchpointer::host::TriggerEvent;
use switchpointer::query::{
    ExecutionTrace, QueryExecutor, QueryRequest, QueryResponse, QUERY_CLASS_NAMES,
};
use switchpointer::scenarios::{self, Planted, Scenario};
use switchpointer::shard::{BackendRouter, LocalBackend, ShardedAnalyzer, ShardedDirectory};
use switchpointer::testbed::Testbed;
use telemetry::EpochRange;

const SWITCHES: [&str; 8] = [
    "edge0_0", "edge0_1", "agg0_0", "agg0_1", "core0_0", "core1_1", "agg2_0", "edge2_0",
];

/// `N_REQUESTS` requests, the first six one of each class in
/// [`switchpointer::query::QUERY_CLASS_NAMES`] order, the rest drawn from
/// `seed`: windows, switches, `k`, trigger windows and cascade depths.
fn seeded_mix(tb: &Testbed, planted: &Planted, seed: u64) -> Vec<QueryRequest> {
    let (victim, victim_dst) = planted.victim();
    let (burst, cross) = (planted.culprits[0], planted.culprits[1]);
    let background = planted.background[0];
    let sweeps = [
        (victim, "h0_0_0", "h2_0_0"),
        (burst, "h0_0_1", "h2_0_0"),
        (cross, "h0_0_1", "h2_0_1"),
        (background, "h1_0_0", "h3_1_1"),
    ];
    let mut rng = DetRng::new(seed);
    (0..N_REQUESTS as u64)
        .map(|i| {
            let class = if i < 6 { i } else { rng.next_below(6) };
            let lo = rng.next_below(24);
            let range = EpochRange {
                lo,
                hi: lo + rng.next_below(16),
            };
            let switch = tb.node(SWITCHES[rng.next_below(SWITCHES.len() as u64) as usize]);
            let trigger_window = tb.cfg.trigger.window * (1 + rng.next_below(3));
            match class {
                0 => QueryRequest::Contention {
                    victim,
                    victim_dst,
                    trigger_window,
                },
                1 => QueryRequest::RedLights {
                    victim,
                    victim_dst,
                    trigger_window,
                },
                2 => QueryRequest::Cascade {
                    victim,
                    victim_dst,
                    trigger_window,
                    max_depth: 1 + rng.next_below(4) as usize,
                },
                3 => QueryRequest::LoadImbalance { switch, range },
                4 => QueryRequest::TopK {
                    switch,
                    k: 1 + rng.next_below(12) as usize,
                    range,
                },
                _ => {
                    let (flow, src, dst) = sweeps[rng.next_below(4) as usize];
                    QueryRequest::SilentDrop {
                        flow,
                        src: tb.node(src),
                        dst: tb.node(dst),
                        range,
                    }
                }
            }
        })
        .collect()
}

fn digest(resp: &QueryResponse, trace: &ExecutionTrace) -> u64 {
    fnv1a(&format!("{resp:?}{trace:?}"))
}

const SEED: u64 = 0x5eed_0030;
const N_REQUESTS: usize = 40;

/// Per request of `seeded_mix(SEED)`, the digest of its response and
/// trace, as the blocking diagnosis loops computed them before the
/// diagnoses were staged.
#[rustfmt::skip]
const GOLDEN: [u64; N_REQUESTS] = [
    0x9afe77d84d9339bd, // 0: contention
    0x595dfe58123981f6, // 1: red_lights
    0xc4613d5fef4d6108, // 2: cascade
    0xe28bf5f7fd9aaafb, // 3: load_imbalance
    0xb8550795dcc2b33c, // 4: top_k
    0xe0419b8f4c472373, // 5: silent_drop
    0x8f7aa0d574bb5cb2, // 6: cascade
    0x6845e330745061ab, // 7: contention
    0x9f1e84417480125d, // 8: top_k
    0x8dd94e46fe6ea2ac, // 9: top_k
    0x5de9d815084d965a, // 10: top_k
    0xf9f983377e6492fa, // 11: top_k
    0xb41420a7fe57eca7, // 12: cascade
    0xa3c9852b042920a5, // 13: silent_drop
    0xdc0ed2218d0081aa, // 14: load_imbalance
    0xfc90350ff99ecbfa, // 15: contention
    0xbb3e91e960d782eb, // 16: cascade
    0x9afe77d84d9339bd, // 17: contention
    0x6845e330745061ab, // 18: contention
    0xbd006f8515f57260, // 19: silent_drop
    0x9afe77d84d9339bd, // 20: contention
    0x462a44cda7a4c014, // 21: load_imbalance
    0xb41420a7fe57eca7, // 22: cascade
    0xb081c2422b368612, // 23: silent_drop
    0xfc90350ff99ecbfa, // 24: contention
    0xfc90350ff99ecbfa, // 25: contention
    0x5846edc1eb27a265, // 26: cascade
    0xb67a6e99b271c3bb, // 27: silent_drop
    0x4a1bd1c77e5b2f01, // 28: silent_drop
    0xb68954079645ebd0, // 29: load_imbalance
    0x595dfe58123981f6, // 30: red_lights
    0xb9e32c50b28ab99c, // 31: load_imbalance
    0x2f9f5e2aacfc114e, // 32: red_lights
    0xfb9b3e3cb41a634f, // 33: cascade
    0x806d7f40b6399896, // 34: silent_drop
    0xab78e5c3e37b313c, // 35: load_imbalance
    0x06045415771900d3, // 36: silent_drop
    0x2f9f5e2aacfc114e, // 37: red_lights
    0xad06942f1e236347, // 38: silent_drop
    0xa5d2494ccb41b06e, // 39: red_lights
];

/// Compares `got` against [`GOLDEN`], printing the whole table on a
/// mismatch so a change that is *meant* to move an answer can say which.
fn assert_golden(what: &str, reqs: &[QueryRequest], got: &[u64]) {
    if got != GOLDEN {
        for (i, (req, d)) in reqs.iter().zip(got).enumerate() {
            let mark = if *d == GOLDEN[i] { "" } else { "   <- moved" };
            println!("    {d:#018x}, // {i}: {}{mark}", req.class_name());
        }
        panic!("{what}: executor answers moved against the pinned digests");
    }
}

#[test]
fn executor_answers_match_the_pinned_digests() {
    let Scenario { tb, planted } = scenarios::storm("h2_0_0", true).run();
    let analyzer = tb.analyzer();
    let reqs = seeded_mix(&tb, &planted, SEED);
    for class in 0..6 {
        assert!(
            reqs.iter().any(|r| r.class_index() == class),
            "the mix lacks class {class}"
        );
    }

    // The flat live view: what `Analyzer::execute` runs.
    let live = analyzer.live_view();
    let flat: Vec<u64> = reqs
        .iter()
        .map(|req| {
            let (resp, trace) = QueryExecutor::new(analyzer.ctx(), &live).execute_traced(req);
            assert_eq!(format!("{resp:?}"), format!("{:?}", analyzer.execute(req)));
            digest(&resp, &trace)
        })
        .collect();
    assert_golden("Analyzer::execute", &reqs, &flat);

    let sharded = ShardedAnalyzer::new(&analyzer, 4);
    let through_shards: Vec<u64> = reqs
        .iter()
        .map(|req| {
            let (resp, trace, _) = sharded.execute_traced(req);
            digest(&resp, &trace)
        })
        .collect();
    assert_golden("ShardedAnalyzer (4 shards)", &reqs, &through_shards);

    let snapshot = Snapshot::capture(&analyzer, 8);
    let dir = ShardedDirectory::new(
        analyzer.directory().mphf().clone(),
        &analyzer.all_hosts(),
        4,
    );
    let backends: Vec<LocalBackend<'_, Snapshot>> = dir
        .shards()
        .iter()
        .map(|s| LocalBackend::new(s, &snapshot))
        .collect();
    let through_backends: Vec<u64> = reqs
        .iter()
        .map(|req| {
            let router = BackendRouter::new(&backends, &dir);
            let (resp, trace) = QueryExecutor::new(analyzer.ctx(), &router).execute_traced(req);
            digest(&resp, &trace)
        })
        .collect();
    assert_golden(
        "BackendRouter<LocalBackend> (4 shards)",
        &reqs,
        &through_backends,
    );
}

/// Per directory shard count, the digest of [`plane_accounting`] after
/// one batch of the mix submitted twice.
const PLANE_GOLDEN: [(usize, u64); 2] = [(1, 0x92d9ee432ad68586), (4, 0x873f756ae40a37e9)];

/// What a query plane's registry says one batch cost: the cumulative
/// per-shard fan-out, the service counters and the executions per class.
fn plane_accounting(plane: &QueryPlane) -> String {
    let snap = plane.metrics().snapshot();
    let mut text = format!("{:?}", plane.fanout());
    for name in ["queries", "coalesced", "batches"] {
        text += &format!(" {name}={}", snap.counter(&format!("queryplane.{name}")));
    }
    for class in QUERY_CLASS_NAMES {
        let runs = snap
            .hist(&format!("queryplane.exec_ns.{class}"))
            .map_or(0, |h| h.count);
        text += &format!(" {class}={runs}");
    }
    text
}

/// `QueryPlane::execute_batch` over the mix submitted twice in one batch,
/// at 1 and 4 directory shards: every slot answers with its request's
/// pinned digest, and the plane's accounting digests to a pinned value.
#[test]
fn query_plane_batches_match_the_pinned_digests() {
    let Scenario { tb, planted } = scenarios::storm("h2_0_0", true).run();
    let analyzer = tb.analyzer();
    let mix = seeded_mix(&tb, &planted, SEED);
    let reqs: Vec<QueryRequest> = mix.iter().chain(&mix).copied().collect();
    for (directory_shards, want) in PLANE_GOLDEN {
        let mut plane = QueryPlane::from_analyzer(
            &analyzer,
            QueryPlaneConfig {
                workers: 2,
                shards: 8,
                directory_shards,
                retention: None,
            },
        );
        let outcomes = plane.execute_batch(&reqs);
        let got: Vec<u64> = outcomes
            .iter()
            .map(|o| digest(&o.response, &o.trace))
            .collect();
        for half in got.chunks(N_REQUESTS) {
            assert_golden(
                &format!("QueryPlane ({directory_shards} directory shards)"),
                &mix,
                half,
            );
        }
        let accounting = plane_accounting(&plane);
        assert_eq!(
            fnv1a(&accounting),
            want,
            "plane accounting moved at {directory_shards} directory shards: {accounting}"
        );
    }
}

/// The typed `Analyzer` wrappers answer what they always answered:
/// `diagnose_contention`, `diagnose_contention_at` (for a trigger 2 ms
/// after the victim's first, so its epoch window differs),
/// `diagnose_red_lights` and `diagnose_cascade` on the fixture's victim,
/// digested as above.
#[test]
fn analyzer_wrappers_match_the_pinned_digests() {
    let Scenario { tb, planted } = scenarios::storm("h2_0_0", true).run();
    let (victim, _) = planted.victim();
    let analyzer = tb.analyzer();
    let dst = tb.node("h2_0_0");
    let w = tb.cfg.trigger.window;
    let first = *tb.hosts[&dst]
        .borrow()
        .first_trigger_for(victim)
        .expect("the victim raised a trigger");
    let later = TriggerEvent {
        at: first.at + SimTime::from_ms(2),
        ..first
    };
    let got = [
        fnv1a(&format!(
            "{:?}",
            analyzer.diagnose_contention(victim, dst, w)
        )),
        fnv1a(&format!(
            "{:?}",
            analyzer.diagnose_contention_at(victim, dst, w, &later)
        )),
        fnv1a(&format!(
            "{:?}",
            analyzer.diagnose_red_lights(victim, dst, w)
        )),
        fnv1a(&format!(
            "{:?}",
            analyzer.diagnose_cascade(victim, dst, w, 3)
        )),
    ];
    let want: [u64; 4] = [
        0x2be351850489bd7a,
        0xa933e4f3195e4018,
        0xacc291ef413f8568,
        0x253accefb42c394b,
    ];
    assert_eq!(got, want, "Analyzer wrappers moved; got {got:#018x?}");
}
