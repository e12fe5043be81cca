//! The shared fixture: one simulated deployment every workload runs on.
//!
//! A k=8 fat tree (128 hosts, 80 switches) with millisecond epochs; a
//! LOW-priority TCP victim `h0_0_0 → h2_0_0` starved by a 2 ms HIGH UDP
//! burst `h0_0_1 → h2_0_0` at 15 ms; seeded web-search background flows
//! among every host but one; simulated to 40 ms. The seed feeds the
//! background flows, the request order and the open-loop schedule — the
//! planes only ever see the generated inputs.
//!
//! One host (`h2_1_0`) is kept out of the background so that it never
//! appears in any pointer: a `SilentDrop` sweep towards it probes every
//! epoch of its range at every switch of the path, which makes the
//! number of round trips per sweep query the same for every seed.

use std::fmt::Write as _;

use netsim::prelude::*;
use netsim::rng::DetRng;
use netsim::workload;
use switchpointer::query::{QueryRequest, QueryResponse};
use switchpointer::testbed::{Testbed, TestbedConfig};
use switchpointer::Analyzer;
use telemetry::EpochRange;

/// Background flow arrival rate, flows per simulated second.
pub const BACKGROUND_FLOWS_PER_S: f64 = 5000.0;
/// Simulated time at which the fixture is captured.
pub const CAPTURE_MS: u64 = 40;
/// Simulated time the background keeps arriving for (covers every
/// `watch_stream` window any `--seconds` asks for).
const BACKGROUND_END_MS: u64 = 4000;
/// The window the fan-out queries aggregate over.
pub const FANOUT_WINDOW: EpochRange = EpochRange { lo: 5, hi: 35 };
/// The range one sweep query probes, epoch by epoch, at every switch of
/// the path: 5 switches × 100 epochs = 500 round trips (sized so that a
/// run holds the 100 queries a p90 needs).
pub const SWEEP_RANGE: EpochRange = EpochRange { lo: 0, hi: 99 };
/// The range `plane_storm`'s in-process sweeps probe (no socket, so the
/// full 1 000-epoch retention horizon is affordable).
pub const STORM_SWEEP_RANGE: EpochRange = EpochRange { lo: 0, hi: 999 };
/// Seeds tried (derived from the given one) before setup gives up.
const SEED_ATTEMPTS: u64 = 4;

/// Why the fixture could not be built.
#[derive(Debug)]
pub enum SetupError {
    /// The burst did not starve the victim enough for its destination to
    /// raise a trigger, for the seed or any seed derived from it: a
    /// diagnosis on such a victim would panic a pool worker, and the
    /// benchmark must never time a crashed worker.
    NoTrigger { seed: u64 },
    /// The wire cluster (or a client) failed to come up.
    Wire(wireplane::Error),
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::NoTrigger { seed } => write!(
                f,
                "seed {seed}: the victim's destination raised no trigger (nor for {} derived seeds)",
                SEED_ATTEMPTS - 1
            ),
            SetupError::Wire(e) => write!(f, "wire cluster setup failed: {e}"),
        }
    }
}

impl From<wireplane::Error> for SetupError {
    fn from(e: wireplane::Error) -> Self {
        SetupError::Wire(e)
    }
}

pub struct Fixture {
    pub tb: Testbed,
    pub analyzer: Analyzer,
    pub victim: FlowId,
    pub victim_dst: NodeId,
    /// Source of the sweep's never-ran flows.
    pub sweep_src: NodeId,
    /// The host kept out of all traffic.
    pub quiet_dst: NodeId,
    /// The seed the background was actually generated from.
    pub effective_seed: u64,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Fixture {
    /// Builds the deployment and simulates it to [`CAPTURE_MS`]. A seed
    /// whose background happens to keep the trigger from firing is
    /// replaced by the next of a fixed chain derived from it, so the same
    /// `--seed` always yields the same inputs.
    pub fn build(seed: u64) -> Result<Fixture, SetupError> {
        let mut s = seed;
        for _ in 0..SEED_ATTEMPTS {
            if let Some(f) = Self::try_build(s) {
                return Ok(f);
            }
            s = splitmix(s);
        }
        Err(SetupError::NoTrigger { seed })
    }

    fn try_build(seed: u64) -> Option<Fixture> {
        let topo = Topology::fat_tree(8, GBPS);
        let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
        let end = SimTime::from_ms(BACKGROUND_END_MS);
        let (a, b) = (tb.node("h0_0_0"), tb.node("h0_0_1"));
        let victim_dst = tb.node("h2_0_0");
        let (sweep_src, quiet_dst) = (tb.node("h0_1_0"), tb.node("h2_1_0"));
        let victim = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
            a,
            victim_dst,
            Priority::LOW,
            end,
        ));
        tb.sim.add_udp_flow(UdpFlowSpec::burst(
            b,
            victim_dst,
            Priority::HIGH,
            SimTime::from_ms(15),
            SimTime::from_ms(2),
            GBPS,
        ));
        let spec = WorkloadSpec::background(BACKGROUND_FLOWS_PER_S, end);
        let hosts: Vec<NodeId> = tb
            .sim
            .topo()
            .hosts()
            .iter()
            .copied()
            .filter(|&h| h != quiet_dst)
            .collect();
        for g in workload::generate(&spec, &hosts, seed) {
            tb.sim.add_tcp_flow(TcpFlowSpec {
                src: g.src,
                dst: g.dst,
                priority: spec.priority,
                start: g.start,
                bytes: Some(g.bytes),
                stop: None,
                config: spec.tcp,
            });
        }
        tb.sim.run_until(SimTime::from_ms(CAPTURE_MS));
        let analyzer = tb.analyzer();
        let triggered = analyzer
            .host(victim_dst)
            .is_some_and(|h| h.borrow().first_trigger_for(victim).is_some());
        triggered.then_some(Fixture {
            tb,
            analyzer,
            victim,
            victim_dst,
            sweep_src,
            quiet_dst,
            effective_seed: seed,
        })
    }

    /// The three §5 diagnoses of the starved victim.
    pub fn diagnoses(&self) -> [QueryRequest; 3] {
        let (victim, victim_dst) = (self.victim, self.victim_dst);
        let trigger_window = self.tb.cfg.trigger.window;
        [
            QueryRequest::Contention {
                victim,
                victim_dst,
                trigger_window,
            },
            QueryRequest::RedLights {
                victim,
                victim_dst,
                trigger_window,
            },
            QueryRequest::Cascade {
                victim,
                victim_dst,
                trigger_window,
                max_depth: 3,
            },
        ]
    }

    /// The aggregate half of the fan-out mix: `TopK{k:10}` on every
    /// switch and `LoadImbalance` on every 2nd, over `range`.
    pub fn aggregates(&self, range: EpochRange) -> Vec<QueryRequest> {
        let mut out = Vec::new();
        for (i, &switch) in self.analyzer.all_switches().iter().enumerate() {
            out.push(QueryRequest::TopK {
                switch,
                k: 10,
                range,
            });
            if i % 2 == 0 {
                out.push(QueryRequest::LoadImbalance { switch, range });
            }
        }
        out
    }

    /// The fan-out request cycle, ≈ 80:40:10:10:10
    /// `TopK`:`LoadImbalance`:`Contention`:`RedLights`:`Cascade`, in a
    /// seeded shuffle.
    pub fn fanout_requests(&self, seed: u64) -> Vec<QueryRequest> {
        let mut out = self.aggregates(FANOUT_WINDOW);
        for _ in 0..10 {
            out.extend(self.diagnoses());
        }
        shuffle(&mut out, seed ^ 0xfa90_0007);
        out
    }

    /// 16 sweep queries: `SilentDrop` over [`SWEEP_RANGE`] for seeded
    /// flow ids that never ran, towards the quiet host.
    pub fn sweep_requests(&self, seed: u64, n: usize, range: EpochRange) -> Vec<QueryRequest> {
        let mut rng = DetRng::new(seed ^ 0x5eeb_0001);
        (0..n)
            .map(|_| QueryRequest::SilentDrop {
                flow: FlowId((1 << 40) | rng.next_below(1 << 32)),
                src: self.sweep_src,
                dst: self.quiet_dst,
                range,
            })
            .collect()
    }

    /// `plane_storm`'s aggregate batch: `n` requests over 80 switches × 8
    /// windows plus the diagnoses, half of the keys repeated.
    pub fn storm_agg_batch(&self, seed: u64, n: usize) -> Vec<QueryRequest> {
        let mut distinct = Vec::new();
        for w in 0..8u64 {
            distinct.extend(self.aggregates(EpochRange {
                lo: 4 * w,
                hi: 4 * w + 8,
            }));
        }
        distinct.extend(self.diagnoses());
        shuffle(&mut distinct, seed ^ 0x5707_0001);
        distinct.truncate(n / 2);
        let mut rng = DetRng::new(seed ^ 0x5707_0002);
        let mut out = distinct.clone();
        while out.len() < n {
            out.push(distinct[rng.next_below(distinct.len() as u64) as usize]);
        }
        shuffle(&mut out, seed ^ 0x5707_0003);
        out
    }
}

pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut rng = DetRng::new(seed);
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// The correctness gate: answers precomputed by the in-process
/// [`Analyzer`] on the same state, compared by their `Debug` rendering
/// (the repo's bit-identity convention — `QueryResponse` has no `Eq`).
#[derive(Clone)]
pub struct Reference {
    expected: std::sync::Arc<Vec<String>>,
    scratch: String,
}

impl Reference {
    pub fn new(analyzer: &Analyzer, requests: &[QueryRequest]) -> Self {
        Reference {
            expected: std::sync::Arc::new(
                requests
                    .iter()
                    .map(|r| format!("{:?}", analyzer.execute(r)))
                    .collect(),
            ),
            scratch: String::new(),
        }
    }

    /// Whether `resp` is the reference answer to request `i`.
    pub fn matches(&mut self, i: usize, resp: &QueryResponse) -> bool {
        self.scratch.clear();
        write!(self.scratch, "{resp:?}").expect("writing to a String");
        self.scratch == self.expected[i]
    }

    /// [`Reference::matches`] for an answer already rendered elsewhere.
    pub fn matches_text(&self, i: usize, rendered: &str) -> bool {
        rendered == self.expected[i]
    }
}
