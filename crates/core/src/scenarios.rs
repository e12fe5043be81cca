//! The scenario catalogue: every traffic scenario the tests, examples and
//! figures run, each built by one named function.
//!
//! A scenario is a pure function of topology, flow specs and seed (DESIGN
//! §2): a builder wires a [`Testbed`], registers its flows in a fixed
//! order — the order fixes the flow ids, and through them the ECMP paths
//! — and returns it unrun beside a [`Planted`] record written from the
//! same inputs: the victim the scenario harms, the flows planted to harm
//! it and, where the scenario defines them, the switch each red light
//! sits at or the links of a cascade. [`Scenario::run`] runs it to its
//! horizon; a caller that steps the simulation itself (a stream of
//! windows, clock offsets set first) runs it by hand. `tests/scenarios.rs`
//! pins the state each builder leaves at its horizon.

use netsim::engine::TcpFlowSpec;
use netsim::packet::{FlowId, NodeId, Priority};
use netsim::tcp::TcpConfig;
use netsim::time::SimTime;
use netsim::topology::{Topology, GBPS};
use netsim::udp::UdpFlowSpec;
use netsim::workload::{self, FlowSizeDist, WorkloadSpec};
use telemetry::EpochRange;

use crate::query::QueryRequest;
use crate::testbed::{Testbed, TestbedConfig};

/// A built scenario: the deployment, its flows registered, and what the
/// generator planted in it.
pub struct Scenario {
    pub tb: Testbed,
    pub planted: Planted,
}

/// The ground truth a scenario's generator put there, from its own inputs
/// (never from a verdict).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planted {
    /// The flow the scenario harms and the destination host that raises
    /// its trigger; `None` where nothing is harmed.
    pub victim: Option<(FlowId, NodeId)>,
    /// The flows planted to harm the victim, in registration order.
    pub culprits: Vec<FlowId>,
    /// Every other flow, in registration order.
    pub background: Vec<FlowId>,
    /// Red lights: each switch on the victim's path where a burst delays
    /// it, with that burst, in path order.
    pub per_switch: Vec<(NodeId, FlowId)>,
    /// A cascade: each link `(victim, switch, culprit)`, from the flow
    /// that triggers back to the flow that started it.
    pub chain: Vec<(FlowId, NodeId, FlowId)>,
    /// When the planted incident is over: the victim has triggered by now.
    pub horizon: SimTime,
}

impl Planted {
    /// The victim and its destination host; panics on a scenario that
    /// harms no flow.
    pub fn victim(&self) -> (FlowId, NodeId) {
        self.victim.expect("this scenario plants no victim")
    }

    /// Nothing harmed: only `background` flows, over by `horizon`.
    fn quiet(background: Vec<FlowId>, horizon: SimTime) -> Self {
        Planted {
            victim: None,
            culprits: Vec::new(),
            background,
            per_switch: Vec::new(),
            chain: Vec::new(),
            horizon,
        }
    }
}

impl Scenario {
    /// Runs the simulation to the scenario's horizon.
    pub fn run(mut self) -> Self {
        self.tb.sim.run_until(self.planted.horizon);
        self
    }
}

/// A LOW-priority 100 Mb/s UDP flow from `s` to `d`, from `start_ms` for
/// `ms` milliseconds.
fn udp(tb: &mut Testbed, s: &str, d: &str, start_ms: u64, ms: u64) -> FlowId {
    let (src, dst) = (tb.node(s), tb.node(d));
    tb.sim.add_udp_flow(UdpFlowSpec {
        src,
        dst,
        priority: Priority::LOW,
        start: SimTime::from_ms(start_ms),
        duration: SimTime::from_ms(ms),
        rate_bps: 100_000_000,
        payload_bytes: 1458,
    })
}

/// The fat-tree incident: on a k = 4 fat tree, a LOW TCP flow
/// `h0_0_0 → h2_0_0` running until 40 ms and a HIGH line-rate burst
/// `h0_0_1 → burst_dst` over 15–17 ms; with `cross`, a MID 300 Mb/s flow
/// `h0_0_1 → h2_0_1` over 10–20 ms shares the TCP flow's path. The `lead`
/// backgrounds register before the TCP flow, the `trailing` ones after the
/// burst (and cross flow); each is 100 Mb/s over the first 30 ms. Where
/// the builder `starves` the TCP flow it is the victim and the burst and
/// cross flow its culprits; otherwise every flow is a background.
fn fat_tree_incident(
    lead: &[(&str, &str)],
    burst_dst: &str,
    starves: bool,
    cross: bool,
    trailing: &[(&str, &str)],
) -> Scenario {
    let mut tb = Testbed::new(Topology::fat_tree(4, GBPS), TestbedConfig::default_ms());
    let mut background: Vec<FlowId> = lead
        .iter()
        .map(|&(s, d)| udp(&mut tb, s, d, 0, 30))
        .collect();
    let (a, b, da) = (tb.node("h0_0_0"), tb.node("h0_0_1"), tb.node("h2_0_0"));
    let victim = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        da,
        Priority::LOW,
        SimTime::from_ms(40),
    ));
    let mut culprits = vec![tb.sim.add_udp_flow(UdpFlowSpec::burst(
        b,
        tb.node(burst_dst),
        Priority::HIGH,
        SimTime::from_ms(15),
        SimTime::from_ms(2),
        GBPS,
    ))];
    if cross {
        culprits.push(tb.sim.add_udp_flow(UdpFlowSpec {
            src: b,
            dst: tb.node("h2_0_1"),
            priority: Priority::MID,
            start: SimTime::from_ms(10),
            duration: SimTime::from_ms(10),
            rate_bps: 300_000_000,
            payload_bytes: 1458,
        }));
    }
    background.extend(trailing.iter().map(|&(s, d)| udp(&mut tb, s, d, 0, 30)));
    let horizon = SimTime::from_ms(40);
    let planted = if starves {
        Planted {
            victim: Some((victim, da)),
            culprits,
            ..Planted::quiet(background, horizon)
        }
    } else {
        let n = lead.len();
        background.splice(n..n, std::iter::once(victim).chain(culprits));
        Planted::quiet(background, horizon)
    };
    Scenario { tb, planted }
}

/// The storm: the fat-tree incident with one cross-pod background
/// `h1_0_0 → h3_1_1`, its burst aimed at `burst_dst`. Aimed at the TCP
/// flow's own destination `h2_0_0`, the burst shares its last hop
/// whatever ECMP does upstream, so the TCP flow starves and its trigger
/// fires; with `cross`, the diagnoses also find a culprit on a host other
/// than the victim's. Aimed anywhere else, the burst takes another uplink
/// under this flow-id order and nothing is harmed.
pub fn storm(burst_dst: &str, cross: bool) -> Scenario {
    fat_tree_incident(
        &[],
        burst_dst,
        burst_dst == "h2_0_0",
        cross,
        &[("h1_0_0", "h3_1_1")],
    )
}

/// The `query_storm` example's deployment: the fat-tree incident, its
/// burst onto the TCP flow's own destination `h2_0_0`, with three
/// cross-pod backgrounds. As in [`storm`] aimed there, the burst shares
/// the TCP flow's last hop, so the TCP flow starves and is the victim
/// whose trigger the storm's diagnoses anchor on.
pub fn query_storm() -> Scenario {
    fat_tree_incident(
        &[],
        "h2_0_0",
        true,
        false,
        &[
            ("h1_0_0", "h3_1_1"),
            ("h1_1_0", "h2_1_1"),
            ("h3_0_0", "h0_1_0"),
        ],
    )
}

/// The directory-sharding ablation: the fat-tree incident, its burst onto
/// `h2_0_1`, with 12 backgrounds to 12 distinct destinations across all
/// pods, so pointer unions decode many hosts. As in [`storm`] the burst
/// misses the TCP flow, so every flow is a background.
pub fn directory_ablation() -> Scenario {
    fat_tree_incident(
        &[],
        "h2_0_1",
        false,
        false,
        &[
            ("h0_0_0", "h2_0_0"),
            ("h0_0_1", "h2_0_1"),
            ("h0_1_0", "h2_1_0"),
            ("h0_1_1", "h2_1_1"),
            ("h1_0_0", "h3_0_0"),
            ("h1_0_1", "h3_0_1"),
            ("h1_1_0", "h3_1_0"),
            ("h1_1_1", "h3_1_1"),
            ("h2_0_0", "h0_0_0"),
            ("h2_1_0", "h0_1_0"),
            ("h3_0_0", "h1_0_0"),
            ("h3_1_0", "h1_1_0"),
        ],
    )
}

/// The backgrounds [`watch`] adds after its own two, in order.
const WATCH_EXTRA: [(&str, &str); 21] = [
    ("h3_0_0", "h0_1_0"),
    ("h0_0_0", "h2_0_0"),
    ("h0_0_1", "h2_0_1"),
    ("h0_1_0", "h2_1_0"),
    ("h0_1_1", "h2_1_1"),
    ("h1_0_0", "h3_0_0"),
    ("h1_0_1", "h3_0_1"),
    ("h1_1_0", "h3_1_0"),
    ("h1_1_1", "h3_1_1"),
    ("h2_0_0", "h0_0_0"),
    ("h2_0_1", "h0_0_1"),
    ("h2_1_0", "h0_1_0"),
    ("h2_1_1", "h0_1_1"),
    ("h3_0_0", "h1_0_0"),
    ("h3_0_1", "h1_0_1"),
    ("h3_1_0", "h1_1_0"),
    ("h3_1_1", "h1_1_1"),
    ("h0_1_0", "h3_0_0"),
    ("h0_1_1", "h3_0_1"),
    ("h1_0_0", "h2_0_0"),
    ("h1_0_1", "h2_0_1"),
];

/// The continuous-watch deployment: the fat-tree incident, its burst onto
/// `h2_0_1`, between the backgrounds `h1_0_0 → h3_1_1` (registered first)
/// and `h1_1_0 → h2_1_1`, plus the first `extra` of 21 more cross-pod
/// backgrounds (1 in the `continuous_watch` example, all 21 for a fabric
/// whose pointer unions decode many hosts). This flow-id order puts the
/// victim's and the burst's ECMP hashes on the same `edge0_0` uplink, so
/// the burst starves the victim at 15 ms and its trigger fires.
pub fn watch(extra: usize) -> Scenario {
    let mut trailing = vec![("h1_1_0", "h2_1_1")];
    trailing.extend_from_slice(&WATCH_EXTRA[..extra]);
    fat_tree_incident(&[("h1_0_0", "h3_1_1")], "h2_0_1", true, false, &trailing)
}

/// The churn storm: the continuous-watch contention incident on a k = 4
/// fat tree with 40 ms backgrounds and a victim that runs until 50 ms —
/// the flow-id order (background, victim, burst, background) fixes the
/// victim/burst ECMP collision at `edge0_0`, so the HIGH-priority burst
/// starves the TCP victim at 15 ms and its destination raises a trigger —
/// plus caller-chosen churn waves `(src, dst, start_ms, duration_ms)`
/// whose records go stale one wave at a time (the reclaimable tail
/// retention sweeps chew through).
pub fn churn_storm(waves: &[(&str, &str, u64, u64)]) -> Scenario {
    let mut tb = Testbed::new(Topology::fat_tree(4, GBPS), TestbedConfig::default_ms());
    let mut background = vec![udp(&mut tb, "h1_0_0", "h3_1_1", 0, 40)];
    let (a, b) = (tb.node("h0_0_0"), tb.node("h0_0_1"));
    let (da, db) = (tb.node("h2_0_0"), tb.node("h2_0_1"));
    let victim = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        da,
        Priority::LOW,
        SimTime::from_ms(50),
    ));
    let burst = tb.sim.add_udp_flow(UdpFlowSpec::burst(
        b,
        db,
        Priority::HIGH,
        SimTime::from_ms(15),
        SimTime::from_ms(2),
        GBPS,
    ));
    background.push(udp(&mut tb, "h3_0_0", "h0_1_0", 0, 40));
    for &(s, d, start, ms) in waves {
        background.push(udp(&mut tb, s, d, start, ms));
    }
    Scenario {
        tb,
        planted: Planted {
            victim: Some((victim, da)),
            culprits: vec![burst],
            ..Planted::quiet(background, SimTime::from_ms(50))
        },
    }
}

/// The chain watch: the S1—S2—S3 chain under `cfg`, with one long UDP
/// flow `A → F`, one staggered UDP flow `B → D` and a TCP transfer
/// `D → A`, so pointer slots rotate and several host stores keep mutating
/// as time advances. Nothing is harmed; the long flow is the first
/// background.
pub fn chain_watch(cfg: TestbedConfig) -> Scenario {
    let mut tb = Testbed::new(Topology::chain(3, 2, GBPS), cfg);
    let (a, b) = (tb.node("A"), tb.node("B"));
    let (d, f) = (tb.node("D"), tb.node("F"));
    let long = tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::LOW,
        start: SimTime::ZERO,
        duration: SimTime::from_ms(30),
        rate_bps: 80_000_000,
        payload_bytes: 1458,
    });
    let staggered = tb.sim.add_udp_flow(UdpFlowSpec {
        src: b,
        dst: d,
        priority: Priority::LOW,
        start: SimTime::from_ms(4),
        duration: SimTime::from_ms(10),
        rate_bps: 60_000_000,
        payload_bytes: 1000,
    });
    let transfer = tb.sim.add_tcp_flow(TcpFlowSpec::transfer(
        d,
        a,
        Priority::LOW,
        SimTime::ZERO,
        400_000,
    ));
    let planted = Planted::quiet(vec![long, staggered, transfer], SimTime::from_ms(30));
    Scenario { tb, planted }
}

/// A 3-switch chain that carries one short UDP flow `A → F` end to end:
/// 100 Mb/s over the first 2 ms, over by the 5 ms horizon.
pub fn one_flow_chain() -> Scenario {
    let mut tb = Testbed::new(Topology::chain(3, 2, GBPS), TestbedConfig::default_ms());
    let flow = udp(&mut tb, "A", "F", 0, 2);
    let planted = Planted::quiet(vec![flow], SimTime::from_ms(5));
    Scenario { tb, planted }
}

/// Too many red lights (§2.2 / §5.2): a LOW TCP victim `A → F` across
/// S1—S2—S3 until 30 ms, delayed a little at S1 by a 400 µs HIGH burst
/// `B → D` at 10 ms and at S2 by another, `C → E`, right after.
pub fn red_lights() -> Scenario {
    let mut tb = Testbed::new(Topology::chain(3, 2, GBPS), TestbedConfig::default_ms());
    let (a, f) = (tb.node("A"), tb.node("F"));
    let victim = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        f,
        Priority::LOW,
        SimTime::from_ms(30),
    ));
    let mut light = |s: &str, d: &str, at_us: u64| {
        let (src, dst) = (tb.node(s), tb.node(d));
        tb.sim.add_udp_flow(UdpFlowSpec::burst(
            src,
            dst,
            Priority::HIGH,
            SimTime::from_us(at_us),
            SimTime::from_us(400),
            GBPS,
        ))
    };
    let bd = light("B", "D", 10_000);
    let ce = light("C", "E", 10_400);
    let per_switch = vec![(tb.node("S1"), bd), (tb.node("S2"), ce)];
    Scenario {
        tb,
        planted: Planted {
            victim: Some((victim, f)),
            culprits: vec![bd, ce],
            per_switch,
            ..Planted::quiet(Vec::new(), SimTime::from_ms(30))
        },
    }
}

/// The traffic cascade (§2.3 / §5.3) on the S1—S2—S3 chain: HIGH `B → D`
/// at 950 Mb/s for 10 ms, MID `A → F` the same over 10–20 ms, and a LOW
/// 2 MB TCP transfer `C → E` from 20.5 ms, as `A → F` should have
/// finished. `overlapping` starts `B → D` at 14 ms, into `A → F`'s window
/// at S1, whose stretched tail then delays `C → E` at S2; otherwise
/// `B → D` runs over 0–10 ms and nothing is harmed.
pub fn traffic_cascade(overlapping: bool) -> Scenario {
    let mut tb = Testbed::new(Topology::chain(3, 2, GBPS), TestbedConfig::default_ms());
    let (a, b, c, d, e, f) = (
        tb.node("A"),
        tb.node("B"),
        tb.node("C"),
        tb.node("D"),
        tb.node("E"),
        tb.node("F"),
    );
    let bd = tb.sim.add_udp_flow(UdpFlowSpec {
        src: b,
        dst: d,
        priority: Priority::HIGH,
        start: SimTime::from_ms(if overlapping { 14 } else { 0 }),
        duration: SimTime::from_ms(10),
        rate_bps: 950_000_000,
        payload_bytes: 1458,
    });
    let af = tb.sim.add_udp_flow(UdpFlowSpec {
        src: a,
        dst: f,
        priority: Priority::MID,
        start: SimTime::from_ms(10),
        duration: SimTime::from_ms(10),
        rate_bps: 950_000_000,
        payload_bytes: 1458,
    });
    let ce = tb.sim.add_tcp_flow(TcpFlowSpec::transfer(
        c,
        e,
        Priority::LOW,
        SimTime::from_us(20_500),
        2_000_000,
    ));
    let horizon = SimTime::from_ms(80);
    let planted = if overlapping {
        Planted {
            victim: Some((ce, e)),
            culprits: vec![bd, af],
            chain: vec![(ce, tb.node("S2"), af), (af, tb.node("S1"), bd)],
            ..Planted::quiet(Vec::new(), horizon)
        }
    } else {
        Planted::quiet(vec![bd, af, ce], horizon)
    };
    Scenario { tb, planted }
}

/// When [`contention`]'s bursts start.
pub const CONTENTION_BURST_AT: SimTime = SimTime::from_ms(20);

/// §5.1 "too much traffic" on a dumbbell of `m + 1` host pairs under
/// `cfg`: a LOW TCP victim `L0 → R0` running until `horizon`, and `m`
/// 1 ms line-rate bursts `Li → Ri` at `burst` priority from
/// [`CONTENTION_BURST_AT`]. Over
/// priority queues HIGH bursts starve the victim; over FIFO queues LOW
/// bursts overflow the shared buffer (the microburst variant).
pub fn contention(m: usize, burst: Priority, horizon: SimTime, cfg: TestbedConfig) -> Scenario {
    let mut tb = Testbed::new(Topology::dumbbell(m + 1, m + 1, GBPS), cfg);
    let (a, b) = (tb.node("L0"), tb.node("R0"));
    let victim = tb
        .sim
        .add_tcp_flow(TcpFlowSpec::running_until(a, b, Priority::LOW, horizon));
    let culprits = (1..=m)
        .map(|u| {
            let (src, dst) = (tb.node(&format!("L{u}")), tb.node(&format!("R{u}")));
            tb.sim.add_udp_flow(UdpFlowSpec::burst(
                src,
                dst,
                burst,
                CONTENTION_BURST_AT,
                SimTime::from_ms(1),
                GBPS,
            ))
        })
        .collect();
    Scenario {
        tb,
        planted: Planted {
            victim: Some((victim, b)),
            culprits,
            ..Planted::quiet(Vec::new(), horizon)
        },
    }
}

/// Monitoring under load: a 24-host leaf-spine fabric with switch clocks
/// skewed within ±0.4 ms, a MID Poisson web-search workload of 2 000
/// flows/s over 60 ms (workload seed 7), a LOW TCP victim `h0_0 → h3_0`
/// until 60 ms and one injected 1 ms HIGH line-rate burst `h1_1 → h3_1`
/// at 30 ms onto the victim's destination leaf. The burst is what was
/// planted; the workload may harm the victim too.
pub fn background_monitoring() -> Scenario {
    let mut tb = Testbed::new(
        Topology::leaf_spine(4, 2, 6, GBPS),
        TestbedConfig::default_ms(),
    );
    tb.sim.randomize_switch_clocks(400_000);
    let spec = WorkloadSpec {
        flows_per_sec: 2_000.0,
        sizes: FlowSizeDist::WebSearch,
        start: SimTime::ZERO,
        end: SimTime::from_ms(60),
        priority: Priority::MID,
        tcp: TcpConfig::default(),
    };
    let background = workload::install(&mut tb.sim, &spec, 7);
    let (a, b) = (tb.node("h0_0"), tb.node("h3_0"));
    let victim = tb.sim.add_tcp_flow(TcpFlowSpec::running_until(
        a,
        b,
        Priority::LOW,
        SimTime::from_ms(60),
    ));
    let (u, v) = (tb.node("h1_1"), tb.node("h3_1"));
    let burst = tb.sim.add_udp_flow(UdpFlowSpec::burst(
        u,
        v,
        Priority::HIGH,
        SimTime::from_ms(30),
        SimTime::from_ms(1),
        GBPS,
    ));
    Scenario {
        tb,
        planted: Planted {
            victim: Some((victim, b)),
            culprits: vec![burst],
            ..Planted::quiet(background, SimTime::from_ms(60))
        },
    }
}

/// The storm's query mix over a fat-tree incident: a `TopK` and a
/// `LoadImbalance` at five switches along the victim's pod-0 → pod-2
/// path over epochs 10–20, a `SilentDrop` sweep of `victim`, and — once
/// the victim's trigger has fired — the three diagnoses of it.
pub fn storm_queries(tb: &Testbed, victim: FlowId) -> Vec<QueryRequest> {
    let window = EpochRange { lo: 10, hi: 20 };
    let mut reqs = Vec::new();
    for name in ["edge0_0", "agg0_0", "agg0_1", "core0_0", "edge2_0"] {
        reqs.push(QueryRequest::TopK {
            switch: tb.node(name),
            k: 10,
            range: window,
        });
        reqs.push(QueryRequest::LoadImbalance {
            switch: tb.node(name),
            range: window,
        });
    }
    reqs.push(QueryRequest::SilentDrop {
        flow: victim,
        src: tb.node("h0_0_0"),
        dst: tb.node("h2_0_0"),
        range: window,
    });
    let da = tb.node("h2_0_0");
    if tb.hosts[&da].borrow().first_trigger_for(victim).is_some() {
        let w = tb.cfg.trigger.window;
        reqs.push(QueryRequest::Contention {
            victim,
            victim_dst: da,
            trigger_window: w,
        });
        reqs.push(QueryRequest::RedLights {
            victim,
            victim_dst: da,
            trigger_window: w,
        });
        reqs.push(QueryRequest::Cascade {
            victim,
            victim_dst: da,
            trigger_window: w,
            max_depth: 3,
        });
    }
    reqs
}
