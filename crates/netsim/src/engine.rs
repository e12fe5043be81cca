//! The discrete-event simulation engine.
//!
//! A single-threaded, deterministic event loop over a binary heap of
//! timestamped events. Determinism is load-bearing: the experiment harness
//! (EXPERIMENTS.md) and the property tests both rely on a run being a pure
//! function of the topology, flow specs and seed. Ties in time are broken
//! by insertion sequence number.
//!
//! The queue holds only live events. A heap entry is its `(at, seq)` key
//! and a slab slot holding the event; TCP flow starts wait in a queue of
//! their own; and a TCP connection keeps at most one entry for its
//! retransmission timer however often it re-arms (see `RtoTimer`).
//!
//! Store-and-forward semantics: a packet fully serializes on a port (at the
//! link's bandwidth), then propagates (link delay), then arrives at the
//! peer node. Each port owns an egress queue built from the configured
//! [`QueueConfig`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use crate::apps::{AppCtx, EgressInfo, HostApp, SwitchApp};
use crate::packet::{FlowId, FlowMeta, NodeId, Packet, Priority, Protocol, TcpHeader};
use crate::queue::{Enqueue, Queue, QueueConfig, QueueStats};
use crate::rng::DetRng;
use crate::routing::RouteTable;
use crate::tcp::{TcpAction, TcpConfig, TcpConn};
use crate::time::{serialization_time, SimTime};
use crate::topology::{NodeKind, Topology};
use crate::trace::TraceSet;
use crate::udp::{UdpFlowSpec, UdpSource};

/// Specification of a TCP flow to install.
#[derive(Debug, Clone, Copy)]
pub struct TcpFlowSpec {
    pub src: NodeId,
    pub dst: NodeId,
    pub priority: Priority,
    /// Connection start time.
    pub start: SimTime,
    /// Total stream bytes (None = unbounded).
    pub bytes: Option<u64>,
    /// Stop generating new data at this absolute time.
    pub stop: Option<SimTime>,
    pub config: TcpConfig,
}

impl TcpFlowSpec {
    /// A long-running flow between `src` and `dst` that stops producing new
    /// data at `stop` — the Fig. 2 victim-flow shape.
    pub fn running_until(src: NodeId, dst: NodeId, priority: Priority, stop: SimTime) -> Self {
        TcpFlowSpec {
            src,
            dst,
            priority,
            start: SimTime::ZERO,
            bytes: None,
            stop: Some(stop),
            config: TcpConfig::default(),
        }
    }

    /// A bounded transfer of `bytes` (the Fig. 4 2 MB shape).
    pub fn transfer(
        src: NodeId,
        dst: NodeId,
        priority: Priority,
        start: SimTime,
        bytes: u64,
    ) -> Self {
        TcpFlowSpec {
            src,
            dst,
            priority,
            start,
            bytes: Some(bytes),
            stop: None,
            config: TcpConfig::default(),
        }
    }
}

/// Simulator-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    pub seed: u64,
    /// Queue discipline instantiated on every switch port.
    pub switch_queue: QueueConfig,
    /// Queue on host NICs (deep FIFO; hosts never drop in the experiments).
    pub host_queue: QueueConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            switch_queue: QueueConfig::default_priority(),
            host_queue: QueueConfig::Fifo {
                capacity_bytes: 16_000_000,
            },
        }
    }
}

/// Per-port runtime state.
struct Port {
    link: crate::topology::LinkId,
    peer: NodeId,
    queue: Box<dyn Queue>,
    busy: bool,
    tx_pkts: u64,
    tx_bytes: u64,
}

/// Decides the egress port for a packet, overriding the route table.
/// Return `None` to fall back to normal routing.
pub(crate) type RouteOverride = Box<dyn FnMut(&Packet) -> Option<u16>>;

/// Called on every global epoch boundary (see [`Simulator::set_epoch_hook`])
/// with the tick index (0-based) and the simulated time of the tick.
pub(crate) type EpochHook = Box<dyn FnMut(u64, SimTime)>;

/// Per-node runtime state.
struct NodeState {
    kind: NodeKind,
    ports: Vec<Port>,
    clock_offset_ns: i64,
    switch_app: Option<Box<dyn SwitchApp>>,
    host_app: Option<Box<dyn HostApp>>,
    route_override: Option<RouteOverride>,
}

#[derive(Debug)]
enum Ev {
    /// Packet arrives at a node (after serialization + propagation).
    Arrive { node: NodeId, pkt: Packet },
    /// A port finished serializing its current packet.
    TxDone { node: NodeId, port: u16 },
    /// TCP retransmission timer: the connection's one queued entry (see
    /// [`RtoTimer`]).
    TcpTimer { flow: FlowId },
    /// Next UDP emission instant for a flow.
    UdpSend { flow: FlowId },
    /// TCP connection start, popped from the start queue.
    FlowStart { flow: FlowId },
    /// App timer (switch or host app on `node`).
    AppTimer { node: NodeId, token: u64 },
    /// Administrative link state change.
    LinkState {
        link: crate::topology::LinkId,
        up: bool,
    },
    /// Global epoch boundary (continuous-monitoring hook). `gen` ties the
    /// tick to the hook installation that scheduled it: re-installing a
    /// hook starts a new chain and orphans the old one.
    EpochTick { index: u64, gen: u64 },
}

/// An event's place in the total order: its time, then the sequence number
/// it took when scheduled.
type Key = (SimTime, u64);

/// A queued event: its order key and the slab slot holding the event.
struct Entry {
    key: Key,
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A TCP connection's retransmission timer, after NS-2's timers: the
/// timer owns one queued entry and reschedules it, instead of leaving one
/// stale entry per re-arm.
///
/// Every arm takes its `(at, seq)` key as an event would, so the keys of
/// all other events stay what they were. An arm enters the queue only
/// when nothing is queued for the connection or its key is earlier than
/// the queued one's; the entry it overtakes stays behind, superseded, and
/// is dropped without dispatch when it pops. When the queued entry pops,
/// it fires the latest arm if it is that arm, and otherwise re-queues
/// under the latest arm's own key. Either way the timer that counts pops
/// exactly where a queue holding every arm would have dispatched it.
#[derive(Default)]
struct RtoTimer {
    /// The latest arm: its key and generation.
    armed: Option<(Key, u64)>,
    /// Key of the one live entry queued for this connection.
    queued: Option<Key>,
}

/// The simulator.
pub struct Simulator {
    topo: Arc<Topology>,
    routes: Arc<RouteTable>,
    now: SimTime,
    heap: BinaryHeap<Reverse<Entry>>,
    /// The events the heap's entries point at; `None` marks a free slot.
    slab: Vec<Option<Ev>>,
    /// Free slots of `slab`.
    free: Vec<u32>,
    /// TCP flow starts by key: registered up front, often seconds ahead
    /// of the traffic being simulated, so kept out of the event heap.
    starts: BinaryHeap<Reverse<(Key, FlowId)>>,
    seq: u64,
    nodes: Vec<NodeState>,
    tcp: HashMap<FlowId, TcpConn>,
    /// Retransmission timers of the connections that armed one. Kept
    /// apart from `tcp`, which also holds every flow yet to start.
    rto: HashMap<FlowId, RtoTimer>,
    udp: HashMap<FlowId, UdpSource>,
    flow_meta: HashMap<FlowId, FlowMeta>,
    next_flow: u64,
    next_pkt: u64,
    pub(crate) rng: DetRng,
    /// Measurement recorders (public so experiments can flip
    /// `record_switch_tx` before running).
    pub traces: TraceSet,
    events_processed: u64,
    /// Administrative link state (true = down). Packets offered to a port
    /// whose link is down are dropped at the port — a fail-stop link or
    /// unplugged cable.
    link_down: Vec<bool>,
    /// Epoch-boundary callback: (period, stop-after bound, hook).
    epoch_hook: Option<(SimTime, SimTime, EpochHook)>,
    /// Installation generation: bumps per `set_epoch_hook`, so ticks of a
    /// replaced schedule die instead of driving the new hook off-cadence.
    epoch_gen: u64,
}

impl Simulator {
    /// Builds a simulator over `topo` with routes precomputed — the one
    /// route table of a deployment: whoever else reasons over the
    /// network shares it through [`Simulator::routes`].
    pub fn new(topo: impl Into<Arc<Topology>>, config: SimConfig) -> Self {
        let topo = topo.into();
        let routes = Arc::new(RouteTable::build(&topo));
        let num_links = topo.num_links();
        let mut nodes = Vec::with_capacity(topo.num_nodes());
        for raw in 0..topo.num_nodes() {
            let id = NodeId(raw as u32);
            let kind = topo.node(id).kind;
            let qc = match kind {
                NodeKind::Switch => config.switch_queue,
                NodeKind::Host => config.host_queue,
            };
            let ports = topo
                .ports(id)
                .iter()
                .map(|&(link, peer)| Port {
                    link,
                    peer,
                    queue: qc.build(),
                    busy: false,
                    tx_pkts: 0,
                    tx_bytes: 0,
                })
                .collect();
            nodes.push(NodeState {
                kind,
                ports,
                clock_offset_ns: 0,
                switch_app: None,
                host_app: None,
                route_override: None,
            });
        }
        Simulator {
            topo,
            routes,
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            starts: BinaryHeap::new(),
            seq: 0,
            nodes,
            tcp: HashMap::new(),
            rto: HashMap::new(),
            udp: HashMap::new(),
            flow_meta: HashMap::new(),
            next_flow: 0,
            next_pkt: 0,
            rng: DetRng::new(config.seed),
            traces: TraceSet::default(),
            events_processed: 0,
            link_down: vec![false; num_links],
            epoch_hook: None,
            epoch_gen: 0,
        }
    }

    // ---- configuration ----------------------------------------------------

    /// The topology this simulator runs over.
    pub fn topo(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The ECMP route table it forwards by.
    pub fn routes(&self) -> &Arc<RouteTable> {
        &self.routes
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events dispatched so far (diagnostics). A superseded timer entry is
    /// not an event: it is dropped without dispatch and not counted, so a
    /// TCP run counts fewer events than a queue that kept one entry per
    /// re-arm would have.
    #[cfg(test)]
    pub(crate) fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Installs a switch app on `node`.
    pub fn set_switch_app(&mut self, node: NodeId, app: Box<dyn SwitchApp>) {
        assert_eq!(self.nodes[node.0 as usize].kind, NodeKind::Switch);
        self.nodes[node.0 as usize].switch_app = Some(app);
    }

    /// Installs a host app on `node` and runs its `on_install` hook.
    pub fn set_host_app(&mut self, node: NodeId, mut app: Box<dyn HostApp>) {
        assert_eq!(self.nodes[node.0 as usize].kind, NodeKind::Host);
        let mut ctx = self.ctx_for(node);
        app.on_install(&mut ctx);
        self.drain_ctx(node, &mut ctx);
        self.nodes[node.0 as usize].host_app = Some(app);
    }

    /// Sets a node's clock offset (bounded asynchrony, §4.2.1). Positive
    /// values run the local clock ahead of global time.
    pub fn set_clock_offset(&mut self, node: NodeId, offset_ns: i64) {
        self.nodes[node.0 as usize].clock_offset_ns = offset_ns;
    }

    /// Assigns every switch a uniform random clock offset in
    /// `[-bound_ns, bound_ns]` — the paper's ε bound.
    pub fn randomize_switch_clocks(&mut self, bound_ns: i64) {
        for raw in 0..self.nodes.len() {
            if self.nodes[raw].kind == NodeKind::Switch {
                self.nodes[raw].clock_offset_ns = self.rng.signed_within(bound_ns);
            }
        }
    }

    /// Installs a per-packet egress override on a switch (the Fig. 8
    /// malfunctioning-ECMP hook).
    pub fn set_route_override(&mut self, node: NodeId, f: RouteOverride) {
        assert_eq!(self.nodes[node.0 as usize].kind, NodeKind::Switch);
        self.nodes[node.0 as usize].route_override = Some(f);
    }

    // ---- flow registration --------------------------------------------------

    fn alloc_flow(&mut self) -> FlowId {
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        id
    }

    /// Registers a TCP flow; returns its id.
    pub fn add_tcp_flow(&mut self, spec: TcpFlowSpec) -> FlowId {
        assert!(self.topo.is_host(spec.src) && self.topo.is_host(spec.dst));
        assert_ne!(spec.src, spec.dst);
        let id = self.alloc_flow();
        let meta = FlowMeta {
            id,
            src: spec.src,
            dst: spec.dst,
            protocol: Protocol::Tcp,
            priority: spec.priority,
        };
        self.flow_meta.insert(id, meta);
        self.tcp
            .insert(id, TcpConn::new(spec.config, spec.bytes, spec.stop));
        let key = self.next_key(spec.start);
        self.starts.push(Reverse((key, id)));
        id
    }

    /// Registers a UDP flow; returns its id.
    pub fn add_udp_flow(&mut self, spec: UdpFlowSpec) -> FlowId {
        assert!(self.topo.is_host(spec.src) && self.topo.is_host(spec.dst));
        assert_ne!(spec.src, spec.dst);
        let id = self.alloc_flow();
        let meta = FlowMeta {
            id,
            src: spec.src,
            dst: spec.dst,
            protocol: Protocol::Udp,
            priority: spec.priority,
        };
        self.flow_meta.insert(id, meta);
        let source = UdpSource::new(meta, spec);
        self.schedule(source.first_send(), Ev::UdpSend { flow: id });
        self.udp.insert(id, source);
        id
    }

    /// Read access to a TCP connection's state (stats, completion).
    pub fn tcp(&self, id: FlowId) -> &TcpConn {
        &self.tcp[&id]
    }

    /// Every registered flow in registration (= id) order, with its TCP
    /// connection if it is a TCP flow.
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, Option<&TcpConn>)> + '_ {
        (0..self.next_flow).map(|i| (FlowId(i), self.tcp.get(&FlowId(i))))
    }

    /// Read access to a UDP source's counters.
    pub fn udp(&self, id: FlowId) -> &UdpSource {
        &self.udp[&id]
    }

    /// Queue statistics of a switch port.
    pub fn port_queue_stats(&self, node: NodeId, port: u16) -> QueueStats {
        self.nodes[node.0 as usize].ports[port as usize]
            .queue
            .stats()
    }

    /// Bytes transmitted on a port so far.
    pub fn port_tx_bytes(&self, node: NodeId, port: u16) -> u64 {
        self.nodes[node.0 as usize].ports[port as usize].tx_bytes
    }

    /// Schedules an app timer from outside the app (experiments).
    pub fn schedule_app_timer(&mut self, node: NodeId, at: SimTime, token: u64) {
        self.schedule(at, Ev::AppTimer { node, token });
    }

    /// Schedules an administrative link failure (`up = false`) or repair at
    /// absolute time `at`. Routing is static: traffic routed over a downed
    /// link blackholes at the egress port, which is exactly the failure the
    /// drop-localization application diagnoses.
    pub fn schedule_link_state(&mut self, link: crate::topology::LinkId, up: bool, at: SimTime) {
        assert!((link.0 as usize) < self.link_down.len(), "unknown link");
        self.schedule(at, Ev::LinkState { link, up });
    }

    /// Installs a callback fired at every multiple of `every` after the
    /// current time, up to and including `until` — the epoch boundaries a
    /// continuous-monitoring driver paces itself by. Ticks are ordinary
    /// scheduled events (deterministic interleaving with traffic); bounding
    /// them by `until` keeps `run_to_completion` terminating. Only one hook
    /// may be installed; installing again replaces it and starts a fresh
    /// tick chain (index 0, the new cadence and bound) — any still-pending
    /// ticks of the old schedule are orphaned and die silently.
    pub fn set_epoch_hook(&mut self, every: SimTime, until: SimTime, hook: EpochHook) {
        assert!(every > SimTime::ZERO, "epoch period must be positive");
        self.epoch_hook = Some((every, until, hook));
        self.epoch_gen += 1;
        let gen = self.epoch_gen;
        // Checked: after `run_to_completion` the clock sits at the max
        // representable instant, where no future tick can exist.
        let Some(mut first) = self
            .now
            .as_ns()
            .div_ceil(every.as_ns())
            .checked_mul(every.as_ns())
            .map(SimTime)
        else {
            return;
        };
        if first <= self.now {
            first += every;
        }
        if first <= until {
            self.schedule(first, Ev::EpochTick { index: 0, gen });
        }
    }

    // ---- event loop ---------------------------------------------------------

    /// The key of an event scheduled now for `at` (never in the past).
    fn next_key(&mut self, at: SimTime) -> Key {
        self.seq += 1;
        (at.max(self.now), self.seq)
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        let key = self.next_key(at);
        self.push(key, ev);
    }

    /// Queues `ev` under `key`, in a free slab slot if there is one.
    fn push(&mut self, key: Key, ev: Ev) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(ev);
                slot
            }
            None => {
                self.slab.push(Some(ev));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse(Entry { key, slot }));
    }

    /// Pops the first entry of the event heap and the start queue taken
    /// together, if its time is within `horizon`.
    fn pop_due(&mut self, horizon: SimTime) -> Option<(Key, Ev)> {
        let event = self.heap.peek().map(|Reverse(e)| e.key);
        let start = self.starts.peek().map(|Reverse((key, _))| *key);
        let (key, from_starts) = match (event, start) {
            (Some(e), Some(s)) => (e.min(s), s < e),
            (Some(e), None) => (e, false),
            (None, Some(s)) => (s, true),
            (None, None) => return None,
        };
        if key.0 > horizon {
            return None;
        }
        if from_starts {
            let Reverse((_, flow)) = self.starts.pop()?;
            return Some((key, Ev::FlowStart { flow }));
        }
        let Reverse(Entry { slot, .. }) = self.heap.pop()?;
        let ev = self.slab[slot as usize]
            .take()
            .expect("queued slot holds its event");
        self.free.push(slot);
        Some((key, ev))
    }

    /// Runs until the event queue drains or `horizon` passes; returns the
    /// final simulated time. Events scheduled beyond the horizon remain
    /// queued (the clock stops *at* the horizon).
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        while let Some((key, ev)) = self.pop_due(horizon) {
            debug_assert!(key.0 >= self.now, "time went backwards");
            self.now = key.0;
            if let Ev::TcpTimer { flow } = ev {
                if !self.rto_due(flow, key) {
                    continue;
                }
            }
            self.events_processed += 1;
            self.dispatch(ev);
        }
        self.now = self.now.max(horizon);
        self.now
    }

    /// Runs until the event queue is fully drained.
    pub fn run_to_completion(&mut self) -> SimTime {
        self.run_until(SimTime(u64::MAX))
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Arrive { node, pkt } => match self.nodes[node.0 as usize].kind {
                NodeKind::Switch => self.forward_at_switch(node, pkt),
                NodeKind::Host => self.deliver_at_host(node, pkt),
            },
            Ev::TxDone { node, port } => {
                self.nodes[node.0 as usize].ports[port as usize].busy = false;
                self.try_start_tx(node, port);
            }
            Ev::TcpTimer { flow } => {
                let now = self.now;
                let (_, gen) = self.rto[&flow].armed.expect("a due timer is armed");
                let conn = self.tcp.get_mut(&flow).expect("timer of a TCP flow");
                let actions = conn.on_rto(now, gen);
                self.apply_tcp_actions(flow, actions);
            }
            Ev::UdpSend { flow } => self.udp_emit(flow),
            Ev::FlowStart { flow } => {
                let now = self.now;
                let actions = match self.tcp.get_mut(&flow) {
                    Some(conn) => conn.on_start(now),
                    None => Vec::new(),
                };
                self.apply_tcp_actions(flow, actions);
            }
            Ev::AppTimer { node, token } => self.fire_app_timer(node, token),
            Ev::EpochTick { index, gen } => {
                if gen != self.epoch_gen {
                    return; // orphaned tick of a replaced schedule
                }
                let now = self.now;
                let next = if let Some((every, until, hook)) = self.epoch_hook.as_mut() {
                    hook(index, now);
                    let at = now + *every;
                    (at <= *until).then_some(at)
                } else {
                    None
                };
                if let Some(at) = next {
                    self.schedule(
                        at,
                        Ev::EpochTick {
                            index: index + 1,
                            gen,
                        },
                    );
                }
            }
            Ev::LinkState { link, up } => {
                self.link_down[link.0 as usize] = !up;
                if up {
                    // Restart transmission on both attached ports.
                    let spec = *self.topo.link(link);
                    for node in [spec.a, spec.b] {
                        if let Some(port) = self.topo.port_for_link(node, link) {
                            self.try_start_tx(node, port as u16);
                        }
                    }
                }
            }
        }
    }

    // ---- switch path --------------------------------------------------------

    fn forward_at_switch(&mut self, node: NodeId, mut pkt: Packet) {
        // Egress decision: override first, then the route table.
        let flow = pkt.flow;
        let dst = pkt.dst;
        let over = self.nodes[node.0 as usize]
            .route_override
            .as_mut()
            .and_then(|f| f(&pkt));
        let egress = over.or_else(|| self.routes.egress(node, dst, flow));
        let Some(port) = egress else {
            self.traces.record_drop(self.now, node, flow, true);
            return;
        };

        // Switch app hook (telemetry tagging + pointer update).
        if self.nodes[node.0 as usize].switch_app.is_some() {
            let info = {
                let p = &self.nodes[node.0 as usize].ports[port as usize];
                EgressInfo { port, link: p.link }
            };
            let mut app = self.nodes[node.0 as usize].switch_app.take();
            let mut ctx = self.ctx_for(node);
            app.as_mut().unwrap().on_forward(&mut ctx, &mut pkt, info);
            self.nodes[node.0 as usize].switch_app = app;
            self.drain_ctx(node, &mut ctx);
        }

        self.enqueue_and_kick(node, port, pkt);
    }

    fn enqueue_and_kick(&mut self, node: NodeId, port: u16, pkt: Packet) {
        let flow = pkt.flow;
        let res = self.nodes[node.0 as usize].ports[port as usize]
            .queue
            .enqueue(pkt);
        if res == Enqueue::Dropped {
            self.traces.record_drop(self.now, node, flow, false);
        }
        self.try_start_tx(node, port);
    }

    fn try_start_tx(&mut self, node: NodeId, port: u16) {
        // A downed link blackholes everything buffered for it.
        let link = self.nodes[node.0 as usize].ports[port as usize].link;
        if self.link_down[link.0 as usize] {
            let now = self.now;
            while let Some(pkt) = self.nodes[node.0 as usize].ports[port as usize]
                .queue
                .dequeue()
            {
                self.traces.record_drop(now, node, pkt.flow, true);
            }
            return;
        }
        let st = &mut self.nodes[node.0 as usize];
        let p = &mut st.ports[port as usize];
        if p.busy {
            return;
        }
        let Some(pkt) = p.queue.dequeue() else {
            return;
        };
        p.busy = true;
        p.tx_pkts += 1;
        p.tx_bytes += pkt.wire_bytes();
        let link = self.topo.link(p.link);
        let ser = serialization_time(pkt.wire_bytes(), link.bandwidth_bps);
        let delay = link.delay;
        let peer = p.peer;
        let is_switch = st.kind == NodeKind::Switch;
        if is_switch {
            self.traces
                .record_switch_tx(node, pkt.flow, self.now, pkt.payload);
        }
        let arrive_at = self.now + ser + delay;
        let done_at = self.now + ser;
        self.schedule(done_at, Ev::TxDone { node, port });
        self.schedule(arrive_at, Ev::Arrive { node: peer, pkt });
    }

    // ---- host path ----------------------------------------------------------

    fn deliver_at_host(&mut self, node: NodeId, pkt: Packet) {
        if pkt.dst != node {
            // Misrouted (only possible with a broken override); drop loudly
            // in debug, silently count in release.
            debug_assert!(false, "packet for {} delivered to {}", pkt.dst, node);
            self.traces.record_drop(self.now, node, pkt.flow, true);
            return;
        }
        self.traces.record_rx(pkt.flow, self.now, pkt.payload);

        // Host app observes every delivered packet (telemetry collection).
        if self.nodes[node.0 as usize].host_app.is_some() {
            let mut app = self.nodes[node.0 as usize].host_app.take();
            let mut ctx = self.ctx_for(node);
            app.as_mut().unwrap().on_packet(&mut ctx, &pkt);
            self.nodes[node.0 as usize].host_app = app;
            self.drain_ctx(node, &mut ctx);
        }

        // Transport processing.
        if pkt.protocol == Protocol::Tcp {
            let flow = pkt.flow;
            let now = self.now;
            let hdr = pkt.tcp.expect("TCP packet without header");
            let actions = match self.tcp.get_mut(&flow) {
                Some(conn) => {
                    if hdr.is_ack {
                        conn.on_ack_ecn(now, hdr.ack, hdr.ce)
                    } else {
                        conn.on_data_ecn(now, hdr.seq, pkt.payload, hdr.ce)
                    }
                }
                None => Vec::new(),
            };
            self.apply_tcp_actions(flow, actions);
        }
    }

    // ---- transport glue -------------------------------------------------------

    fn apply_tcp_actions(&mut self, flow: FlowId, actions: Vec<TcpAction>) {
        for a in actions {
            match a {
                TcpAction::SendData { seq, len } => {
                    let meta = self.flow_meta[&flow];
                    let pkt = self.make_packet(
                        meta,
                        len,
                        Some(TcpHeader {
                            seq,
                            ack: 0,
                            is_ack: false,
                            ce: false,
                        }),
                        meta.src,
                        meta.dst,
                    );
                    self.host_send(meta.src, pkt);
                }
                TcpAction::SendAck { ack, ece } => {
                    let meta = self.flow_meta[&flow];
                    let pkt = self.make_packet(
                        meta,
                        0,
                        Some(TcpHeader {
                            seq: 0,
                            ack,
                            is_ack: true,
                            ce: ece,
                        }),
                        meta.dst,
                        meta.src,
                    );
                    self.host_send(meta.dst, pkt);
                }
                TcpAction::ArmRto { at, gen } => self.arm_rto(flow, at, gen),
            }
        }
    }

    /// Arms `flow`'s retransmission timer for `at`; the latest arm wins.
    /// Queues an entry only when none is queued or this arm is earlier
    /// than the queued one (see [`RtoTimer`]).
    fn arm_rto(&mut self, flow: FlowId, at: SimTime, gen: u64) {
        let key = self.next_key(at);
        let rto = self.rto.entry(flow).or_default();
        rto.armed = Some((key, gen));
        if rto.queued.is_none_or(|queued| key < queued) {
            rto.queued = Some(key);
            self.push(key, Ev::TcpTimer { flow });
        }
    }

    /// Whether the timer entry of `flow` popped under `key` fires now.
    /// A superseded entry is dropped. The queued entry fires when it is
    /// the latest arm, and otherwise re-queues under that arm's key.
    fn rto_due(&mut self, flow: FlowId, key: Key) -> bool {
        let rto = self.rto.get_mut(&flow).expect("a queued timer is armed");
        if rto.queued != Some(key) {
            return false;
        }
        let (armed, _) = rto.armed.expect("a queued timer is armed");
        if armed == key {
            rto.queued = None;
            return true;
        }
        rto.queued = Some(armed);
        self.push(armed, Ev::TcpTimer { flow });
        false
    }

    fn make_packet(
        &mut self,
        meta: FlowMeta,
        payload: u32,
        tcp: Option<TcpHeader>,
        from: NodeId,
        to: NodeId,
    ) -> Packet {
        self.next_pkt += 1;
        Packet {
            id: self.next_pkt,
            flow: meta.id,
            src: from,
            dst: to,
            protocol: meta.protocol,
            priority: meta.priority,
            payload,
            tcp,
            tags: Vec::new(),
            sent_at: self.now,
        }
    }

    fn host_send(&mut self, from: NodeId, pkt: Packet) {
        let Some(port) = self.routes.egress(from, pkt.dst, pkt.flow) else {
            self.traces.record_drop(self.now, from, pkt.flow, true);
            return;
        };
        self.enqueue_and_kick(from, port, pkt);
    }

    fn udp_emit(&mut self, flow: FlowId) {
        let (meta, payload, next) = {
            let src = self.udp.get_mut(&flow).expect("unknown UDP flow");
            let payload = src.payload_bytes();
            let next = src.emit(self.now);
            (src.meta, payload, next)
        };
        let pkt = self.make_packet(meta, payload, None, meta.src, meta.dst);
        self.host_send(meta.src, pkt);
        if let Some(at) = next {
            self.schedule(at, Ev::UdpSend { flow });
        }
    }

    // ---- app plumbing -----------------------------------------------------------

    fn ctx_for(&self, node: NodeId) -> AppCtx {
        let offset = self.nodes[node.0 as usize].clock_offset_ns;
        AppCtx::new(self.now, self.now.offset_by(offset))
    }

    fn drain_ctx(&mut self, node: NodeId, ctx: &mut AppCtx) {
        for (at, token) in ctx.take_timer_requests() {
            self.schedule(at, Ev::AppTimer { node, token });
        }
    }

    fn fire_app_timer(&mut self, node: NodeId, token: u64) {
        let kind = self.nodes[node.0 as usize].kind;
        let mut ctx = self.ctx_for(node);
        match kind {
            NodeKind::Switch => {
                let mut app = self.nodes[node.0 as usize].switch_app.take();
                if let Some(a) = app.as_mut() {
                    a.on_timer(&mut ctx, token);
                }
                self.nodes[node.0 as usize].switch_app = app;
            }
            NodeKind::Host => {
                let mut app = self.nodes[node.0 as usize].host_app.take();
                if let Some(a) = app.as_mut() {
                    a.on_timer(&mut ctx, token);
                }
                self.nodes[node.0 as usize].host_app = app;
            }
        }
        self.drain_ctx(node, &mut ctx);
    }

    /// Keys of every timer entry queued for `flow`, live or superseded.
    #[cfg(test)]
    fn rto_entries(&self, flow: FlowId) -> Vec<Key> {
        self.heap
            .iter()
            .filter(|Reverse(e)| {
                matches!(self.slab[e.slot as usize], Some(Ev::TcpTimer { flow: f }) if f == flow)
            })
            .map(|Reverse(e)| e.key)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Topology, GBPS};
    use crate::trace::ThroughputSeries;

    fn dumbbell_sim(switch_queue: QueueConfig) -> Simulator {
        let topo = Topology::dumbbell(4, 4, GBPS);
        Simulator::new(
            topo,
            SimConfig {
                switch_queue,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn solo_tcp_reaches_line_rate() {
        let mut sim = dumbbell_sim(QueueConfig::default_priority());
        let a = sim.topo().node_by_name("L0").unwrap();
        let b = sim.topo().node_by_name("R0").unwrap();
        let f = sim.add_tcp_flow(TcpFlowSpec::running_until(
            a,
            b,
            Priority::LOW,
            SimTime::from_ms(20),
        ));
        sim.run_until(SimTime::from_ms(25));
        let s = ThroughputSeries::from_events(
            sim.traces.rx_events(f),
            SimTime::from_ms(1),
            SimTime::from_ms(20),
        );
        // Windows 5..20 should be near line rate (0.9+ Gbps of payload).
        let steady = s.mean_over(5, 20);
        assert!(steady > 0.85, "TCP underperforms: {steady} Gbps");
        assert_eq!(sim.tcp(f).timeouts, 0, "no timeouts expected solo");
    }

    #[test]
    fn bounded_tcp_transfer_completes() {
        let mut sim = dumbbell_sim(QueueConfig::default_priority());
        let a = sim.topo().node_by_name("L0").unwrap();
        let b = sim.topo().node_by_name("R0").unwrap();
        let f = sim.add_tcp_flow(TcpFlowSpec::transfer(
            a,
            b,
            Priority::LOW,
            SimTime::ZERO,
            2_000_000,
        ));
        sim.run_to_completion();
        assert!(sim.tcp(f).is_complete());
        assert_eq!(sim.tcp(f).delivered, 2_000_000);
        // 2 MB at ~1 Gbps is ~16 ms + slow start.
        let t = sim.tcp(f).finished_at.unwrap();
        assert!(t < SimTime::from_ms(40), "too slow: {t}");
    }

    #[test]
    fn udp_bytes_all_delivered_when_uncontended() {
        let mut sim = dumbbell_sim(QueueConfig::default_priority());
        let a = sim.topo().node_by_name("L1").unwrap();
        let b = sim.topo().node_by_name("R1").unwrap();
        let f = sim.add_udp_flow(UdpFlowSpec {
            src: a,
            dst: b,
            priority: Priority::HIGH,
            start: SimTime::from_ms(1),
            duration: SimTime::from_ms(2),
            rate_bps: 500_000_000,
            payload_bytes: 1458,
        });
        sim.run_to_completion();
        assert_eq!(sim.traces.rx_bytes(f), sim.udp(f).sent_bytes);
        assert_eq!(sim.traces.drops_for(f), 0);
    }

    #[test]
    fn two_tcp_flows_share_bottleneck() {
        let mut sim = dumbbell_sim(QueueConfig::default_fifo());
        let topo = sim.topo();
        let (a, b) = (
            topo.node_by_name("L0").unwrap(),
            topo.node_by_name("R0").unwrap(),
        );
        let (c, d) = (
            topo.node_by_name("L1").unwrap(),
            topo.node_by_name("R1").unwrap(),
        );
        let stop = SimTime::from_ms(30);
        let f1 = sim.add_tcp_flow(TcpFlowSpec::running_until(a, b, Priority::LOW, stop));
        let f2 = sim.add_tcp_flow(TcpFlowSpec::running_until(c, d, Priority::LOW, stop));
        sim.run_until(SimTime::from_ms(35));
        let b1 = sim.traces.rx_bytes(f1) as f64;
        let b2 = sim.traces.rx_bytes(f2) as f64;
        let total_gbps = (b1 + b2) * 8.0 / SimTime::from_ms(30).as_ns() as f64;
        assert!(total_gbps > 0.8, "bottleneck underutilized: {total_gbps}");
        let ratio = b1.max(b2) / b1.min(b2);
        assert!(ratio < 3.0, "gross unfairness: {ratio}");
    }

    #[test]
    fn priority_queue_starves_low_priority_flow() {
        let mut sim = dumbbell_sim(QueueConfig::default_priority());
        let topo = sim.topo();
        let (a, b) = (
            topo.node_by_name("L0").unwrap(),
            topo.node_by_name("R0").unwrap(),
        );
        let (u, v) = (
            topo.node_by_name("L1").unwrap(),
            topo.node_by_name("R1").unwrap(),
        );
        let f_tcp = sim.add_tcp_flow(TcpFlowSpec::running_until(
            a,
            b,
            Priority::LOW,
            SimTime::from_ms(30),
        ));
        // High-priority UDP saturating the core link from 10 ms to 15 ms.
        sim.add_udp_flow(UdpFlowSpec::burst(
            u,
            v,
            Priority::HIGH,
            SimTime::from_ms(10),
            SimTime::from_ms(5),
            GBPS,
        ));
        sim.run_until(SimTime::from_ms(35));
        let s = ThroughputSeries::from_events(
            sim.traces.rx_events(f_tcp),
            SimTime::from_ms(1),
            SimTime::from_ms(30),
        );
        let before = s.mean_over(5, 10);
        let during = s.mean_over(11, 15);
        assert!(
            during < before * 0.3,
            "no starvation: before={before} during={during}"
        );
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut sim = dumbbell_sim(QueueConfig::default_fifo());
            let a = sim.topo().node_by_name("L0").unwrap();
            let b = sim.topo().node_by_name("R0").unwrap();
            let c = sim.topo().node_by_name("L1").unwrap();
            let d = sim.topo().node_by_name("R1").unwrap();
            let f1 = sim.add_tcp_flow(TcpFlowSpec::running_until(
                a,
                b,
                Priority::LOW,
                SimTime::from_ms(10),
            ));
            sim.add_udp_flow(UdpFlowSpec::burst(
                c,
                d,
                Priority::HIGH,
                SimTime::from_ms(2),
                SimTime::from_ms(1),
                GBPS,
            ));
            sim.run_until(SimTime::from_ms(12));
            (
                sim.traces.rx_bytes(f1),
                sim.traces.rx_events(f1).len(),
                sim.events_processed(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn horizon_stops_the_clock() {
        let mut sim = dumbbell_sim(QueueConfig::default_priority());
        let a = sim.topo().node_by_name("L0").unwrap();
        let b = sim.topo().node_by_name("R0").unwrap();
        sim.add_tcp_flow(TcpFlowSpec::running_until(
            a,
            b,
            Priority::LOW,
            SimTime::from_ms(50),
        ));
        let t = sim.run_until(SimTime::from_ms(5));
        assert_eq!(t, SimTime::from_ms(5));
        assert_eq!(sim.now(), SimTime::from_ms(5));
    }

    #[test]
    fn route_override_redirects_packets() {
        // Dumbbell with 2 core links: force all packets onto port of link 2.
        let topo = Topology::dumbbell_multi(1, 1, 2, GBPS);
        let mut sim = Simulator::new(topo, SimConfig::default());
        let sl = sim.topo().node_by_name("SL").unwrap();
        let r0 = sim.topo().node_by_name("R0").unwrap();
        let l0 = sim.topo().node_by_name("L0").unwrap();
        // Core ports on SL are its 2nd and 3rd ports (after 1 host port).
        let forced_port: u16 = 2;
        sim.set_route_override(
            sl,
            Box::new(move |pkt| {
                if pkt.dst == r0 {
                    Some(forced_port)
                } else {
                    None
                }
            }),
        );
        sim.add_udp_flow(UdpFlowSpec {
            src: l0,
            dst: r0,
            priority: Priority::LOW,
            start: SimTime::ZERO,
            duration: SimTime::from_ms(1),
            rate_bps: 100_000_000,
            payload_bytes: 1000,
        });
        sim.run_to_completion();
        assert!(sim.port_tx_bytes(sl, forced_port) > 0);
        assert_eq!(sim.port_tx_bytes(sl, 1), 0, "other core port unused");
    }

    #[test]
    fn app_hooks_observe_packets() {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct CountingSwitchApp(Rc<RefCell<u64>>);
        impl SwitchApp for CountingSwitchApp {
            fn on_forward(&mut self, _ctx: &mut AppCtx, _pkt: &mut Packet, _e: EgressInfo) {
                *self.0.borrow_mut() += 1;
            }
        }
        struct CountingHostApp(Rc<RefCell<u64>>);
        impl HostApp for CountingHostApp {
            fn on_packet(&mut self, _ctx: &mut AppCtx, _pkt: &Packet) {
                *self.0.borrow_mut() += 1;
            }
        }

        let mut sim = dumbbell_sim(QueueConfig::default_priority());
        let sw_count = Rc::new(RefCell::new(0));
        let host_count = Rc::new(RefCell::new(0));
        let sl = sim.topo().node_by_name("SL").unwrap();
        let r0 = sim.topo().node_by_name("R0").unwrap();
        let l0 = sim.topo().node_by_name("L0").unwrap();
        sim.set_switch_app(sl, Box::new(CountingSwitchApp(sw_count.clone())));
        sim.set_host_app(r0, Box::new(CountingHostApp(host_count.clone())));
        let f = sim.add_udp_flow(UdpFlowSpec {
            src: l0,
            dst: r0,
            priority: Priority::LOW,
            start: SimTime::ZERO,
            duration: SimTime::from_ms(1),
            rate_bps: 500_000_000,
            payload_bytes: 1458,
        });
        sim.run_to_completion();
        let delivered = sim.traces.rx_events(f).len() as u64;
        assert!(delivered > 0);
        assert_eq!(*sw_count.borrow(), delivered);
        assert_eq!(*host_count.borrow(), delivered);
    }

    #[test]
    fn host_app_timers_fire_periodically() {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct TickApp {
            ticks: Rc<RefCell<Vec<SimTime>>>,
            period: SimTime,
        }
        impl HostApp for TickApp {
            fn on_packet(&mut self, _ctx: &mut AppCtx, _pkt: &Packet) {}
            fn on_install(&mut self, ctx: &mut AppCtx) {
                ctx.schedule_timer(self.period, 0);
            }
            fn on_timer(&mut self, ctx: &mut AppCtx, _token: u64) {
                self.ticks.borrow_mut().push(ctx.now);
                ctx.schedule_timer(ctx.now + self.period, 0);
            }
        }

        let mut sim = dumbbell_sim(QueueConfig::default_priority());
        let l0 = sim.topo().node_by_name("L0").unwrap();
        let ticks = Rc::new(RefCell::new(Vec::new()));
        sim.set_host_app(
            l0,
            Box::new(TickApp {
                ticks: ticks.clone(),
                period: SimTime::from_ms(1),
            }),
        );
        sim.run_until(SimTime::from_ms(10));
        let t = ticks.borrow();
        assert_eq!(t.len(), 10);
        assert_eq!(t[0], SimTime::from_ms(1));
        assert_eq!(t[9], SimTime::from_ms(10));
    }

    #[test]
    fn epoch_hook_fires_on_boundaries_and_stops_at_bound() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut sim = dumbbell_sim(QueueConfig::default_priority());
        let ticks: Rc<RefCell<Vec<(u64, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
        let t = ticks.clone();
        sim.set_epoch_hook(
            SimTime::from_ms(1),
            SimTime::from_ms(5),
            Box::new(move |i, at| t.borrow_mut().push((i, at))),
        );
        sim.run_until(SimTime::from_ms(3));
        assert_eq!(
            *ticks.borrow(),
            vec![
                (0, SimTime::from_ms(1)),
                (1, SimTime::from_ms(2)),
                (2, SimTime::from_ms(3)),
            ]
        );
        // Bounded: the hook stops at `until`.
        sim.run_until(SimTime::from_ms(6));
        assert_eq!(ticks.borrow().len(), 5);
        assert_eq!(ticks.borrow().last().unwrap().1, SimTime::from_ms(5));

        // Re-installing after the chain expired seeds a fresh tick chain
        // (index restarts at 0).
        let t2 = ticks.clone();
        sim.set_epoch_hook(
            SimTime::from_ms(1),
            SimTime::from_ms(8),
            Box::new(move |i, at| t2.borrow_mut().push((i, at))),
        );
        sim.run_until(SimTime::from_ms(8));
        assert_eq!(ticks.borrow().len(), 7);
        assert_eq!(ticks.borrow()[5], (0, SimTime::from_ms(7)));
        assert_eq!(ticks.borrow()[6], (1, SimTime::from_ms(8)));

        // Replacing a hook whose ticks are still pending orphans the old
        // chain: the new hook fires on its own cadence and bound only.
        let orphaned = Rc::new(RefCell::new(0u64));
        let o = orphaned.clone();
        sim.set_epoch_hook(
            SimTime::from_ms(2),
            SimTime::from_ms(12),
            Box::new(move |_i, _at| *o.borrow_mut() += 1),
        );
        let replaced = Rc::new(RefCell::new(Vec::new()));
        let r = replaced.clone();
        sim.set_epoch_hook(
            SimTime::from_ms(3),
            SimTime::from_ms(12),
            Box::new(move |i, at| r.borrow_mut().push((i, at))),
        );
        sim.run_until(SimTime::from_ms(12));
        assert_eq!(*orphaned.borrow(), 0, "replaced hook must never fire");
        assert_eq!(
            *replaced.borrow(),
            vec![(0, SimTime::from_ms(9)), (1, SimTime::from_ms(12))]
        );

        // And the bounded chain keeps `run_to_completion` terminating —
        // after which the clock is past any representable tick.
        sim.run_to_completion();
        assert_eq!(
            *replaced.borrow(),
            vec![(0, SimTime::from_ms(9)), (1, SimTime::from_ms(12))]
        );
    }

    #[test]
    fn clock_offsets_shift_local_time() {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct ClockProbe(Rc<RefCell<Option<(SimTime, SimTime)>>>);
        impl SwitchApp for ClockProbe {
            fn on_forward(&mut self, ctx: &mut AppCtx, _pkt: &mut Packet, _e: EgressInfo) {
                *self.0.borrow_mut() = Some((ctx.now, ctx.local_time));
            }
        }

        let mut sim = dumbbell_sim(QueueConfig::default_priority());
        let sl = sim.topo().node_by_name("SL").unwrap();
        let l0 = sim.topo().node_by_name("L0").unwrap();
        let r0 = sim.topo().node_by_name("R0").unwrap();
        sim.set_clock_offset(sl, 2_000_000); // +2 ms
        let probe = Rc::new(RefCell::new(None));
        sim.set_switch_app(sl, Box::new(ClockProbe(probe.clone())));
        sim.add_udp_flow(UdpFlowSpec {
            src: l0,
            dst: r0,
            priority: Priority::LOW,
            start: SimTime::from_ms(1),
            duration: SimTime::from_us(20),
            rate_bps: GBPS,
            payload_bytes: 100,
        });
        sim.run_to_completion();
        let (now, local) = probe.borrow().unwrap();
        assert_eq!(local, now + SimTime::from_ms(2));
    }

    fn core_link(sim: &Simulator) -> crate::topology::LinkId {
        let (sl, sr) = (
            sim.topo().node_by_name("SL").unwrap(),
            sim.topo().node_by_name("SR").unwrap(),
        );
        let ports = sim.topo().ports(sl);
        ports.iter().find(|&&(_, p)| p == sr).unwrap().0
    }

    #[test]
    fn heap_entries_are_keys_and_slots() {
        // A sift moves 24 bytes, not an event with its packet.
        assert_eq!(std::mem::size_of::<Reverse<Entry>>(), 24);
        assert!(std::mem::size_of::<Ev>() > 64);
    }

    #[test]
    fn a_long_lived_flow_queues_one_rto_entry() {
        let mut sim = dumbbell_sim(QueueConfig::default_priority());
        let a = sim.topo().node_by_name("L0").unwrap();
        let b = sim.topo().node_by_name("R0").unwrap();
        let stop = SimTime::from_ms(100);
        let f = sim.add_tcp_flow(TcpFlowSpec::running_until(a, b, Priority::LOW, stop));
        let (mut t, mut most) = (SimTime::ZERO, 0);
        while t < SimTime::from_ms(110) {
            t += SimTime::from_us(50);
            sim.run_until(t);
            let entries = sim.rto_entries(f);
            let live = sim.rto[&f].queued;
            most = most.max(entries.len());
            // Besides the live entry, only entries an earlier arm
            // overtook may wait: each has a later deadline than it.
            for stale in entries.into_iter().filter(|&k| Some(k) != live) {
                assert!(live.is_some_and(|l| stale > l), "at {t}: {stale:?}");
            }
        }
        // The RTO sits at its 10 ms floor, so no arm moves earlier.
        assert_eq!(most, 1, "one queued entry per connection");
        assert!(
            sim.tcp(f).rto_gen() > 1_000,
            "{} arms: one entry each would have crowded the heap",
            sim.tcp(f).rto_gen()
        );
    }

    #[test]
    fn a_rearm_to_an_earlier_deadline_fires_there() {
        let mut sim = dumbbell_sim(QueueConfig::default_priority());
        let a = sim.topo().node_by_name("L0").unwrap();
        let b = sim.topo().node_by_name("R0").unwrap();
        // The core link is down from the start: the opening window is
        // lost and no ACK ever re-arms the timer.
        sim.schedule_link_state(core_link(&sim), false, SimTime::ZERO);
        let f = sim.add_tcp_flow(TcpFlowSpec::running_until(
            a,
            b,
            Priority::LOW,
            SimTime::from_ms(50),
        ));
        sim.run_until(SimTime::from_ms(1));
        let gen = sim.tcp(f).rto_gen();
        let first = sim.rto_entries(f);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].0, SimTime::from_ms(10), "initial RTO");
        // A later re-arm queues nothing; an earlier one overtakes.
        sim.arm_rto(f, SimTime::from_ms(30), gen);
        assert_eq!(sim.rto_entries(f), first);
        sim.arm_rto(f, SimTime::from_ms(4), gen);
        assert_eq!(sim.rto_entries(f).len(), 2);

        sim.run_until(SimTime::from_ns(SimTime::from_ms(4).as_ns() - 1));
        assert_eq!(sim.tcp(f).timeouts, 0);
        sim.run_until(SimTime::from_ms(4));
        assert_eq!(sim.tcp(f).timeouts, 1, "fires at the earlier deadline");
        // The backed-off re-arm (4 ms + 2 x 10 ms) is the next to fire:
        // the overtaken 10 ms entry is dropped on the way.
        sim.run_until(SimTime::from_ns(SimTime::from_ms(24).as_ns() - 1));
        assert_eq!(sim.tcp(f).timeouts, 1);
        assert_eq!(sim.rto_entries(f).len(), 1);
        sim.run_until(SimTime::from_ms(24));
        assert_eq!(sim.tcp(f).timeouts, 2);
    }

    #[test]
    fn a_forced_loss_fires_at_the_latest_arm() {
        let mut sim = dumbbell_sim(QueueConfig::default_priority());
        let a = sim.topo().node_by_name("L0").unwrap();
        let b = sim.topo().node_by_name("R0").unwrap();
        let f = sim.add_tcp_flow(TcpFlowSpec::running_until(
            a,
            b,
            Priority::LOW,
            SimTime::from_ms(50),
        ));
        sim.schedule_link_state(core_link(&sim), false, SimTime::from_ms(5));
        sim.run_until(SimTime::from_ms(6));
        let ((deadline, _), gen) = sim.rto[&f].armed.unwrap();
        assert_eq!(gen, sim.tcp(f).rto_gen(), "the latest arm is the conn's");
        assert!(deadline > SimTime::from_ms(6), "{deadline}");
        let (timeouts, retransmits) = (sim.tcp(f).timeouts, sim.tcp(f).retransmits);
        assert_eq!(timeouts, 0);

        sim.run_until(SimTime::from_ns(deadline.as_ns() - 1));
        assert_eq!(sim.tcp(f).timeouts, 0, "nothing fires before the deadline");
        sim.run_until(deadline);
        assert_eq!(sim.tcp(f).timeouts, 1, "the RTO fires at {deadline}");
        assert_eq!(sim.tcp(f).retransmits, retransmits + 1, "go-back-N once");
    }
}
