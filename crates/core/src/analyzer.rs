//! The SwitchPointer analyzer (§4.3) and the four debugging applications of
//! §5.
//!
//! The analyzer coordinates with switch agents (pulling pointer sets — the
//! "directory service") and host agents (filter/aggregate queries over flow
//! records). Its latency is *modelled* by [`CostModel`] (connection
//! initiation per host, pointer-retrieval rounds, …) while its *answers*
//! are computed from the real data structures populated during simulation —
//! exactly the split that makes the reproduced latency shapes honest: who
//! gets contacted is real, how long a contact takes is calibrated.
//!
//! Implemented applications:
//! * [`Analyzer::diagnose_contention`] — §5.1 too much traffic
//!   (priority-based and microburst-based);
//! * [`Analyzer::diagnose_red_lights`] — §5.2 spatial correlation across
//!   switches;
//! * [`Analyzer::diagnose_cascade`] — §5.3 spatio-temporal recursion;
//! * [`Analyzer::diagnose_load_imbalance`] — §5.4 per-egress flow-size
//!   distributions;
//! * [`Analyzer::top_k`] — the §6.2 top-k query (benchmarked against
//!   PathDump in Fig. 12).

use std::cell::Ref;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use mphf::Mphf;
use netsim::packet::{FlowId, NodeId, Priority};
use netsim::routing::RouteTable;
use netsim::time::SimTime;
use netsim::topology::Topology;
use telemetry::frame::{Dec, Enc, Wire, WireError};
use telemetry::{EpochParams, EpochRange};

use crate::bitset::BitSet;
use crate::cost::{CostModel, LatencyBreakdown, QueryWaveCost};
use crate::host::{HostHandle, TriggerEvent};
use crate::hoststore::{FlowRecord, FlowStore};
use crate::query::{
    host_wave, Deferred, FilterWaveReply, QueryExecutor, QueryRequest, QueryResponse,
    SizesWaveReply, StateView, TopKWaveReply,
};
use crate::switch::SwitchHandle;

/// Maps pointer-bit indices back to hosts (the analyzer built the MPHF, so
/// it owns the inverse mapping; §4.3 "constructs a minimal perfect hash
/// function ... distributes it to all the switches").
#[derive(Debug)]
pub struct HostDirectory {
    mphf: Arc<Mphf>,
    by_slot: Vec<Option<NodeId>>,
}

impl HostDirectory {
    pub(crate) fn new(mphf: Arc<Mphf>, hosts: &[NodeId]) -> Self {
        let mut by_slot = vec![None; mphf.len()];
        for &h in hosts {
            let idx = mphf
                .index(&h.addr())
                .expect("directory host missing from MPHF");
            by_slot[idx] = Some(h);
        }
        HostDirectory { mphf, by_slot }
    }

    /// The hash function (shared with all switches).
    pub fn mphf(&self) -> &Arc<Mphf> {
        &self.mphf
    }

    /// Decodes a pointer bit set into host ids (ascending).
    pub fn hosts_in(&self, bits: &BitSet) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = bits
            .iter_ones()
            .filter_map(|i| self.by_slot.get(i).copied().flatten())
            .collect();
        out.sort();
        out
    }
}

/// One deployment: the static picture of the network the analyzer
/// reasons over (§4.3) — the topology, its ECMP routes, the epoch timing,
/// the bit → host directory of the MPHF the switches share, and the
/// calibrated cost model. [`Testbed::new`](crate::testbed::Testbed::new)
/// builds it once, around the simulator's own topology and route table,
/// and every analyzer, executor and plane over that testbed shares it
/// behind one `Arc`. Nothing in it changes after.
pub struct Deployment {
    pub topo: Arc<Topology>,
    pub routes: Arc<RouteTable>,
    pub params: EpochParams,
    pub directory: HostDirectory,
    pub cost: CostModel,
}

impl Deployment {
    /// Search-radius reduction (§4.3): keep only hosts whose traffic can
    /// have shared the victim's egress port at `switch`. The victim's next
    /// hop determines the port; a pointer host is relevant iff some
    /// equal-cost route from `switch` to it uses the same port.
    pub(crate) fn reduce_search_radius(
        &self,
        switch: NodeId,
        victim_dst: NodeId,
        victim_flow: FlowId,
        hosts: Vec<NodeId>,
    ) -> Vec<NodeId> {
        let Some(victim_port) = self.routes.egress(switch, victim_dst, victim_flow) else {
            return hosts;
        };
        hosts
            .into_iter()
            .filter(|&h| self.routes.ports(switch, h).contains(&victim_port))
            .collect()
    }

    /// The epoch window to diagnose around a trigger, with ±⌈ε/α⌉ slack
    /// for clock asynchrony. Covers the dropped window and the one before
    /// it.
    pub(crate) fn epoch_window(
        &self,
        trigger: &TriggerEvent,
        trigger_window: SimTime,
    ) -> EpochRange {
        let p = self.params;
        let slack = p.epsilon.as_ns().div_ceil(p.alpha.as_ns());
        let hi = p.epoch_of(trigger.at) + slack;
        let lo = p
            .epoch_of(trigger.at.saturating_sub(trigger_window * 2))
            .saturating_sub(slack);
        EpochRange { lo, hi }
    }

    /// The latency of a diagnosis whose pointer rounds cost `retrieval`
    /// and whose host wave cost `wave`.
    pub(crate) fn breakdown(
        &self,
        detection: SimTime,
        retrieval: SimTime,
        wave: QueryWaveCost,
    ) -> LatencyBreakdown {
        LatencyBreakdown {
            detection,
            alert: self.cost.alert_rtt,
            pointer_retrieval: retrieval,
            diagnosis: wave.total(),
            diagnosis_detail: wave,
        }
    }
}

/// A contending flow identified during diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Culprit {
    pub flow: FlowId,
    pub src: NodeId,
    pub dst: NodeId,
    /// Host whose store produced the record.
    pub host: NodeId,
    pub priority: Priority,
    pub bytes: u64,
    /// Epochs (at the diagnosed switch) shared with the victim.
    pub common_epochs: Vec<u64>,
}

/// Outcome of a contention diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Higher-priority flows starved the victim (§2.1 priority contention).
    PriorityContention,
    /// Equal-priority burst overflowed the queue (§2.1 microburst).
    Microburst,
    /// No contending flow found in the window.
    NoCulprit,
}

/// Result of [`Analyzer::diagnose_contention`].
#[derive(Debug, Clone)]
pub struct ContentionDiagnosis {
    pub victim: FlowId,
    /// The switch the diagnosis settled on.
    pub switch: NodeId,
    /// Epoch window diagnosed.
    pub epochs: EpochRange,
    pub culprits: Vec<Culprit>,
    pub hosts_contacted: usize,
    pub verdict: Verdict,
    pub breakdown: LatencyBreakdown,
}

/// Result of [`Analyzer::diagnose_red_lights`].
#[derive(Debug, Clone)]
pub struct RedLightsDiagnosis {
    pub victim: FlowId,
    /// Culprits found at each switch of the victim's path.
    pub per_switch: Vec<(NodeId, Vec<Culprit>)>,
    /// Switches where contention was confirmed (≥1 culprit with a common
    /// epoch).
    pub implicated: Vec<NodeId>,
    pub hosts_contacted: usize,
    pub breakdown: LatencyBreakdown,
}

/// One stage of a cascade diagnosis: `victim` was delayed by `culprit` at
/// `switch`.
#[derive(Debug, Clone)]
pub struct CascadeStage {
    pub victim: FlowId,
    pub switch: NodeId,
    pub culprit: Culprit,
}

/// Result of [`Analyzer::diagnose_cascade`].
#[derive(Debug, Clone)]
pub struct CascadeDiagnosis {
    /// Delay chain, outermost victim first (C-E ← A-F ← B-D in Fig. 1c).
    pub stages: Vec<CascadeStage>,
    pub hosts_contacted: usize,
    pub breakdown: LatencyBreakdown,
}

/// Result of [`Analyzer::diagnose_load_imbalance`].
#[derive(Debug, Clone)]
pub struct LoadImbalanceDiagnosis {
    /// Flow sizes grouped by egress link VID.
    pub per_link: BTreeMap<u16, Vec<u64>>,
    /// If the distributions separate cleanly, the size threshold between
    /// the two busiest links.
    pub separation_bytes: Option<u64>,
    pub hosts_contacted: usize,
    pub breakdown: LatencyBreakdown,
}

/// Result of [`Analyzer::localize_silent_drop`].
#[derive(Debug, Clone)]
pub struct DropDiagnosis {
    pub flow: FlowId,
    /// Switches on the flow's forwarding path, in order.
    pub path: Vec<NodeId>,
    /// Per switch: did its pointer witness the destination in the window?
    pub per_switch: Vec<(NodeId, bool)>,
    /// (last switch that forwarded, first that did not) — the failure lies
    /// between them. `None` if the flow was seen everywhere (no drop on
    /// this path) or nowhere.
    pub suspected_segment: Option<(NodeId, NodeId)>,
    /// Modelled cost of the pointer pulls.
    pub pointer_retrieval: SimTime,
}

/// Result of [`Analyzer::top_k`].
#[derive(Debug, Clone)]
pub struct TopKResult {
    pub flows: Vec<(FlowId, u64)>,
    pub hosts_contacted: usize,
    /// Pointer retrieval latency (zero for the PathDump baseline).
    pub pointer_retrieval: SimTime,
    pub wave: QueryWaveCost,
}

impl TopKResult {
    pub fn total_latency(&self) -> SimTime {
        self.pointer_retrieval + self.wave.total()
    }
}

impl Wire for Verdict {
    fn enc(&self, e: &mut Enc) {
        e.put_u8(match self {
            Verdict::PriorityContention => 0,
            Verdict::Microburst => 1,
            Verdict::NoCulprit => 2,
        });
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(Verdict::PriorityContention),
            1 => Ok(Verdict::Microburst),
            2 => Ok(Verdict::NoCulprit),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for Culprit {
    fn enc(&self, e: &mut Enc) {
        self.flow.enc(e);
        self.src.enc(e);
        self.dst.enc(e);
        self.host.enc(e);
        self.priority.enc(e);
        e.put_u64(self.bytes);
        self.common_epochs.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Culprit {
            flow: FlowId::dec(d)?,
            src: NodeId::dec(d)?,
            dst: NodeId::dec(d)?,
            host: NodeId::dec(d)?,
            priority: Priority::dec(d)?,
            bytes: d.get_u64()?,
            common_epochs: Vec::dec(d)?,
        })
    }
}

impl Wire for ContentionDiagnosis {
    fn enc(&self, e: &mut Enc) {
        self.victim.enc(e);
        self.switch.enc(e);
        self.epochs.enc(e);
        self.culprits.enc(e);
        e.put_usize(self.hosts_contacted);
        self.verdict.enc(e);
        self.breakdown.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(ContentionDiagnosis {
            victim: FlowId::dec(d)?,
            switch: NodeId::dec(d)?,
            epochs: EpochRange::dec(d)?,
            culprits: Vec::dec(d)?,
            hosts_contacted: d.get_usize()?,
            verdict: Verdict::dec(d)?,
            breakdown: LatencyBreakdown::dec(d)?,
        })
    }
}

impl Wire for RedLightsDiagnosis {
    fn enc(&self, e: &mut Enc) {
        self.victim.enc(e);
        self.per_switch.enc(e);
        self.implicated.enc(e);
        e.put_usize(self.hosts_contacted);
        self.breakdown.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(RedLightsDiagnosis {
            victim: FlowId::dec(d)?,
            per_switch: Vec::dec(d)?,
            implicated: Vec::dec(d)?,
            hosts_contacted: d.get_usize()?,
            breakdown: LatencyBreakdown::dec(d)?,
        })
    }
}

impl Wire for CascadeStage {
    fn enc(&self, e: &mut Enc) {
        self.victim.enc(e);
        self.switch.enc(e);
        self.culprit.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(CascadeStage {
            victim: FlowId::dec(d)?,
            switch: NodeId::dec(d)?,
            culprit: Culprit::dec(d)?,
        })
    }
}

impl Wire for CascadeDiagnosis {
    fn enc(&self, e: &mut Enc) {
        self.stages.enc(e);
        e.put_usize(self.hosts_contacted);
        self.breakdown.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(CascadeDiagnosis {
            stages: Vec::dec(d)?,
            hosts_contacted: d.get_usize()?,
            breakdown: LatencyBreakdown::dec(d)?,
        })
    }
}

impl Wire for LoadImbalanceDiagnosis {
    fn enc(&self, e: &mut Enc) {
        self.per_link.enc(e);
        self.separation_bytes.enc(e);
        e.put_usize(self.hosts_contacted);
        self.breakdown.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(LoadImbalanceDiagnosis {
            per_link: BTreeMap::dec(d)?,
            separation_bytes: Option::dec(d)?,
            hosts_contacted: d.get_usize()?,
            breakdown: LatencyBreakdown::dec(d)?,
        })
    }
}

impl Wire for TopKResult {
    fn enc(&self, e: &mut Enc) {
        self.flows.enc(e);
        e.put_usize(self.hosts_contacted);
        self.pointer_retrieval.enc(e);
        self.wave.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(TopKResult {
            flows: Vec::dec(d)?,
            hosts_contacted: d.get_usize()?,
            pointer_retrieval: SimTime::dec(d)?,
            wave: QueryWaveCost::dec(d)?,
        })
    }
}

impl Wire for DropDiagnosis {
    fn enc(&self, e: &mut Enc) {
        self.flow.enc(e);
        self.path.enc(e);
        self.per_switch.enc(e);
        self.suspected_segment.enc(e);
        self.pointer_retrieval.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(DropDiagnosis {
            flow: FlowId::dec(d)?,
            path: Vec::dec(d)?,
            per_switch: Vec::dec(d)?,
            suspected_segment: Option::dec(d)?,
            pointer_retrieval: SimTime::dec(d)?,
        })
    }
}

/// The analyzer: the shared [`Deployment`] plus the live switch and host
/// components it queries.
pub struct Analyzer {
    deployment: Arc<Deployment>,
    switches: HashMap<NodeId, SwitchHandle>,
    hosts: HashMap<NodeId, HostHandle>,
}

impl Analyzer {
    pub(crate) fn new(
        deployment: Arc<Deployment>,
        switches: HashMap<NodeId, SwitchHandle>,
        hosts: HashMap<NodeId, HostHandle>,
    ) -> Self {
        Analyzer {
            deployment,
            switches,
            hosts,
        }
    }

    /// The directory (bit → host decoding).
    pub fn directory(&self) -> &HostDirectory {
        &self.deployment.directory
    }

    /// The deployment this analyzer reasons over — what executors take
    /// besides the state they read, so alternative routers (the backend
    /// router, the wire front-end) run the shared executor over their own
    /// views. Every analyzer of one testbed returns the same `Arc`.
    pub fn ctx(&self) -> &Arc<Deployment> {
        &self.deployment
    }

    /// A [`StateView`] over the live simulator component handles.
    pub fn live_view(&self) -> LiveView<'_> {
        LiveView {
            switches: &self.switches,
            hosts: &self.hosts,
        }
    }

    /// Runs any [`QueryRequest`] against the live deployment state.
    pub fn execute(&self, req: &QueryRequest) -> QueryResponse {
        let view = self.live_view();
        QueryExecutor::new(self.ctx(), &view).execute(req)
    }

    /// Pulls the pointer union for `range` from `switch` and decodes it.
    pub fn hosts_for(&self, switch: NodeId, range: EpochRange) -> Vec<NodeId> {
        let Some(sw) = self.switches.get(&switch) else {
            panic!("no SwitchPointer component on {switch}")
        };
        let bits = sw.borrow().pointers.pointer_union(range.lo, range.hi);
        self.directory().hosts_in(&bits)
    }

    /// Search-radius reduction (§4.3): keep only hosts whose traffic can
    /// have shared the victim's egress port at `switch`
    /// (`Deployment::reduce_search_radius`).
    pub fn reduce_search_radius(
        &self,
        switch: NodeId,
        victim_dst: NodeId,
        victim_flow: FlowId,
        hosts: Vec<NodeId>,
    ) -> Vec<NodeId> {
        self.deployment
            .reduce_search_radius(switch, victim_dst, victim_flow, hosts)
    }

    /// The epoch window to diagnose around a trigger, with ±⌈ε/α⌉ slack for
    /// clock asynchrony (`Deployment::epoch_window`).
    pub fn epoch_window(&self, trigger: &TriggerEvent, trigger_window: SimTime) -> EpochRange {
        self.deployment.epoch_window(trigger, trigger_window)
    }

    /// Diagnoses priority/microburst contention for a victim flow whose
    /// destination raised a trigger (§5.1): alert → pointer retrieval →
    /// host queries → verdict.
    pub fn diagnose_contention(
        &self,
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
    ) -> ContentionDiagnosis {
        let QueryResponse::Contention(d) = self.execute(&QueryRequest::Contention {
            victim,
            victim_dst,
            trigger_window,
        }) else {
            unreachable!("a Contention request answers Contention")
        };
        d
    }

    /// Like [`Analyzer::diagnose_contention`] but for a specific trigger
    /// (a flow may raise several over its lifetime; under background load
    /// the operator picks the one tied to the incident under
    /// investigation).
    pub fn diagnose_contention_at(
        &self,
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
        trigger: &TriggerEvent,
    ) -> ContentionDiagnosis {
        let view = self.live_view();
        let exec = QueryExecutor::new(self.ctx(), &view);
        exec.contention_at(victim, victim_dst, trigger_window, *trigger)
    }

    /// Diagnoses accumulated contention across every switch of the victim's
    /// path (§5.2, spatial correlation).
    pub fn diagnose_red_lights(
        &self,
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
    ) -> RedLightsDiagnosis {
        let QueryResponse::RedLights(d) = self.execute(&QueryRequest::RedLights {
            victim,
            victim_dst,
            trigger_window,
        }) else {
            unreachable!("a RedLights request answers RedLights")
        };
        d
    }

    /// Recursively chases the delay chain (§5.3): who delayed the victim,
    /// then who delayed the delayer, up to `max_depth` stages.
    pub fn diagnose_cascade(
        &self,
        victim: FlowId,
        victim_dst: NodeId,
        trigger_window: SimTime,
        max_depth: usize,
    ) -> CascadeDiagnosis {
        let QueryResponse::Cascade(d) = self.execute(&QueryRequest::Cascade {
            victim,
            victim_dst,
            trigger_window,
            max_depth,
        }) else {
            unreachable!("a Cascade request answers Cascade")
        };
        d
    }

    /// Pulls pointers for `range` at `switch`, asks every pointed host for
    /// its per-egress flow sizes, and tests for a clean flow-size
    /// separation between egress links (§5.4).
    pub fn diagnose_load_imbalance(
        &self,
        switch: NodeId,
        range: EpochRange,
    ) -> LoadImbalanceDiagnosis {
        match self.execute(&QueryRequest::LoadImbalance { switch, range }) {
            QueryResponse::LoadImbalance(d) => d,
            other => unreachable!("LoadImbalance answered {}", other.class_name()),
        }
    }

    /// Top-k flows through `switch` over `range` (§6.2). SwitchPointer
    /// contacts only hosts named by the pointer; the PathDump baseline must
    /// contact every server.
    pub fn top_k(&self, switch: NodeId, k: usize, range: EpochRange) -> TopKResult {
        match self.execute(&QueryRequest::TopK { switch, k, range }) {
            QueryResponse::TopK(r) => r,
            other => unreachable!("TopK answered {}", other.class_name()),
        }
    }

    /// Localizes where a flow's packets stopped flowing, using switch
    /// pointers as per-hop *presence* witnesses (§2.4-class application).
    pub fn localize_silent_drop(
        &self,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        range: EpochRange,
    ) -> DropDiagnosis {
        let QueryResponse::SilentDrop(d) = self.execute(&QueryRequest::SilentDrop {
            flow,
            src,
            dst,
            range,
        }) else {
            unreachable!("a SilentDrop request answers SilentDrop")
        };
        d
    }

    /// All hosts known to the analyzer (used by baselines and tests).
    pub fn all_hosts(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.hosts.keys().copied().collect();
        v.sort();
        v
    }

    /// All switches with a SwitchPointer component (sorted).
    pub fn all_switches(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.switches.keys().copied().collect();
        v.sort();
        v
    }

    /// Access to a host handle (tests, baselines).
    pub fn host(&self, h: NodeId) -> Option<&HostHandle> {
        self.hosts.get(&h)
    }

    /// Access to a switch handle (tests).
    pub fn switch(&self, s: NodeId) -> Option<&SwitchHandle> {
        self.switches.get(&s)
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.deployment.cost
    }

    /// The topology the analyzer reasons over.
    pub fn topo(&self) -> &Topology {
        &self.deployment.topo
    }

    /// Epoch timing parameters in force.
    pub fn params(&self) -> EpochParams {
        self.deployment.params
    }
}

/// [`StateView`] over the live `Rc<RefCell<…>>` component handles the
/// simulator mutates — what the sequential [`Analyzer`] queries.
pub struct LiveView<'a> {
    switches: &'a HashMap<NodeId, SwitchHandle>,
    hosts: &'a HashMap<NodeId, HostHandle>,
}

impl LiveView<'_> {
    fn store(&self, host: NodeId) -> Option<Ref<'_, FlowStore>> {
        let h = self.hosts.get(&host)?;
        Some(Ref::map(h.borrow(), |h| &h.store))
    }
}

impl StateView for LiveView<'_> {
    fn pointer_union(&self, switch: NodeId, range: EpochRange) -> Deferred<'_, Option<BitSet>> {
        Deferred::Ready(
            self.switches
                .get(&switch)
                .map(|h| h.borrow().pointers.pointer_union(range.lo, range.hi)),
        )
    }

    fn pointer_contains_exact(
        &self,
        switch: NodeId,
        addr: u64,
        epoch: u64,
    ) -> Option<Option<bool>> {
        self.switches
            .get(&switch)
            .map(|h| h.borrow().pointers.contains_within(addr, epoch, 1))
    }

    fn record(&self, host: NodeId, flow: FlowId) -> Option<FlowRecord> {
        self.store(host)?.record(flow).cloned()
    }

    fn filter_wave(
        &self,
        hosts: &[NodeId],
        switch: NodeId,
        range: EpochRange,
    ) -> Deferred<'_, FilterWaveReply> {
        Deferred::Ready(host_wave(
            hosts,
            |h| self.store(h),
            |s| {
                s.flows_matching(switch, range)
                    .into_iter()
                    .cloned()
                    .collect()
            },
        ))
    }

    fn top_k_wave(&self, hosts: &[NodeId], switch: NodeId, k: usize) -> TopKWaveReply {
        host_wave(hosts, |h| self.store(h), |s| s.top_k_through(switch, k))
    }

    fn sizes_wave(&self, hosts: &[NodeId], switch: NodeId) -> SizesWaveReply {
        host_wave(hosts, |h| self.store(h), |s| s.sizes_by_link(switch))
    }

    fn first_trigger_for(&self, host: NodeId, flow: FlowId) -> Option<TriggerEvent> {
        self.hosts
            .get(&host)?
            .borrow()
            .first_trigger_for(flow)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::TriggerEvent;
    use crate::testbed::{Testbed, TestbedConfig};
    use netsim::packet::Protocol;
    use netsim::topology::GBPS;
    use telemetry::{DecodedTelemetry, HopTelemetry};

    /// An analyzer over the 3-switch chain, never simulated: tests
    /// populate switch pointers and host stores directly.
    struct Fixture {
        analyzer: Analyzer,
        topo: Topology,
    }

    fn fixture() -> Fixture {
        let topo = Topology::chain(3, 2, GBPS);
        let tb = Testbed::new(topo.clone(), TestbedConfig::default_ms());
        Fixture {
            analyzer: tb.analyzer(),
            topo,
        }
    }

    fn node(topo: &Topology, name: &str) -> NodeId {
        topo.node_by_name(name).unwrap()
    }

    fn telem(hops: &[(NodeId, u64)]) -> DecodedTelemetry {
        DecodedTelemetry {
            hops: hops
                .iter()
                .map(|&(sw, e)| HopTelemetry {
                    switch: sw,
                    epochs: EpochRange::exact(e),
                })
                .collect(),
            tag_idx: 0,
        }
    }

    #[test]
    fn hosts_for_decodes_pointer_bits() {
        let fx = fixture();
        let topo = &fx.topo;
        let (s1, d, f) = (node(topo, "S1"), node(topo, "D"), node(topo, "F"));
        {
            let h = fx.analyzer.switch(s1).unwrap();
            let mut comp = h.borrow_mut();
            comp.pointers.update(d.addr(), 5);
            comp.pointers.update(f.addr(), 6);
        }
        assert_eq!(
            fx.analyzer.hosts_for(s1, EpochRange { lo: 5, hi: 5 }),
            vec![d]
        );
        let both = fx.analyzer.hosts_for(s1, EpochRange { lo: 5, hi: 6 });
        assert_eq!(both.len(), 2);
    }

    #[test]
    fn search_radius_reduction_keeps_same_egress_only() {
        let fx = fixture();
        let topo = &fx.topo;
        let (s2, a, b, e, f) = (
            node(topo, "S2"),
            node(topo, "A"),
            node(topo, "B"),
            node(topo, "E"),
            node(topo, "F"),
        );
        // Victim heads to F (egress S2->S3). E shares that egress; A and B
        // are behind S2->S1, the opposite direction.
        let kept = fx
            .analyzer
            .reduce_search_radius(s2, f, FlowId(0), vec![a, b, e]);
        assert_eq!(kept, vec![e]);
    }

    #[test]
    fn epoch_window_includes_slack() {
        let fx = fixture();
        let trig = TriggerEvent {
            at: netsim::time::SimTime::from_ms(21),
            flow: FlowId(0),
            prev_bytes: 100_000,
            cur_bytes: 0,
        };
        let w = fx
            .analyzer
            .epoch_window(&trig, netsim::time::SimTime::from_ms(1));
        // Trigger at epoch 21, window covers [19-slack .. 21+slack], slack=1.
        assert!(w.contains(19) && w.contains(21) && w.contains(22));
        assert!(w.lo <= 18);
    }

    #[test]
    fn top_k_merges_across_hosts() {
        let fx = fixture();
        let topo = &fx.topo;
        let (s1, d, f, a, b) = (
            node(topo, "S1"),
            node(topo, "D"),
            node(topo, "F"),
            node(topo, "A"),
            node(topo, "B"),
        );
        // Pointer names D and F for epoch 3.
        {
            let mut comp = fx.analyzer.switch(s1).unwrap().borrow_mut();
            comp.pointers.update(d.addr(), 3);
            comp.pointers.update(f.addr(), 3);
        }
        // D holds a 9 KB flow record via S1; F a 5 KB one.
        fx.analyzer.host(d).unwrap().borrow_mut().store.ingest(
            FlowId(1),
            a,
            d,
            Protocol::Udp,
            Priority::LOW,
            9_000,
            &telem(&[(s1, 3)]),
            None,
        );
        fx.analyzer.host(f).unwrap().borrow_mut().store.ingest(
            FlowId(2),
            b,
            f,
            Protocol::Udp,
            Priority::LOW,
            5_000,
            &telem(&[(s1, 3)]),
            None,
        );
        let r = fx.analyzer.top_k(s1, 10, EpochRange { lo: 3, hi: 3 });
        assert_eq!(r.hosts_contacted, 2);
        assert_eq!(r.flows, vec![(FlowId(1), 9_000), (FlowId(2), 5_000)]);
        assert!(r.total_latency() > r.wave.total());
    }

    #[test]
    fn directory_roundtrip_is_total_over_hosts() {
        let fx = fixture();
        let dir = fx.analyzer.directory();
        let mut bits = crate::bitset::BitSet::new(dir.mphf().len());
        for &h in fx.topo.hosts() {
            bits.set(dir.mphf().index(&h.addr()).unwrap());
        }
        let decoded = dir.hosts_in(&bits);
        assert_eq!(decoded.len(), fx.topo.hosts().len());
    }

    #[test]
    #[should_panic(expected = "no SwitchPointer component")]
    fn hosts_for_unknown_switch_panics() {
        let fx = fixture();
        // A host id is not a switch.
        let a = node(&fx.topo, "A");
        fx.analyzer.hosts_for(a, EpochRange::exact(0));
    }
}
