//! The SwitchPointer end-host component (§4.2).
//!
//! Extends the PathDump end-host design: every delivered packet's telemetry
//! is decoded ([`telemetry::TelemetryDecoder`]) and folded into the
//! [`FlowStore`]; a trigger engine samples per-flow throughput every
//! millisecond and raises an alert when throughput drops by more than half
//! (the §5.1 heuristic: "measures throughput every 1 ms interval and
//! generates an alert ... if throughput drop is more than 50%").

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use netsim::apps::{AppCtx, HostApp};
use netsim::packet::{FlowId, NodeId, Packet};
use netsim::time::SimTime;
use telemetry::frame::{Dec, Enc, Wire, WireError};
use telemetry::TelemetryDecoder;

use crate::hoststore::FlowStore;

/// Trigger-engine tuning.
#[derive(Debug, Clone, Copy)]
pub struct TriggerConfig {
    /// Throughput sampling interval (paper: 1 ms).
    pub window: SimTime,
    /// Fire when current window bytes < (1 - drop_fraction) × previous.
    pub(crate) drop_fraction: f64,
    /// Ignore windows whose predecessor carried less than this many bytes
    /// (suppresses noise from idle or just-started flows).
    pub(crate) min_window_bytes: u64,
}

impl Default for TriggerConfig {
    fn default() -> Self {
        TriggerConfig {
            window: SimTime::from_ms(1),
            drop_fraction: 0.5,
            min_window_bytes: 20_000, // ~0.16 Gbps in a 1 ms window
        }
    }
}

/// A raised spurious-event alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerEvent {
    /// When the trigger engine noticed the drop (end of the bad window).
    pub at: SimTime,
    /// The suffering flow.
    pub flow: FlowId,
    /// Bytes in the window before the drop.
    pub prev_bytes: u64,
    /// Bytes in the dropped window.
    pub cur_bytes: u64,
}

impl Wire for TriggerEvent {
    fn enc(&self, e: &mut Enc) {
        self.at.enc(e);
        self.flow.enc(e);
        e.put_u64(self.prev_bytes);
        e.put_u64(self.cur_bytes);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(TriggerEvent {
            at: SimTime::dec(d)?,
            flow: FlowId::dec(d)?,
            prev_bytes: d.get_u64()?,
            cur_bytes: d.get_u64()?,
        })
    }
}

/// Shared, queryable state of one SwitchPointer host.
pub struct HostComponent {
    /// The host this component runs on.
    pub(crate) host: NodeId,
    /// Decoded flow records (what the analyzer queries).
    pub store: FlowStore,
    /// Alerts raised so far, in time order (oldest may have been trimmed
    /// by retention sweeps). Private so every mutation goes through a
    /// path that bumps `trigger_version` — snapshot baselines depend on
    /// it; read via [`HostComponent::triggers`].
    triggers: Vec<TriggerEvent>,
    /// Monotone version of the trigger log: bumps on every raised alert
    /// *and* on every retention trim. Snapshot baselines compare it
    /// rather than the log length, so a trim-then-raise coincidence can
    /// never alias an unchanged log.
    trigger_version: u64,
    /// Packets whose telemetry failed to decode.
    pub decode_failures: u64,
    /// Ignore pure ACKs when building flow records (they still count for
    /// switch pointers — this only reduces record noise at the host).
    pub(crate) skip_pure_acks: bool,
    decoder: Rc<TelemetryDecoder>,
    trigger_cfg: TriggerConfig,
    /// Per-flow bytes observed in the current sampling window.
    window_bytes: HashMap<FlowId, u64>,
    /// Per-flow bytes in the previous window.
    prev_bytes: HashMap<FlowId, u64>,
}

impl HostComponent {
    pub(crate) fn new(
        host: NodeId,
        decoder: Rc<TelemetryDecoder>,
        trigger_cfg: TriggerConfig,
    ) -> Self {
        HostComponent {
            host,
            store: FlowStore::new(),
            triggers: Vec::new(),
            trigger_version: 0,
            decode_failures: 0,
            skip_pure_acks: true,
            decoder,
            trigger_cfg,
            window_bytes: HashMap::new(),
            prev_bytes: HashMap::new(),
        }
    }

    fn ingest(&mut self, ctx: &AppCtx, pkt: &Packet) {
        if self.skip_pure_acks && pkt.is_pure_ack() {
            return;
        }
        *self.window_bytes.entry(pkt.flow).or_insert(0) += pkt.payload as u64;
        match self.decoder.decode(pkt, ctx.local_time) {
            Ok(telem) => {
                let link_vid = telemetry::wire::read_commodity(pkt).map(|(l, _)| l);
                self.store.ingest(
                    pkt.flow,
                    pkt.src,
                    pkt.dst,
                    pkt.protocol,
                    pkt.priority,
                    pkt.payload,
                    &telem,
                    link_vid,
                );
            }
            Err(_) => self.decode_failures += 1,
        }
    }

    fn evaluate_triggers(&mut self, now: SimTime) {
        for (&flow, &prev) in &self.prev_bytes {
            if prev < self.trigger_cfg.min_window_bytes {
                continue;
            }
            let cur = self.window_bytes.get(&flow).copied().unwrap_or(0);
            if (cur as f64) < (1.0 - self.trigger_cfg.drop_fraction) * prev as f64 {
                self.trigger_version += 1;
                self.triggers.push(TriggerEvent {
                    at: now,
                    flow,
                    prev_bytes: prev,
                    cur_bytes: cur,
                });
            }
        }
        self.prev_bytes = std::mem::take(&mut self.window_bytes);
    }

    /// First trigger raised for `flow`, if any (post-trim: the first
    /// still-retained one).
    pub fn first_trigger_for(&self, flow: FlowId) -> Option<&TriggerEvent> {
        self.triggers.iter().find(|t| t.flow == flow)
    }

    /// The trigger log: alerts raised so far and not yet trimmed, in time
    /// order.
    pub fn triggers(&self) -> &[TriggerEvent] {
        &self.triggers
    }

    /// The monotone trigger-log version (bumps on raise and on trim).
    pub fn trigger_version(&self) -> u64 {
        self.trigger_version
    }

    /// Retention: drops trigger-log entries raised before `cutoff` (local
    /// time). The log is appended in time order, so this is a prefix
    /// drop; a standing watch whose pin floors the sweep at or below its
    /// trigger's epoch keeps that trigger. Returns how many were trimmed
    /// (0 ⇒ no state change, no version bump).
    pub(crate) fn trim_triggers_before(&mut self, cutoff: SimTime) -> usize {
        let n = self.triggers.iter().take_while(|t| t.at < cutoff).count();
        if n > 0 {
            self.triggers.drain(..n);
            self.trigger_version += 1;
        }
        n
    }

    /// Builds the alert message for a triggered flow — the §5.1 payload:
    /// "a series of <switchID, a list of epochIDs, a list of byte counts
    /// per epoch> tuples that tell the analyzer when and where packets of
    /// the TCP flow visit".
    pub fn alert_payload(&self, trigger: &TriggerEvent) -> Option<AlertPayload> {
        let rec = self.store.record(trigger.flow)?;
        let per_switch = rec
            .path
            .iter()
            .map(|&sw| {
                let epochs: Vec<u64> = rec
                    .epochs_at
                    .get(&sw)
                    .map(|s| s.iter().collect())
                    .unwrap_or_default();
                // Byte counts are exact only at the tagging switch; other
                // hops inherit the same series (the flow's bytes are the
                // flow's bytes — what varies is the epoch attribution).
                let bytes: Vec<(u64, u64)> =
                    rec.bytes_per_epoch.iter().map(|(&e, &b)| (e, b)).collect();
                SwitchEpochs {
                    switch: sw,
                    epochs,
                    bytes_per_epoch: bytes,
                }
            })
            .collect();
        Some(AlertPayload {
            flow: trigger.flow,
            host: self.host,
            at: trigger.at,
            prev_bytes: trigger.prev_bytes,
            cur_bytes: trigger.cur_bytes,
            per_switch,
        })
    }
}

/// One `<switchID, epochIDs, per-epoch byte counts>` tuple of an alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchEpochs {
    pub switch: NodeId,
    /// Epochs during which this switch may have processed the flow.
    pub epochs: Vec<u64>,
    /// (epoch, payload bytes) pairs, exact at the tagging switch.
    pub(crate) bytes_per_epoch: Vec<(u64, u64)>,
}

/// The alert a host sends the analyzer when its trigger fires (§5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertPayload {
    pub(crate) flow: FlowId,
    /// Reporting host (the flow's destination).
    pub(crate) host: NodeId,
    pub(crate) at: SimTime,
    pub(crate) prev_bytes: u64,
    pub(crate) cur_bytes: u64,
    /// When and where the flow's packets travelled.
    pub per_switch: Vec<SwitchEpochs>,
}

/// Shared handle the analyzer keeps.
pub type HostHandle = Rc<RefCell<HostComponent>>;

/// The simulator-facing adapter.
pub(crate) struct SwitchPointerHostApp {
    state: HostHandle,
    window: SimTime,
}

impl SwitchPointerHostApp {
    /// Wraps shared host state as an installable app; returns (app, handle).
    pub(crate) fn new(component: HostComponent) -> (Self, HostHandle) {
        let window = component.trigger_cfg.window;
        let state = Rc::new(RefCell::new(component));
        (
            SwitchPointerHostApp {
                state: state.clone(),
                window,
            },
            state,
        )
    }
}

impl HostApp for SwitchPointerHostApp {
    fn on_packet(&mut self, ctx: &mut AppCtx, pkt: &Packet) {
        self.state.borrow_mut().ingest(ctx, pkt);
    }

    fn on_install(&mut self, ctx: &mut AppCtx) {
        ctx.schedule_timer(ctx.now + self.window, 0);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, _token: u64) {
        self.state.borrow_mut().evaluate_triggers(ctx.now);
        ctx.schedule_timer(ctx.now + self.window, 0);
    }
}

/// Installs the SwitchPointer host component on every host of a simulator.
pub(crate) fn install_on_all_hosts(
    sim: &mut netsim::engine::Simulator,
    decoder: Rc<TelemetryDecoder>,
    trigger_cfg: TriggerConfig,
) -> HashMap<NodeId, HostHandle> {
    let hosts: Vec<NodeId> = sim.topo().hosts().to_vec();
    let mut handles = HashMap::new();
    for h in hosts {
        let comp = HostComponent::new(h, decoder.clone(), trigger_cfg);
        let (app, handle) = SwitchPointerHostApp::new(comp);
        sim.set_host_app(h, Box::new(app));
        handles.insert(h, handle);
    }
    handles
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::{Priority, Protocol, TcpHeader};
    use telemetry::{EmbedMode, EpochParams, PathCodec};

    fn decoder_for(topo: &netsim::topology::Topology) -> Rc<TelemetryDecoder> {
        Rc::new(TelemetryDecoder::new(
            PathCodec::new(topo.clone()),
            EpochParams {
                alpha: SimTime::from_ms(1),
                epsilon: SimTime::from_ms(1),
                delta: SimTime::from_ms(2),
            },
            EmbedMode::Commodity,
        ))
    }

    fn mk_component() -> (HostComponent, netsim::topology::Topology) {
        let topo = netsim::topology::Topology::chain(2, 1, netsim::topology::GBPS);
        let b = topo.node_by_name("B").unwrap();
        (
            HostComponent::new(b, decoder_for(&topo), TriggerConfig::default()),
            topo,
        )
    }

    fn data_pkt(topo: &netsim::topology::Topology, payload: u32, tagged: bool) -> Packet {
        let a = topo.node_by_name("A").unwrap();
        let b = topo.node_by_name("B").unwrap();
        let s1 = topo.node_by_name("S1").unwrap();
        let s2 = topo.node_by_name("S2").unwrap();
        let mut p = Packet {
            id: 0,
            flow: FlowId(1),
            src: a,
            dst: b,
            protocol: Protocol::Udp,
            priority: Priority::LOW,
            payload,
            tcp: None,
            tags: Vec::new(),
            sent_at: SimTime::ZERO,
        };
        if tagged {
            let link = topo
                .ports(s1)
                .iter()
                .find(|&&(_, peer)| peer == s2)
                .map(|&(l, _)| l)
                .unwrap();
            telemetry::wire::embed_commodity(&mut p, link.0, 3);
        }
        p
    }

    fn ctx(host: NodeId, ms: u64) -> AppCtx {
        AppCtx::new(SimTime::from_ms(ms), SimTime::from_ms(ms), host)
    }

    #[test]
    fn tagged_packets_build_records() {
        let (mut c, topo) = mk_component();
        let host = c.host;
        c.ingest(&ctx(host, 3), &data_pkt(&topo, 1000, true));
        c.ingest(&ctx(host, 3), &data_pkt(&topo, 500, true));
        assert_eq!(c.store.len(), 1);
        let r = c.store.record(FlowId(1)).unwrap();
        assert_eq!(r.bytes, 1500);
        assert_eq!(r.path.len(), 2);
        assert_eq!(c.decode_failures, 0);
    }

    #[test]
    fn untagged_packets_count_as_decode_failures() {
        let (mut c, topo) = mk_component();
        let host = c.host;
        c.ingest(&ctx(host, 0), &data_pkt(&topo, 1000, false));
        assert_eq!(c.store.len(), 0);
        assert_eq!(c.decode_failures, 1);
    }

    #[test]
    fn pure_acks_skipped_by_default() {
        let (mut c, topo) = mk_component();
        let host = c.host;
        let mut p = data_pkt(&topo, 0, true);
        p.protocol = Protocol::Tcp;
        p.tcp = Some(TcpHeader {
            seq: 0,
            ack: 100,
            is_ack: true,
            ce: false,
        });
        c.ingest(&ctx(host, 0), &p);
        assert_eq!(c.store.len(), 0);
        assert_eq!(c.decode_failures, 0);
    }

    #[test]
    fn throughput_drop_raises_trigger() {
        let (mut c, topo) = mk_component();
        let host = c.host;
        // Window 1: 100 KB.
        for _ in 0..100 {
            c.ingest(&ctx(host, 0), &data_pkt(&topo, 1000, true));
        }
        c.evaluate_triggers(SimTime::from_ms(1));
        assert!(c.triggers.is_empty(), "first window cannot trigger");
        // Window 2: 10 KB — a 90% drop.
        for _ in 0..10 {
            c.ingest(&ctx(host, 1), &data_pkt(&topo, 1000, true));
        }
        c.evaluate_triggers(SimTime::from_ms(2));
        assert_eq!(c.triggers.len(), 1);
        let t = c.triggers[0];
        assert_eq!(t.flow, FlowId(1));
        assert_eq!(t.at, SimTime::from_ms(2));
        assert_eq!(t.prev_bytes, 100_000);
        assert_eq!(t.cur_bytes, 10_000);
    }

    #[test]
    fn mild_drop_below_threshold_does_not_trigger() {
        let (mut c, topo) = mk_component();
        let host = c.host;
        for _ in 0..100 {
            c.ingest(&ctx(host, 0), &data_pkt(&topo, 1000, true));
        }
        c.evaluate_triggers(SimTime::from_ms(1));
        // 60% of previous: above the 50%-drop threshold.
        for _ in 0..60 {
            c.ingest(&ctx(host, 1), &data_pkt(&topo, 1000, true));
        }
        c.evaluate_triggers(SimTime::from_ms(2));
        assert!(c.triggers.is_empty());
    }

    #[test]
    fn quiet_flows_do_not_trigger() {
        let (mut c, topo) = mk_component();
        let host = c.host;
        // Tiny previous window (below min_window_bytes): a stop is not a
        // reportable drop.
        c.ingest(&ctx(host, 0), &data_pkt(&topo, 500, true));
        c.evaluate_triggers(SimTime::from_ms(1));
        c.evaluate_triggers(SimTime::from_ms(2));
        assert!(c.triggers.is_empty());
    }

    #[test]
    fn alert_payload_carries_switch_epoch_bytes() {
        let (mut c, topo) = mk_component();
        let host = c.host;
        for _ in 0..100 {
            c.ingest(&ctx(host, 3), &data_pkt(&topo, 1000, true));
        }
        c.evaluate_triggers(SimTime::from_ms(4));
        c.evaluate_triggers(SimTime::from_ms(5)); // starved window -> trigger
        let trig = *c.first_trigger_for(FlowId(1)).expect("trigger");
        let alert = c.alert_payload(&trig).expect("payload");
        assert_eq!(alert.flow, FlowId(1));
        assert_eq!(alert.host, host);
        assert_eq!(alert.per_switch.len(), 2, "S1 and S2 on the path");
        // The tagging switch's per-epoch byte series sums to the ingested
        // payload bytes.
        let total: u64 = alert.per_switch[0]
            .bytes_per_epoch
            .iter()
            .map(|&(_, b)| b)
            .sum();
        assert_eq!(total, 100_000);
        // Tagged epoch 3 must appear in every hop's epoch list.
        for sw in &alert.per_switch {
            assert!(sw.epochs.contains(&3), "{sw:?}");
        }
    }

    #[test]
    fn alert_payload_none_without_record() {
        let (c, _) = mk_component();
        let trig = TriggerEvent {
            at: SimTime::from_ms(1),
            flow: FlowId(99),
            prev_bytes: 1,
            cur_bytes: 0,
        };
        assert!(c.alert_payload(&trig).is_none());
    }

    #[test]
    fn full_starvation_triggers() {
        let (mut c, topo) = mk_component();
        let host = c.host;
        for _ in 0..100 {
            c.ingest(&ctx(host, 0), &data_pkt(&topo, 1000, true));
        }
        c.evaluate_triggers(SimTime::from_ms(1));
        // Nothing arrives in window 2.
        c.evaluate_triggers(SimTime::from_ms(2));
        assert_eq!(c.triggers.len(), 1);
        assert_eq!(c.triggers[0].cur_bytes, 0);
    }
}
