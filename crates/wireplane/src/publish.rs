//! The owner side of replication: journal one delta per refresh, cut it
//! into one sequenced [`Frame::DeltaAppend`] per shard, and feed every
//! replica of that shard over its [`ReplicaWriter`].
//!
//! A publish is **issue, then collect**. The issue half cuts every
//! shard's frame — its slice shares the journaled record's patches and
//! record shards by `Arc`, nothing is copied — and writes it to every
//! live replica without reading a reply, so all N × R appends are being
//! decoded and applied at once. The collect half then walks the replicas
//! in `(shard, replica)` order and runs the ladder below, whose first
//! step finds its frame already on the wire and only reads the ack.
//! Sockets are independent, a replica applies bare frames in arrival
//! order, and an ack is a ≈ 15-byte frame that never fills a buffer, so
//! neither per-shard seq order nor freedom from deadlock needs anything
//! the sequential feed did not have.
//!
//! One ladder for every replica count (`DESIGN.md` §15):
//!
//! 1. **Append** — send, in order, every retained record past the seq
//!    the replica last acked. A healthy replica is exactly one behind
//!    when a publish starts, so this is one frame — the one issued.
//! 2. **Bootstrap** — anything but an ack (a typed
//!    [`WireError::SeqGap`], a transport that stays down past the
//!    writer's retry budget) installs the owner's full current slice at
//!    the head seq with a [`Frame::SnapshotInstall`].
//! 3. **Declared dead** — a replica that cannot take even the bootstrap
//!    is never dialed again, and shows in `repl.lag` only by its absence
//!    (a shard with no live replica reports its whole head as lag).
//!
//! Retention is derived, not configured: a shard keeps exactly the
//! records some *live* replica has not acked. Every publish ends with
//! each live replica at the head or declared dead, and a joining standby
//! is bootstrapped to the head before it counts as live, so between
//! publishes that is no record at all.
//!
//! Publisher-side observability rides the registry the owner hands in:
//!
//! | metric              | kind      | meaning                                   |
//! |---------------------|-----------|-------------------------------------------|
//! | `repl.published`    | counter   | deltas journaled (one per refresh)        |
//! | `repl.appends`      | counter   | acked sequenced appends, all replicas     |
//! | `repl.gaps`         | counter   | typed `SeqGap` refusals met               |
//! | `repl.bootstraps`   | counter   | full snapshot installs                    |
//! | `repl.bootstrap_ns` | histogram | install round-trip wall clock             |
//! | `repl.lag`          | gauge     | max over shards of `head − min(applied)`  |
//! | `repl.in_flight`    | gauge     | appends written, none acked, last publish |
//!
//! plus one replicate-stage root span per `(shard, seq)` in the same
//! registry's tracer, from the shard's issue to its last ack; each
//! replica's apply-stage span links back to it.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use netsim::packet::NodeId;
use obsplane::{Counter, Gauge, Histogram, MetricsRegistry, SpanEvent};
use queryplane::{Snapshot, SnapshotDelta};
use switchpointer::Analyzer;
use telemetry::frame::{Enc, WireError};

use crate::proto::Frame;
use crate::repl::ReplicaWriter;

/// One replica as the publisher sees it.
struct ReplicaSlot {
    writer: ReplicaWriter,
    /// Last acked seq. `None` is a replica the publisher does not feed:
    /// retired on purpose, or declared dead when a bootstrap failed.
    acked: Option<u64>,
}

/// One directory shard's replication state.
struct ShardFeed {
    /// The host set the shard's slice keeps (the directory partition).
    keep: BTreeSet<NodeId>,
    /// Seq of the newest record (0 = nothing published yet).
    head: u64,
    /// The appends some live replica has not acked, oldest first, seqs
    /// contiguous up to `head`.
    unacked: VecDeque<(u64, Frame)>,
    replicas: Vec<ReplicaSlot>,
}

impl ShardFeed {
    /// The lowest acked seq among live replicas.
    fn min_acked(&self) -> Option<u64> {
        self.replicas.iter().filter_map(|slot| slot.acked).min()
    }

    /// The issue half: writes every live replica the first retained
    /// append past its acked seq — the frame [`ShardFeed::feed`] sends
    /// first — without reading the ack. Returns how many were written.
    fn issue(&self) -> usize {
        let mut written = 0;
        for slot in &self.replicas {
            let next = slot
                .acked
                .and_then(|acked| self.unacked.iter().find(|(seq, _)| *seq > acked));
            if let Some((_, frame)) = next {
                written += usize::from(slot.writer.issue(frame));
            }
        }
        written
    }

    /// Brings replica `r` up to the head: the retained appends past its
    /// acked seq (the first of them already issued), else a bootstrap,
    /// else declared dead.
    fn feed(&mut self, r: usize, snapshot: &Snapshot, metrics: &PubMetrics) {
        let slot = &mut self.replicas[r];
        let Some(mut acked) = slot.acked else {
            return;
        };
        for (seq, frame) in &self.unacked {
            if *seq <= acked {
                continue;
            }
            match slot.writer.append_frame(frame) {
                Ok(applied) => {
                    acked = applied;
                    metrics.appends.inc();
                }
                Err(e) => {
                    if matches!(e, WireError::SeqGap { .. }) {
                        metrics.gaps.inc();
                    }
                    break;
                }
            }
        }
        slot.acked = Some(acked);
        if acked != self.head {
            self.bootstrap(r, snapshot, metrics);
        }
    }

    /// Installs the owner's full current slice at the head seq. A
    /// replica that cannot even take a bootstrap is declared dead.
    fn bootstrap(&mut self, r: usize, snapshot: &Snapshot, metrics: &PubMetrics) {
        let mut e = Enc::new();
        snapshot.shard_slice(&self.keep).wire_enc(&mut e);
        let slot = &mut self.replicas[r];
        slot.acked = match slot.writer.install(self.head, e.into_bytes()) {
            Ok((applied, took)) => {
                metrics.bootstraps.inc();
                metrics.bootstrap_ns.record_duration(took);
                Some(applied)
            }
            Err(_) => None,
        };
    }
}

struct PubMetrics {
    published: Arc<Counter>,
    appends: Arc<Counter>,
    gaps: Arc<Counter>,
    bootstraps: Arc<Counter>,
    bootstrap_ns: Arc<Histogram>,
    lag: Arc<Gauge>,
    in_flight: Arc<Gauge>,
}

impl PubMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        PubMetrics {
            published: reg.counter("repl.published"),
            appends: reg.counter("repl.appends"),
            gaps: reg.counter("repl.gaps"),
            bootstraps: reg.counter("repl.bootstraps"),
            bootstrap_ns: reg.histogram("repl.bootstrap_ns"),
            lag: reg.gauge("repl.lag"),
            in_flight: reg.gauge("repl.in_flight"),
        }
    }
}

/// The owner's replication engine: the authoritative [`Snapshot`] and,
/// per shard, the replica wires fed from it.
pub struct DeltaPublisher {
    snapshot: Snapshot,
    shards: Vec<ShardFeed>,
    metrics: PubMetrics,
    /// Where `repl.*` and the replicate-stage spans are recorded.
    registry: Arc<MetricsRegistry>,
}

impl DeltaPublisher {
    /// A publisher over `snapshot`, partitioned by `keeps` (one host set
    /// per shard), with `writers[s]` the replica wires of shard `s` —
    /// replicas spawned from the same slices, so current as of seq 0.
    /// Metrics and spans are recorded into `registry`.
    pub fn new(
        snapshot: Snapshot,
        keeps: Vec<BTreeSet<NodeId>>,
        writers: Vec<Vec<ReplicaWriter>>,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        assert_eq!(keeps.len(), writers.len(), "one writer set per shard");
        let shards = keeps
            .into_iter()
            .zip(writers)
            .map(|(keep, ws)| ShardFeed {
                keep,
                head: 0,
                unacked: VecDeque::new(),
                replicas: ws
                    .into_iter()
                    .map(|writer| ReplicaSlot {
                        writer,
                        acked: Some(0),
                    })
                    .collect(),
            })
            .collect();
        DeltaPublisher {
            snapshot,
            shards,
            metrics: PubMetrics::new(&registry),
            registry,
        }
    }

    /// Journals one delta against the owner snapshot and feeds every
    /// live replica its shard's slice: every append is on the wire before
    /// the first ack is waited for. Empty records are published too —
    /// seqs advance uniformly, so a replica's applied seq always names
    /// an exact owner state.
    pub fn publish(&mut self, analyzer: &Analyzer) -> SnapshotDelta {
        let (delta, record) = self.snapshot.apply_delta_journaled(analyzer);
        let tracer = self.registry.tracer();
        // Issue. One frame — and one trace — per (shard, seq): the slice
        // moves into it and every replica is sent the same bytes.
        let mut in_flight = 0;
        let mut issued = Vec::with_capacity(self.shards.len());
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.head += 1;
            let ctx = tracer.mint_trace();
            issued.push((ctx, Instant::now()));
            shard.unacked.push_back((
                shard.head,
                Frame::DeltaAppend {
                    shard: s as u16,
                    seq: shard.head,
                    record: record.slice_for(&shard.keep),
                    ctx,
                },
            ));
            in_flight += shard.issue();
        }
        self.metrics.in_flight.set(in_flight as i64);
        // Collect, in (shard, replica) order.
        for (s, (shard, (ctx, started))) in self.shards.iter_mut().zip(issued).enumerate() {
            let seq = shard.head;
            for r in 0..shard.replicas.len() {
                shard.feed(r, &self.snapshot, &self.metrics);
            }
            if let Some(c) = ctx {
                tracer.submit(
                    SpanEvent {
                        class: "DeltaAppend",
                        stage: "replicate",
                        epoch: seq,
                        shard: s as u32,
                        start_ns: tracer.offset_ns(started),
                        dur_ns: started.elapsed().as_nanos() as u64,
                        trace_id: c.trace_id,
                        span_id: c.span_id,
                        parent_id: 0,
                        steals: 0,
                    },
                    c.sampled,
                );
            }
            // The derived retention: whatever every live replica has
            // acked is gone, and so is everything once none is left.
            let floor = shard.min_acked().unwrap_or(seq);
            while shard.unacked.front().is_some_and(|(q, _)| *q <= floor) {
                shard.unacked.pop_front();
            }
        }
        self.metrics.published.inc();
        self.metrics.lag.set(self.lag());
        delta
    }

    /// Registers a standby spawned *now* (serving the owner's current
    /// slice) as replica of shard `s`, and immediately bootstraps it so
    /// its log position matches the head. Returns its replica index.
    pub(crate) fn register_replica(&mut self, s: usize, writer: ReplicaWriter) -> usize {
        let shard = &mut self.shards[s];
        shard.replicas.push(ReplicaSlot {
            writer,
            acked: None,
        });
        let r = shard.replicas.len() - 1;
        shard.bootstrap(r, &self.snapshot, &self.metrics);
        r
    }

    /// Stops feeding replica `r` of shard `s` (it was killed on
    /// purpose); its slot stays so replica indices keep their meaning.
    pub(crate) fn retire_replica(&mut self, s: usize, r: usize) {
        self.shards[s].replicas[r].acked = None;
    }

    /// Max over shards of `head − min(acked over live replicas)` — 0
    /// when every live replica acked the head everywhere. A shard with
    /// no live replica reports its full head as lag.
    pub(crate) fn lag(&self) -> i64 {
        self.shards
            .iter()
            .map(|shard| shard.head.saturating_sub(shard.min_acked().unwrap_or(0)))
            .max()
            .unwrap_or(0) as i64
    }

    /// The owner's log heads, in shard order.
    pub fn heads(&self) -> Vec<u64> {
        self.shards.iter().map(|shard| shard.head).collect()
    }

    /// The owner's authoritative slice of shard `s` — what every replica
    /// of `s` must equal bit-for-bit at the head seq.
    pub(crate) fn owner_slice(&self, s: usize) -> Snapshot {
        self.snapshot.shard_slice(&self.shards[s].keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use netsim::prelude::*;
    use switchpointer::shard::ShardedDirectory;
    use switchpointer::testbed::{Testbed, TestbedConfig};

    use crate::server::{ShardServer, ShardState};
    use crate::{RetryPolicy, WireConfig};

    /// The derived retention, over the long run: a healthy two-replica
    /// shard is published to a hundred times, and after every publish no
    /// record is retained — both replicas acked each one, so nothing a
    /// live replica has acked is ever kept (a fixed-capacity log holds
    /// its capacity's worth here).
    #[test]
    fn nothing_a_live_replica_acked_is_retained_over_100_publishes() {
        let topo = Topology::chain(3, 2, GBPS);
        let mut tb = Testbed::new(topo, TestbedConfig::default_ms());
        let (a, f) = (tb.node("A"), tb.node("F"));
        tb.sim.add_udp_flow(UdpFlowSpec {
            src: a,
            dst: f,
            priority: Priority::LOW,
            start: SimTime::ZERO,
            duration: SimTime::from_ms(120),
            rate_bps: 100_000_000,
            payload_bytes: 1458,
        });
        tb.sim.run_until(SimTime::from_ms(5));
        let analyzer = tb.analyzer();
        let dir = ShardedDirectory::new(
            analyzer.directory().mphf().clone(),
            &analyzer.all_hosts(),
            1,
        );
        let shard = dir.shards()[0].clone();
        let keep: BTreeSet<NodeId> = shard.hosts().iter().copied().collect();
        let snapshot = Snapshot::capture_with(&analyzer, 8, 1);
        let cfg = WireConfig::default();
        let servers: Vec<ShardServer> = (0..2)
            .map(|_| {
                let state = ShardState {
                    shard: Arc::new(shard.clone()),
                    view: snapshot.shard_slice(&keep),
                };
                ShardServer::spawn(state, 1, cfg).unwrap()
            })
            .collect();
        let writers = servers
            .iter()
            .map(|s| {
                ReplicaWriter::connect(0, s.local_addr(), cfg.max_frame, RetryPolicy::default())
                    .unwrap()
            })
            .collect();
        let registry = Arc::new(MetricsRegistry::new());
        let mut publisher =
            DeltaPublisher::new(snapshot, vec![keep], vec![writers], Arc::clone(&registry));

        for i in 1..=100u64 {
            tb.sim.run_until(SimTime::from_ms(5 + i));
            publisher.publish(&analyzer);
            let feed = &publisher.shards[0];
            assert_eq!(feed.head, i);
            assert_eq!(feed.min_acked(), Some(i), "a replica fell behind");
            assert!(
                feed.unacked.is_empty(),
                "{} acked records retained after publish {i}",
                feed.unacked.len()
            );
        }
        let owner = registry.snapshot();
        assert_eq!(owner.counter("repl.appends"), 200);
        assert_eq!(owner.counter("repl.bootstraps"), 0);
        for server in &servers {
            assert_eq!(server.applied_seq(), 100);
            assert!(server.state().view == publisher.owner_slice(0));
        }
        for server in servers {
            server.shutdown();
        }
    }
}
