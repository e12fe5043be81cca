//! Probes: the harness calling one public function in a loop on the
//! workload's own fixture, to put a floor under the in-situ numbers — and
//! the null server, a loopback listener built only from `Frame::read` /
//! `Frame::encode_into`, that is the floor under every wire metric.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use netsim::prelude::*;
use queryplane::{Snapshot, WorkerPool};
use switchpointer::query::{QueryExecutor, QueryRequest};
use telemetry::frame::{Enc, MAX_FRAME};
use wireplane::{Frame, MuxConn, WireCluster};

use crate::fixture::{Fixture, FANOUT_WINDOW, STORM_SWEEP_RANGE};
use crate::stats::median_u64;
use crate::trace::Layer;

/// A wireplane-speaking server that does nothing: greets, then answers
/// every request — bare, tagged or batched — with `HorizonRep(0)`.
pub struct NullServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl NullServer {
    pub fn spawn() -> std::io::Result<NullServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("spbench-null-server".into())
            .spawn(move || {
                // One connection at a time: the probe is the only peer.
                for stream in listener.incoming() {
                    if stopped.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(s) = stream {
                        // A peer that hangs up ends its connection; the
                        // listener goes on.
                        let _ = Self::serve(s);
                    }
                }
            })?;
        Ok(NullServer { addr, stop, handle })
    }

    fn serve(mut stream: TcpStream) -> Result<(), wireplane::Error> {
        stream.set_nodelay(true).ok();
        let mut buf = Vec::new();
        let mut send = |stream: &mut TcpStream, f: Frame| -> Result<(), wireplane::Error> {
            f.encode_into(&mut buf)?;
            stream.write_all(&buf)?;
            Ok(())
        };
        send(
            &mut stream,
            Frame::Hello {
                shard: 0,
                n_shards: 1,
            },
        )?;
        loop {
            let reply = match Frame::read(&mut stream, MAX_FRAME)? {
                Frame::Tagged { req_id, .. } => Frame::Tagged {
                    req_id,
                    ctx: None,
                    inner: Box::new(Frame::HorizonRep(0)),
                },
                Frame::Batch(entries) => Frame::BatchRep(
                    entries
                        .into_iter()
                        .map(|(id, _, _)| (id, Frame::HorizonRep(0)))
                        .collect(),
                ),
                _ => Frame::HorizonRep(0),
            };
            send(&mut stream, reply)?;
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and waits for its thread.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocked `accept`.
        let _ = TcpStream::connect(self.addr);
        let _ = self.handle.join();
    }
}

/// Median nanoseconds per call of `f` over `rounds` timed batches of
/// `iters` calls.
fn per_call_ns(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut per: Vec<u64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as u64 / iters as u64
        })
        .collect();
    per.sort_unstable();
    per[per.len() / 2] as f64
}

/// Median round-trip nanoseconds of `req` over one multiplexed
/// connection, each call timed on its own.
fn rtt_ns(conn: &MuxConn, req: &Frame, calls: usize) -> Result<f64, wireplane::Error> {
    let mut samples = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t = Instant::now();
        black_box(conn.call(req)?);
        samples.push(t.elapsed().as_nanos() as u64);
    }
    Ok(median_u64(&samples) as f64)
}

/// What the probes chose to touch on the fixture — kept so a test can
/// check they touched the real thing.
pub struct ProbeTargets {
    /// The switch whose fan-out-window pointer union names most hosts.
    pub busiest_switch: NodeId,
    pub union_hosts: Vec<NodeId>,
    /// The host with the most flow records, and a switch on its paths.
    pub largest_store_host: NodeId,
    pub largest_store_switch: NodeId,
}

pub fn targets(fx: &Fixture) -> ProbeTargets {
    let a = &fx.analyzer;
    let (busiest_switch, union_hosts) = a
        .all_switches()
        .into_iter()
        .map(|s| (s, a.hosts_for(s, FANOUT_WINDOW)))
        .max_by_key(|(s, hosts)| (hosts.len(), std::cmp::Reverse(*s)))
        .expect("the topology has switches");
    let (largest_store_host, _) = a
        .all_hosts()
        .into_iter()
        .map(|h| (h, a.host(h).map_or(0, |c| c.borrow().store.len())))
        .max_by_key(|&(h, len)| (len, std::cmp::Reverse(h)))
        .expect("the topology has hosts");
    let largest_store_switch = a
        .host(largest_store_host)
        .and_then(|c| {
            let c = c.borrow();
            let first = c.store.records().min_by_key(|r| r.flow)?;
            first.path.first().copied()
        })
        .unwrap_or(busiest_switch);
    ProbeTargets {
        busiest_switch,
        union_hosts,
        largest_store_host,
        largest_store_switch,
    }
}

/// One representative request per §5 class, on the probe targets.
fn class_requests(fx: &Fixture, t: &ProbeTargets) -> Vec<(&'static str, QueryRequest)> {
    let mut out: Vec<(&'static str, QueryRequest)> = fx
        .diagnoses()
        .into_iter()
        .map(|r| (r.class_name(), r))
        .collect();
    let switch = t.busiest_switch;
    let top_k = QueryRequest::TopK {
        switch,
        k: 10,
        range: FANOUT_WINDOW,
    };
    let imbalance = QueryRequest::LoadImbalance {
        switch,
        range: FANOUT_WINDOW,
    };
    let sweep = fx.sweep_requests(0, 1, STORM_SWEEP_RANGE)[0];
    for r in [imbalance, top_k, sweep] {
        out.push((r.class_name(), r));
    }
    out
}

/// Probes that need nothing but the fixture: executor, pointer, host
/// store, MPHF, pool, snapshot and codec. Advances the simulation by one
/// window (for a real delta), so it runs after the workload.
pub fn fixture_probes(fx: &mut Fixture, out: &mut Layer) {
    let t = targets(fx);
    let snapshot = Snapshot::capture_with(&fx.analyzer, 8, 4);

    // switchpointer::query — one executor per call over the snapshot,
    // one thread.
    for (class, req) in class_requests(fx, &t) {
        let ns = per_call_ns(5, 20, || {
            black_box(QueryExecutor::new(fx.analyzer.ctx(), &snapshot).execute(&req));
        });
        out.insert(format!("probe.exec.{class}_ns"), ns);
    }

    // switchpointer::pointer — the fan-out window's union on the busiest
    // switch, and decoding it to hosts.
    {
        let comp = fx
            .analyzer
            .switch(t.busiest_switch)
            .expect("listed switch")
            .borrow();
        let (lo, hi) = (FANOUT_WINDOW.lo, FANOUT_WINDOW.hi);
        out.insert(
            "probe.pointer.union_ns".into(),
            per_call_ns(5, 200, || {
                black_box(comp.pointers.pointer_union(lo, hi));
            }),
        );
        let bits = comp.pointers.pointer_union(lo, hi);
        let dir = fx.analyzer.directory();
        out.insert(
            "probe.pointer.decode_ns".into(),
            per_call_ns(5, 200, || {
                black_box(dir.hosts_in(&bits));
            }),
        );
    }

    // switchpointer::hoststore — the three host-side scans on the
    // largest store.
    {
        let comp = fx
            .analyzer
            .host(t.largest_store_host)
            .expect("listed host")
            .borrow();
        let sw = t.largest_store_switch;
        out.insert(
            "probe.hoststore.topk_ns".into(),
            per_call_ns(5, 200, || {
                black_box(comp.store.top_k_through(sw, 10));
            }),
        );
        out.insert(
            "probe.hoststore.filter_ns".into(),
            per_call_ns(5, 200, || {
                black_box(comp.store.flows_matching(sw, FANOUT_WINDOW).len());
            }),
        );
        out.insert(
            "probe.hoststore.sizes_ns".into(),
            per_call_ns(5, 200, || {
                black_box(comp.store.sizes_by_link(sw));
            }),
        );
    }

    // mphf — one lookup, averaged over every host address.
    {
        let addrs: Vec<u64> = fx.analyzer.all_hosts().iter().map(|h| h.addr()).collect();
        let mphf = fx.analyzer.directory().mphf();
        let per_sweep = per_call_ns(5, 50, || {
            for a in &addrs {
                black_box(mphf.index(a));
            }
        });
        out.insert(
            "probe.mphf.lookup_ns".into(),
            per_sweep / addrs.len() as f64,
        );
    }

    // queryplane::pool — what scattering 2 048 items costs when the
    // items do nothing.
    {
        let pool = WorkerPool::new(2);
        let per_batch = per_call_ns(5, 20, || {
            black_box(pool.scatter(2048, None, None, |_w, idxs| {
                idxs.iter().map(|&i| i as u32).collect()
            }));
        });
        out.insert(
            "probe.pool.scatter_null_ns_per_item".into(),
            per_batch / 2048.0,
        );
    }

    // queryplane snapshot: capture, then one real window's delta.
    out.insert(
        "probe.snapshot.capture_ns".into(),
        per_call_ns(3, 1, || {
            black_box(Snapshot::capture_with(&fx.analyzer, 8, 4));
        }),
    );
    let keep: BTreeSet<NodeId> = fx
        .analyzer
        .all_hosts()
        .into_iter()
        .filter(|&h| switchpointer::shard::host_shard_of(h, 4) == 0)
        .collect();
    out.insert(
        "probe.snapshot.slice_encode_ns".into(),
        per_call_ns(3, 1, || {
            let mut e = Enc::new();
            snapshot.shard_slice(&keep).wire_enc(&mut e);
            black_box(e.into_bytes());
        }),
    );
    let before = snapshot.clone();
    let mut live = snapshot;
    let now = fx.tb.sim.now();
    fx.tb
        .sim
        .run_until(SimTime::from_ns(now.as_ns() + 1_000_000));
    let t0 = Instant::now();
    let (_, record) = live.apply_delta_journaled(&fx.analyzer);
    out.insert(
        "probe.snapshot.delta_ns".into(),
        t0.elapsed().as_nanos() as f64,
    );
    out.insert(
        "probe.snapshot.apply_record_ns".into(),
        per_call_ns(3, 1, || {
            let mut replica = before.clone();
            replica
                .apply_record(&record)
                .expect("a record journaled against this very state");
            black_box(replica);
        }) - per_call_ns(3, 1, || {
            black_box(before.clone());
        }),
    );

    // wireplane::proto — the four frames the workloads move most.
    let probe_exact = Frame::ProbeExactReq {
        switch: t.busiest_switch,
        addr: fx.quiet_dst.addr(),
        epoch: 17,
    };
    let hosts = t.union_hosts.clone();
    let view: &dyn switchpointer::query::StateView = &before;
    let topk_wave_rep = Frame::TopKWaveRep(
        view.top_k_wave(&hosts, t.busiest_switch, 10)
            .into_iter()
            .map(|(len, flows)| (len.map(|l| l as u64), flows))
            .collect(),
    );
    let query_rep = Frame::QueryRep(fx.analyzer.execute(&QueryRequest::TopK {
        switch: t.busiest_switch,
        k: 10,
        range: FANOUT_WINDOW,
    }));
    let delta_append = Frame::DeltaAppend {
        shard: 0,
        seq: 1,
        record: record.slice_for(&keep),
        ctx: None,
    };
    for (name, frame) in [
        ("probe_exact", probe_exact),
        ("topk_wave_rep", topk_wave_rep),
        ("query_rep", query_rep),
        ("delta_append", delta_append),
    ] {
        let mut buf = Vec::new();
        out.insert(
            format!("probe.proto.encode_ns.{name}"),
            per_call_ns(5, 200, || {
                frame
                    .encode_into(&mut buf)
                    .expect("a frame under MAX_FRAME");
                black_box(&buf);
            }),
        );
        out.insert(format!("probe.proto.bytes.{name}"), buf.len() as f64);
        // Layout: u32 length, tag, payload.
        let (tag, payload) = (buf[4], &buf[5..]);
        out.insert(
            format!("probe.proto.decode_ns.{name}"),
            per_call_ns(5, 200, || {
                black_box(Frame::decode(tag, payload).expect("bytes this codec just wrote"));
            }),
        );
    }
}

/// Probes over real sockets: the null server, then shard 0's server
/// directly (not through the front-end), one multiplexed connection each.
pub fn transport_probes(
    fx: &Fixture,
    cluster: &WireCluster,
    out: &mut Layer,
) -> Result<(), wireplane::Error> {
    const CALLS: usize = 1500;
    let null = NullServer::spawn()?;
    let floor = MuxConn::connect(null.addr(), MAX_FRAME)
        .and_then(|(conn, _, _)| rtt_ns(&conn, &Frame::HorizonReq, CALLS));
    null.shutdown();
    out.insert("probe.mux.null_rtt_ns".into(), floor?);

    let t = targets(fx);
    let shard = 0usize;
    let (conn, _, _) = MuxConn::connect(cluster.shard_addrs()[shard], MAX_FRAME)?;
    out.insert(
        "probe.shard.horizon_rtt_ns".into(),
        rtt_ns(&conn, &Frame::HorizonReq, CALLS)?,
    );
    out.insert(
        "probe.shard.probe_exact_rtt_ns".into(),
        rtt_ns(
            &conn,
            &Frame::ProbeExactReq {
                switch: t.busiest_switch,
                addr: fx.quiet_dst.addr(),
                epoch: 17,
            },
            CALLS,
        )?,
    );
    out.insert(
        "probe.shard.union_slice_rtt_ns".into(),
        rtt_ns(
            &conn,
            &Frame::UnionSliceReq {
                switch: t.busiest_switch,
                range: FANOUT_WINDOW,
            },
            CALLS,
        )?,
    );
    let hosts: Vec<NodeId> = t
        .union_hosts
        .iter()
        .copied()
        .filter(|&h| switchpointer::shard::host_shard_of(h, cluster.shard_addrs().len()) == shard)
        .collect();
    let wave = Frame::TopKWaveReq {
        switch: t.busiest_switch,
        k: 10,
        hosts,
    };
    out.insert(
        "probe.shard.topk_wave_rtt_ns".into(),
        rtt_ns(&conn, &wave, CALLS)?,
    );
    let reply = conn.call(&wave)?;
    out.insert(
        "probe.shard.topk_wave_reply_bytes".into(),
        reply.to_frame_bytes()?.len() as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wireplane::WireConfig;

    #[test]
    fn the_null_server_answers_bare_tagged_and_batched_requests() {
        let null = NullServer::spawn().unwrap();
        let (conn, shard, n) = MuxConn::connect(null.addr(), MAX_FRAME).unwrap();
        assert_eq!((shard, n), (0, 1));
        for _ in 0..3 {
            assert!(matches!(
                conn.call(&Frame::HorizonReq).unwrap(),
                Frame::HorizonRep(0)
            ));
        }
        // Concurrent callers combine into Batch frames on the mux.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        assert!(matches!(
                            conn.call(&Frame::HorizonReq).unwrap(),
                            Frame::HorizonRep(0)
                        ));
                    }
                });
            }
        });
        drop(conn);
        null.shutdown();
    }

    #[test]
    fn probes_touch_the_real_fixture_and_the_null_server_is_the_floor() {
        let mut fx = Fixture::build(1).unwrap();
        let t = targets(&fx);
        // The largest store really is the largest, and non-trivial.
        let max_len = fx
            .analyzer
            .all_hosts()
            .iter()
            .map(|&h| fx.analyzer.host(h).unwrap().borrow().store.len())
            .max()
            .unwrap();
        let probed = fx.analyzer.host(t.largest_store_host).unwrap();
        assert_eq!(probed.borrow().store.len(), max_len);
        assert!(max_len >= 2);
        // The union probed is the fan-out window's on a switch that saw
        // traffic, exactly as the analyzer decodes it.
        assert!(!t.union_hosts.is_empty());
        assert_eq!(
            t.union_hosts,
            fx.analyzer.hosts_for(t.busiest_switch, FANOUT_WINDOW)
        );
        // The scan probes scan something: the chosen switch is on the
        // largest store's paths.
        let comp = fx.analyzer.host(t.largest_store_host).unwrap();
        assert!(!comp
            .borrow()
            .store
            .top_k_through(t.largest_store_switch, 10)
            .is_empty());

        let cluster = WireCluster::launch(
            &fx.analyzer,
            4,
            WireConfig {
                front_workers: 2,
                trace_sample_rate: 0,
                ..WireConfig::default()
            },
        )
        .unwrap();
        let mut layer = Layer::new();
        // A server that does nothing cannot be slower than one that
        // spawns a serve thread per request. This box changes speed
        // under the test's feet, so one clean comparison in three is
        // enough (10 % slack).
        let floor_holds = (0..3).any(|_| {
            transport_probes(&fx, &cluster, &mut layer).unwrap();
            let (null, horizon) = (
                layer["probe.mux.null_rtt_ns"],
                layer["probe.shard.horizon_rtt_ns"],
            );
            null > 0.0 && null <= horizon * 1.1
        });
        cluster.shutdown();
        assert!(
            floor_holds,
            "null {} ns vs shard horizon {} ns",
            layer["probe.mux.null_rtt_ns"], layer["probe.shard.horizon_rtt_ns"]
        );
        assert!(layer["probe.shard.topk_wave_reply_bytes"] > 16.0);

        fixture_probes(&mut fx, &mut layer);
        for name in crate::names::PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| n.starts_with("probe."))
        {
            assert!(layer.get(name).is_some_and(|v| *v > 0.0), "{name}");
        }
    }
}
