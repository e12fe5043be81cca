//! Control-plane RPC cost model.
//!
//! The paper's latency figures (Fig. 7, 8, 12) are dominated by
//! implementation constants of its Flask-based RPC: per-host connection
//! initiation (one thread spawned per contacted server — §6.2 calls this
//! out explicitly), request transfer, query execution over the host's flow
//! records, and response transfer. This module models those terms
//! explicitly so the harness reproduces the *shape* of the latency plots;
//! the constants are calibrated once, in [`CostModel::paper_calibrated`],
//! against the numbers the paper reports, and recorded in EXPERIMENTS.md.

use netsim::time::SimTime;
use telemetry::frame::{Dec, Enc, Wire, WireError};

/// Latency constants of the analyzer's RPC fabric.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Host → analyzer alert and acknowledgment round trip (§5.1: "2-3 ms").
    pub alert_rtt: SimTime,
    /// Fixed cost of a pointer-retrieval round to the switches.
    pub pointer_retrieval_base: SimTime,
    /// Incremental cost per additional switch queried in the same round
    /// (§5.1: one switch ≈ 7-8 ms; §5.2: three switches ≈ 10 ms).
    pub pointer_retrieval_per_switch: SimTime,
    /// Fixed cost of one query wave to a set of hosts.
    pub query_base: SimTime,
    /// Serialized connection initiation per contacted host (the dominant
    /// term of Fig. 12's breakdown: the analyzer spawns one thread per
    /// server on demand).
    pub conn_init_per_host: SimTime,
    /// Request marshalling/transfer per host.
    pub request_per_host: SimTime,
    /// Query execution fixed cost per host.
    pub query_exec_per_host: SimTime,
    /// Query execution cost per flow record scanned at a host.
    pub query_exec_per_record: SimTime,
    /// Response transfer per host.
    pub response_per_host: SimTime,
    /// Cost of answering a pointer-retrieval round from the analyzer's
    /// epoch-keyed pointer cache instead of contacting the switches (a
    /// local map lookup — orders of magnitude below a retrieval round).
    pub pointer_cache_hit: SimTime,
    /// Per-extra-request marshalling overhead when several queries'
    /// requests to the same host are coalesced into one batched RPC (the
    /// expensive per-host connection initiation is paid once per batch).
    pub batched_request_per_query: SimTime,
    /// Directory decode cost per pointer bit resolved to a host id
    /// (MPHF-inverse lookup + sort insertion). With a sharded directory
    /// the shards decode their slices in parallel, so the modelled wall
    /// time is the *maximum* per-shard decode work.
    pub decode_per_pointer_bit: SimTime,
    /// Cross-shard merge cost per decoded host id when N > 1 directory
    /// shards reassemble a verdict (the sorted k-way merge the router
    /// runs). Far cheaper than the decode itself.
    pub shard_merge_per_host: SimTime,
}

impl CostModel {
    /// Constants calibrated against the paper's reported latencies:
    ///
    /// * 1 switch pointer retrieval ≈ 7.5 ms; 3 switches ≈ 10 ms
    ///   ⇒ base 6.25 ms + 1.25 ms/switch;
    /// * PathDump top-100 query over 96 servers ≈ 0.35 s, dominated by
    ///   connection initiation ⇒ ≈ 2.8 ms/host serialized;
    /// * Fig. 8 load-imbalance diagnosis ≈ linear, ~350-400 ms at 96 servers.
    pub fn paper_calibrated() -> Self {
        CostModel {
            alert_rtt: SimTime::from_us(2_500),
            pointer_retrieval_base: SimTime::from_us(6_250),
            pointer_retrieval_per_switch: SimTime::from_us(1_250),
            query_base: SimTime::from_us(8_000),
            conn_init_per_host: SimTime::from_us(2_800),
            request_per_host: SimTime::from_us(150),
            query_exec_per_host: SimTime::from_us(450),
            query_exec_per_record: SimTime::from_us(20),
            response_per_host: SimTime::from_us(300),
            pointer_cache_hit: SimTime::from_us(5),
            batched_request_per_query: SimTime::from_us(50),
            decode_per_pointer_bit: SimTime::from_us(2),
            shard_merge_per_host: SimTime::from_ns(100),
        }
    }

    /// Modelled wall time of decoding one query's pointer bits through a
    /// sharded directory: `per_shard_bits[s]` is the decode work shard `s`
    /// performed, `merged_bits` the host ids that flowed through
    /// cross-shard reassembly (zero for single-address probes, which
    /// route to one owning shard and need no merge). Shards decode
    /// concurrently (max term); the router then pays the serial merge. A
    /// single-shard directory degenerates to the plain decode cost.
    pub fn sharded_decode(&self, per_shard_bits: &[u64], merged_bits: u64) -> SimTime {
        let max = per_shard_bits.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return SimTime::ZERO;
        }
        let decode = self.decode_per_pointer_bit * max;
        if per_shard_bits.len() <= 1 {
            return decode;
        }
        decode + self.shard_merge_per_host * merged_bits
    }

    /// Latency of one pointer-retrieval round over `switches` switches.
    pub fn pointer_retrieval(&self, switches: usize) -> SimTime {
        if switches == 0 {
            return SimTime::ZERO;
        }
        self.pointer_retrieval_base + self.pointer_retrieval_per_switch * switches as u64
    }

    /// Breakdown of one query wave over `hosts` hosts scanning
    /// `records_per_host` records each.
    pub fn query_wave(&self, hosts: usize, records_per_host: &[usize]) -> QueryWaveCost {
        debug_assert_eq!(hosts, records_per_host.len());
        if hosts == 0 {
            return QueryWaveCost::default();
        }
        let conn = self.conn_init_per_host * hosts as u64;
        let req = self.request_per_host * hosts as u64;
        let exec_records: u64 = records_per_host.iter().map(|&r| r as u64).sum();
        let exec =
            self.query_exec_per_host * hosts as u64 + self.query_exec_per_record * exec_records;
        let resp = self.response_per_host * hosts as u64;
        QueryWaveCost {
            connection_initiation: conn,
            request: req,
            query_execution: exec,
            response: resp,
            base: self.query_base,
        }
    }
}

/// One host's workload inside a *batched* query wave: how many distinct
/// queries' requests were coalesced into the single RPC to this host, and
/// how many flow records each of those requests scans.
#[derive(Debug, Clone, Copy)]
pub struct BatchedHostLoad {
    /// Coalesced requests carried by the one RPC. A load with zero
    /// requests contacts nobody and is billed nothing.
    pub requests: usize,
    /// Total records scanned across those requests.
    pub records: usize,
}

impl CostModel {
    /// Breakdown of one *batched* query wave: every entry of `loads` is one
    /// contacted host carrying one or more coalesced requests. Connection
    /// initiation (the Fig. 12-dominant serialized term) is paid **once per
    /// host**, not once per (query, host) pair; the extra requests pay only
    /// the cheap marshalling increment. Query execution still scales with
    /// the records actually scanned, so batching never hides real work.
    pub fn batched_query_wave(&self, loads: &[BatchedHostLoad]) -> QueryWaveCost {
        let hosts = loads.iter().filter(|l| l.requests > 0).count() as u64;
        if hosts == 0 {
            return QueryWaveCost::default();
        }
        let total_requests: u64 = loads.iter().map(|l| l.requests as u64).sum();
        let extra_requests: u64 = loads
            .iter()
            .map(|l| l.requests.saturating_sub(1) as u64)
            .sum();
        let total_records: u64 = loads.iter().map(|l| l.records as u64).sum();
        QueryWaveCost {
            connection_initiation: self.conn_init_per_host * hosts,
            request: self.request_per_host * hosts
                + self.batched_request_per_query * extra_requests,
            query_execution: self.query_exec_per_host * total_requests
                + self.query_exec_per_record * total_records,
            response: self.response_per_host * hosts,
            base: self.query_base,
        }
    }
}

/// Cost of one analyzer → hosts query wave, in the four components Fig. 12
/// stacks.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryWaveCost {
    pub connection_initiation: SimTime,
    pub request: SimTime,
    pub query_execution: SimTime,
    pub response: SimTime,
    pub base: SimTime,
}

impl QueryWaveCost {
    pub fn total(&self) -> SimTime {
        self.base + self.connection_initiation + self.request + self.query_execution + self.response
    }
}

impl Wire for QueryWaveCost {
    fn enc(&self, e: &mut Enc) {
        self.connection_initiation.enc(e);
        self.request.enc(e);
        self.query_execution.enc(e);
        self.response.enc(e);
        self.base.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(QueryWaveCost {
            connection_initiation: SimTime::dec(d)?,
            request: SimTime::dec(d)?,
            query_execution: SimTime::dec(d)?,
            response: SimTime::dec(d)?,
            base: SimTime::dec(d)?,
        })
    }
}

/// End-to-end latency breakdown of a debugging episode (the Fig. 7 stack).
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyBreakdown {
    /// Time from problem onset to the host trigger firing.
    pub detection: SimTime,
    /// Alert delivery + acknowledgment.
    pub alert: SimTime,
    /// Pointer retrieval from switches.
    pub pointer_retrieval: SimTime,
    /// All query waves to hosts.
    pub diagnosis: SimTime,
    /// Fig. 12-style split of the diagnosis term.
    pub diagnosis_detail: QueryWaveCost,
}

impl LatencyBreakdown {
    pub fn total(&self) -> SimTime {
        self.detection + self.alert + self.pointer_retrieval + self.diagnosis
    }
}

impl Wire for LatencyBreakdown {
    fn enc(&self, e: &mut Enc) {
        self.detection.enc(e);
        self.alert.enc(e);
        self.pointer_retrieval.enc(e);
        self.diagnosis.enc(e);
        self.diagnosis_detail.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(LatencyBreakdown {
            detection: SimTime::dec(d)?,
            alert: SimTime::dec(d)?,
            pointer_retrieval: SimTime::dec(d)?,
            diagnosis: SimTime::dec(d)?,
            diagnosis_detail: QueryWaveCost::dec(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_retrieval_matches_paper_quotes() {
        let c = CostModel::paper_calibrated();
        let one = c.pointer_retrieval(1);
        assert!(
            (7_000..=8_000).contains(&one.as_us()),
            "1 switch: {one} (paper: 7-8 ms)"
        );
        let three = c.pointer_retrieval(3);
        assert!(
            (9_500..=10_500).contains(&three.as_us()),
            "3 switches: {three} (paper: ~10 ms)"
        );
        assert_eq!(c.pointer_retrieval(0), SimTime::ZERO);
    }

    #[test]
    fn query_wave_scales_linearly_with_hosts() {
        let c = CostModel::paper_calibrated();
        let w16 = c.query_wave(16, &[5; 16]);
        let w96 = c.query_wave(96, &[5; 96]);
        let per_host_16 = (w16.total() - w16.base).as_ns() / 16;
        let per_host_96 = (w96.total() - w96.base).as_ns() / 96;
        assert_eq!(per_host_16, per_host_96);
        // 96 servers lands in the paper's ~0.35 s regime.
        let total_ms = w96.total().as_ms();
        assert!(
            (250..=450).contains(&total_ms),
            "96-host wave: {total_ms} ms"
        );
    }

    #[test]
    fn connection_initiation_dominates() {
        // Fig. 12's observation: "most of the response time is because of
        // connection initiation".
        let c = CostModel::paper_calibrated();
        let w = c.query_wave(64, &[10; 64]);
        assert!(w.connection_initiation > w.request + w.query_execution + w.response);
    }

    #[test]
    fn empty_wave_is_free() {
        let c = CostModel::paper_calibrated();
        assert_eq!(c.query_wave(0, &[]).total(), SimTime::ZERO);
    }

    #[test]
    fn batched_wave_with_single_requests_degenerates_to_plain_wave() {
        let c = CostModel::paper_calibrated();
        let plain = c.query_wave(3, &[5, 6, 7]);
        let loads: Vec<BatchedHostLoad> = [5, 6, 7]
            .iter()
            .map(|&records| BatchedHostLoad {
                requests: 1,
                records,
            })
            .collect();
        assert_eq!(c.batched_query_wave(&loads).total(), plain.total());
    }

    #[test]
    fn coalescing_shares_connection_initiation() {
        // 4 queries over the same 8 hosts: batched pays 8 connection
        // initiations instead of 32, which dominates the wave.
        let c = CostModel::paper_calibrated();
        let mut sequential = SimTime::ZERO;
        for _ in 0..4 {
            sequential += c.query_wave(8, &[10; 8]).total();
        }
        let loads = vec![
            BatchedHostLoad {
                requests: 4,
                records: 40,
            };
            8
        ];
        let batched = c.batched_query_wave(&loads).total();
        assert!(
            batched * 2 < sequential,
            "batched {batched} vs 4 sequential waves {sequential}"
        );
    }

    #[test]
    fn zero_request_loads_are_not_contacted() {
        // `requests` is a public usize: a zero must neither underflow the
        // extra-request term nor be billed a connection.
        let c = CostModel::paper_calibrated();
        let idle = BatchedHostLoad {
            requests: 0,
            records: 0,
        };
        assert_eq!(c.batched_query_wave(&[idle]).total(), SimTime::ZERO);
        let busy = BatchedHostLoad {
            requests: 3,
            records: 12,
        };
        assert_eq!(
            c.batched_query_wave(&[idle, busy, idle]).total(),
            c.batched_query_wave(&[busy]).total()
        );
    }

    #[test]
    fn cache_hit_is_far_below_a_retrieval_round() {
        let c = CostModel::paper_calibrated();
        assert!(c.pointer_cache_hit * 100 < c.pointer_retrieval(1));
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = LatencyBreakdown {
            detection: SimTime::from_ms(1),
            alert: SimTime::from_ms(2),
            pointer_retrieval: SimTime::from_ms(3),
            diagnosis: SimTime::from_ms(4),
            diagnosis_detail: QueryWaveCost::default(),
        };
        assert_eq!(b.total(), SimTime::from_ms(10));
    }
}
