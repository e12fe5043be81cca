//! The software forwarding pipeline of the Fig. 9 throughput experiment.
//!
//! The paper prototypes SwitchPointer inside Open vSwitch over DPDK and
//! measures forwarding throughput versus packet size with the pointer
//! update (k = 1 and k = 5) on the fast path. This module provides the
//! equivalent code path as a plain, benchmarkable object:
//!
//! * **baseline** — emulated OVS fast-path work: 5-tuple hash plus an
//!   exact-match-cache lookup/update;
//! * **SwitchPointer** — the same work plus one MPHF evaluation and k bit
//!   writes ([`PointerHierarchy`]'s `update_unchecked`).
//!
//! Absolute packets-per-second on a modern core differ from the paper's
//! 3.1 GHz Xeon + DPDK figure (~7 Mpps), so the experiment harness reports
//! both raw measurements and a variant scaled to the paper's baseline rate
//! (relative overhead is the reproducible quantity; see EXPERIMENTS.md).

use std::sync::Arc;

use mphf::{mix64, Mphf};

use crate::pointer::{PointerConfig, PointerHierarchy};

/// A packet synthesized for pipeline benchmarking.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticPacket {
    /// Destination address (MPHF key).
    pub(crate) dst_addr: u64,
    /// Pre-folded 5-tuple (flow identity for the EMC).
    pub(crate) five_tuple: u64,
    /// Wire size in bytes (used for Gbps conversion, not processing cost).
    pub(crate) size_bytes: u32,
}

/// Number of exact-match-cache entries (OVS default: 8192).
const EMC_ENTRIES: usize = 8192;

#[derive(Debug, Clone, Copy)]
struct EmcEntry {
    key: u64,
    port: u16,
}

/// Extra dependent-work rounds emulating the parts of the OVS-DPDK fast
/// path this model does not implement (full miniflow extraction, megaflow
/// fallback, batching, action execution). Default calibrated so the
/// baseline costs on the order of the paper's measured ~143 ns/packet
/// (7 Mpps on a 3.1 GHz core); see EXPERIMENTS.md for the calibration
/// note.
pub(crate) const DEFAULT_BASELINE_ROUNDS: u32 = 25;

/// A single-core software forwarding pipeline.
pub struct ForwardingPipeline {
    emc: Vec<EmcEntry>,
    pointers: Option<PointerHierarchy>,
    epoch: u64,
    /// Packets processed.
    pub(crate) processed: u64,
    /// EMC misses (diagnostics).
    pub(crate) emc_misses: u64,
}

impl ForwardingPipeline {
    /// Vanilla-OVS baseline: no pointer maintenance.
    pub fn baseline() -> Self {
        ForwardingPipeline {
            emc: vec![EmcEntry { key: 0, port: 0 }; EMC_ENTRIES],
            pointers: None,
            epoch: 0,
            processed: 0,
            emc_misses: 0,
        }
    }

    /// SwitchPointer pipeline with a k-level pointer hierarchy.
    pub fn with_pointers(cfg: PointerConfig, mphf: Arc<Mphf>) -> Self {
        ForwardingPipeline {
            emc: vec![EmcEntry { key: 0, port: 0 }; EMC_ENTRIES],
            pointers: Some(PointerHierarchy::new(cfg, mphf)),
            epoch: 0,
            processed: 0,
            emc_misses: 0,
        }
    }

    /// Advances the epoch (the control-plane agent's register update).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Processes one packet; returns the chosen egress port.
    ///
    /// The baseline stage emulates the OVS-DPDK fast path: miniflow
    /// extraction (a chain of dependent hashes over the header fields — the
    /// real code walks and folds each protocol layer), the RSS/EMC hash,
    /// an exact-match-cache probe, and action application. It is a synthetic
    /// stand-in, but it puts a realistic amount of dependent work ahead of
    /// the pointer update so the *relative* overhead is meaningful.
    #[inline]
    pub fn process(&mut self, pkt: &SyntheticPacket) -> u16 {
        self.processed += 1;
        // Miniflow extraction: dependent folds over the parsed fields.
        let mut h = mix64(pkt.five_tuple);
        h = mix64(h ^ pkt.dst_addr);
        h = mix64(h ^ pkt.size_bytes as u64);
        h = mix64(h.rotate_left(32) ^ 0x6f4a_91ee);
        h = mix64(h ^ (pkt.five_tuple >> 7));
        // Calibrated stand-in for the rest of the OVS fast path (dependent
        // chain, so it cannot be vectorized away).
        for _ in 0..DEFAULT_BASELINE_ROUNDS {
            h = mix64(h);
        }
        // EMC probe.
        let idx = (h as usize) & (EMC_ENTRIES - 1);
        let entry = &mut self.emc[idx];
        if entry.key != pkt.five_tuple {
            self.emc_misses += 1;
            entry.key = pkt.five_tuple;
            entry.port = (h >> 48) as u16 & 0x3f;
        }
        // Action application (header rewrite checksum fold).
        let port = entry.port ^ ((mix64(h ^ entry.port as u64) >> 63) as u16);
        // SwitchPointer addition: one hash, k bit writes.
        if let Some(p) = self.pointers.as_mut() {
            p.update_unchecked(pkt.dst_addr, self.epoch);
        }
        port
    }

    /// The pointer hierarchy, if this pipeline maintains one.
    #[cfg(test)]
    pub(crate) fn pointers(&self) -> Option<&PointerHierarchy> {
        self.pointers.as_ref()
    }
}

/// Generates the paper's Fig. 9 workload: `n` packets round-robining over
/// `n_dsts` unique destination IPs ("we generate 100K packets, each of
/// which has a unique destination IP ... we play those packets repeatedly").
pub fn unique_dst_workload(n: usize, n_dsts: usize, size_bytes: u32) -> Vec<SyntheticPacket> {
    (0..n)
        .map(|i| {
            let d = (i % n_dsts) as u64;
            SyntheticPacket {
                dst_addr: 0x0a00_0000 + d,
                five_tuple: mix64(d ^ 0x5_1234),
                size_bytes,
            }
        })
        .collect()
}

/// The destination addresses `unique_dst_workload` draws from (for building
/// the matching MPHF).
pub fn workload_addrs(n_dsts: usize) -> Vec<u64> {
    (0..n_dsts as u64).map(|d| 0x0a00_0000 + d).collect()
}

/// Converts a packet rate into achieved Gbps for a packet size, capped at
/// line rate. `wire_bytes` should include preamble + IFG for honesty.
pub fn achievable_gbps(pps: f64, wire_bytes: f64, line_rate_gbps: f64) -> f64 {
    (pps * wire_bytes * 8.0 / 1e9).min(line_rate_gbps)
}

/// Scales a measured (baseline_ns, variant_ns) pair onto the paper's
/// reported baseline packet rate, preserving relative overhead.
pub fn paper_scaled_pps(baseline_ns: f64, variant_ns: f64, paper_baseline_pps: f64) -> f64 {
    paper_baseline_pps * (baseline_ns / variant_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pointer_pipeline(k: usize) -> ForwardingPipeline {
        let addrs = workload_addrs(1024);
        let mphf = Arc::new(Mphf::build(&addrs).unwrap());
        ForwardingPipeline::with_pointers(
            PointerConfig {
                n_hosts: 1024,
                alpha: 10,
                k,
            },
            mphf,
        )
    }

    #[test]
    fn baseline_forwards_and_counts() {
        let mut p = ForwardingPipeline::baseline();
        let wl = unique_dst_workload(10_000, 100, 256);
        for pkt in &wl {
            p.process(pkt);
        }
        assert_eq!(p.processed, 10_000);
        // 100 flows mostly fit the EMC; a colliding pair ping-pongs its
        // bucket (just like real OVS), so allow a small miss rate.
        assert!(p.emc_misses < 1_000, "misses {}", p.emc_misses);
    }

    #[test]
    fn pointer_pipeline_records_destinations() {
        let mut p = pointer_pipeline(3);
        p.set_epoch(5);
        let wl = unique_dst_workload(2_048, 1024, 256);
        for pkt in &wl {
            p.process(pkt);
        }
        let hier = p.pointers().unwrap();
        assert_eq!(hier.updates, 2_048);
        // Every destination bit is set for epoch 5.
        for addr in workload_addrs(1024) {
            assert!(hier.contains(addr, 5), "missing {addr:#x}");
        }
    }

    #[test]
    fn egress_port_is_deterministic_per_flow() {
        let mut p = ForwardingPipeline::baseline();
        let pkt = SyntheticPacket {
            dst_addr: 0x0a00_0001,
            five_tuple: 42,
            size_bytes: 64,
        };
        let a = p.process(&pkt);
        let b = p.process(&pkt);
        assert_eq!(a, b);
    }

    #[test]
    fn gbps_conversion_caps_at_line_rate() {
        // 7 Mpps * 276 B = 15.5 Gbps, capped at 10.
        assert_eq!(achievable_gbps(7e6, 276.0, 10.0), 10.0);
        // 7 Mpps * 84 B (64B + overhead) = 4.7 Gbps, below cap.
        let g = achievable_gbps(7e6, 84.0, 10.0);
        assert!((g - 4.704).abs() < 1e-9);
    }

    #[test]
    fn paper_scaling_preserves_relative_overhead() {
        // Variant 25% slower than baseline => 7 Mpps -> 5.6 Mpps.
        let pps = paper_scaled_pps(100.0, 125.0, 7e6);
        assert!((pps - 5.6e6).abs() < 1.0);
    }

    #[test]
    fn k5_does_same_hash_count_as_k1() {
        // Structural check of the paper's core claim: updates are one hash
        // regardless of k — both pipelines make the same number of MPHF
        // evaluations (== packets), only bit writes differ.
        let mut p1 = pointer_pipeline(1);
        let mut p5 = pointer_pipeline(5);
        let wl = unique_dst_workload(1_000, 1024, 64);
        for pkt in &wl {
            p1.process(pkt);
            p5.process(pkt);
        }
        assert_eq!(p1.pointers().unwrap().updates, 1_000);
        assert_eq!(p5.pointers().unwrap().updates, 1_000);
    }
}
