//! Synthetic datacenter workload generation.
//!
//! The paper's evaluation uses hand-placed flows; real deployments see
//! mixes drawn from heavy-tailed size distributions. This module provides
//! the two canonical empirical distributions from the datacenter
//! literature (web-search, from the DCTCP measurement study the paper
//! cites as \[9\]; data-mining, VL2-style) plus Poisson flow arrivals over a
//! random traffic matrix — enough to put realistic background load behind
//! any experiment.
//!
//! Distributions are piecewise-linear CDF approximations of the published
//! curves; they are not byte-exact reproductions of the original traces.

use crate::engine::{Simulator, TcpFlowSpec};
use crate::packet::{FlowId, NodeId, Priority};
use crate::rng::DetRng;
use crate::tcp::TcpConfig;
use crate::time::SimTime;

/// A flow-size distribution.
#[derive(Debug, Clone)]
pub enum FlowSizeDist {
    /// Web-search RPC mix (DCTCP study): median ~tens of KB, tail to 20 MB.
    WebSearch,
    /// Data-mining mix (VL2 study): mostly tiny flows, tail to 100 MB.
    DataMining,
    /// Uniform in `[lo, hi]` bytes.
    Uniform { lo: u64, hi: u64 },
    /// Every flow exactly `bytes`.
    Fixed { bytes: u64 },
}

/// (size_bytes, cumulative_probability) knots; linear interpolation in
/// log-size between knots.
const WEB_SEARCH_CDF: &[(u64, f64)] = &[
    (6_000, 0.15),
    (13_000, 0.20),
    (19_000, 0.30),
    (33_000, 0.40),
    (53_000, 0.53),
    (133_000, 0.60),
    (667_000, 0.70),
    (1_467_000, 0.80),
    (3_333_000, 0.90),
    (6_667_000, 0.97),
    (20_000_000, 1.00),
];

const DATA_MINING_CDF: &[(u64, f64)] = &[
    (100, 0.50),
    (1_000, 0.60),
    (10_000, 0.70),
    (100_000, 0.80),
    (1_000_000, 0.90),
    (10_000_000, 0.99),
    (100_000_000, 1.00),
];

fn sample_cdf(cdf: &[(u64, f64)], u: f64) -> u64 {
    let mut prev_size = 1f64;
    let mut prev_p = 0f64;
    for &(size, p) in cdf {
        if u <= p {
            // Interpolate in log-size for a smooth heavy tail.
            let frac = if p > prev_p {
                (u - prev_p) / (p - prev_p)
            } else {
                1.0
            };
            let ls = prev_size.ln() + frac * ((size as f64).ln() - prev_size.ln());
            return ls.exp().max(1.0) as u64;
        }
        prev_size = size as f64;
        prev_p = p;
    }
    cdf.last().map(|&(s, _)| s).unwrap_or(1)
}

impl FlowSizeDist {
    /// Draws one flow size.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        match self {
            FlowSizeDist::WebSearch => sample_cdf(WEB_SEARCH_CDF, rng.f64()),
            FlowSizeDist::DataMining => sample_cdf(DATA_MINING_CDF, rng.f64()),
            FlowSizeDist::Uniform { lo, hi } => rng.range(*lo, *hi + 1),
            FlowSizeDist::Fixed { bytes } => *bytes,
        }
    }

    /// Analytic-ish mean via sampling (for load calculations).
    pub fn mean_bytes(&self, rng: &mut DetRng, samples: usize) -> f64 {
        (0..samples).map(|_| self.sample(rng) as f64).sum::<f64>() / samples as f64
    }
}

/// A Poisson-arrival TCP workload over a host set.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Flow arrival rate (flows per second).
    pub flows_per_sec: f64,
    /// Flow-size distribution.
    pub sizes: FlowSizeDist,
    /// Generation window.
    pub start: SimTime,
    pub end: SimTime,
    /// DSCP class for generated flows.
    pub priority: Priority,
    /// TCP parameters.
    pub tcp: TcpConfig,
}

impl WorkloadSpec {
    /// A light background workload: `flows_per_sec` web-search flows.
    pub fn background(flows_per_sec: f64, end: SimTime) -> Self {
        WorkloadSpec {
            flows_per_sec,
            sizes: FlowSizeDist::WebSearch,
            start: SimTime::ZERO,
            end,
            priority: Priority::LOW,
            tcp: TcpConfig::default(),
        }
    }
}

/// One generated flow (before installation).
#[derive(Debug, Clone, Copy)]
pub struct GeneratedFlow {
    pub src: NodeId,
    pub dst: NodeId,
    pub start: SimTime,
    pub bytes: u64,
}

/// Draws the arrival/size/endpoint sequence for a workload over `hosts`.
/// Deterministic in (`spec`, `hosts`, `seed`).
pub fn generate(spec: &WorkloadSpec, hosts: &[NodeId], seed: u64) -> Vec<GeneratedFlow> {
    assert!(hosts.len() >= 2, "need at least two hosts");
    assert!(spec.flows_per_sec > 0.0);
    let mut rng = DetRng::new(seed ^ 0x6f10_ad5e_ed00_0001);
    let mut out = Vec::new();
    let mut t = spec.start.as_ns() as f64;
    let end = spec.end.as_ns() as f64;
    let mean_gap_ns = 1e9 / spec.flows_per_sec;
    loop {
        // Exponential inter-arrival via inverse CDF.
        let u = rng.f64().max(1e-12);
        t += -mean_gap_ns * u.ln();
        if t >= end {
            break;
        }
        let src = hosts[rng.next_below(hosts.len() as u64) as usize];
        let mut dst = hosts[rng.next_below(hosts.len() as u64) as usize];
        while dst == src {
            dst = hosts[rng.next_below(hosts.len() as u64) as usize];
        }
        out.push(GeneratedFlow {
            src,
            dst,
            start: SimTime::from_ns(t as u64),
            bytes: spec.sizes.sample(&mut rng).max(1),
        });
    }
    out
}

/// Installs a generated workload onto a simulator; returns the flow ids.
pub fn install(sim: &mut Simulator, spec: &WorkloadSpec, seed: u64) -> Vec<FlowId> {
    let hosts = sim.topo().hosts().to_vec();
    generate(spec, &hosts, seed)
        .into_iter()
        .map(|g| {
            sim.add_tcp_flow(TcpFlowSpec {
                src: g.src,
                dst: g.dst,
                priority: spec.priority,
                start: g.start,
                bytes: Some(g.bytes),
                stop: None,
                config: spec.tcp,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Topology, GBPS};

    #[test]
    fn cdf_sampling_monotone_in_u() {
        for cdf in [WEB_SEARCH_CDF, DATA_MINING_CDF] {
            let mut prev = 0u64;
            for i in 1..100 {
                let s = sample_cdf(cdf, i as f64 / 100.0);
                assert!(s >= prev, "CDF sampling not monotone at {i}");
                prev = s;
            }
            // u = 1.0 lands at the last knot, modulo ln/exp rounding.
            let top = sample_cdf(cdf, 1.0);
            let expect = cdf.last().unwrap().0;
            assert!(top.abs_diff(expect) <= expect / 1_000, "{top} vs {expect}");
        }
    }

    #[test]
    fn web_search_median_in_expected_band() {
        let mut rng = DetRng::new(5);
        let mut sizes: Vec<u64> = (0..10_000)
            .map(|_| FlowSizeDist::WebSearch.sample(&mut rng))
            .collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        // Published curve has its median in the tens of KB.
        assert!(
            (10_000..200_000).contains(&median),
            "web-search median {median}"
        );
    }

    #[test]
    fn data_mining_is_mostly_tiny_with_heavy_tail() {
        let mut rng = DetRng::new(9);
        let sizes: Vec<u64> = (0..20_000)
            .map(|_| FlowSizeDist::DataMining.sample(&mut rng))
            .collect();
        let tiny = sizes.iter().filter(|&&s| s <= 1_000).count();
        let huge = sizes.iter().filter(|&&s| s >= 10_000_000).count();
        assert!(tiny > 10_000, "tiny fraction {tiny}/20000");
        assert!(huge > 50, "tail too light: {huge}");
    }

    #[test]
    fn uniform_and_fixed() {
        let mut rng = DetRng::new(1);
        for _ in 0..100 {
            let s = FlowSizeDist::Uniform { lo: 10, hi: 20 }.sample(&mut rng);
            assert!((10..=20).contains(&s));
        }
        assert_eq!(FlowSizeDist::Fixed { bytes: 7 }.sample(&mut rng), 7);
    }

    #[test]
    fn poisson_arrival_rate_roughly_matches() {
        let hosts: Vec<crate::packet::NodeId> = (0..8).map(crate::packet::NodeId).collect();
        let spec = WorkloadSpec {
            flows_per_sec: 1_000.0,
            sizes: FlowSizeDist::Fixed { bytes: 100 },
            start: SimTime::ZERO,
            end: SimTime::from_secs(1),
            priority: crate::packet::Priority::LOW,
            tcp: crate::tcp::TcpConfig::default(),
        };
        let flows = generate(&spec, &hosts, 3);
        assert!(
            (850..1150).contains(&flows.len()),
            "expected ~1000 flows, got {}",
            flows.len()
        );
        // Arrivals ordered, within the window, endpoints distinct.
        assert!(flows.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(flows.iter().all(|f| f.start < spec.end && f.src != f.dst));
    }

    #[test]
    fn generation_deterministic_per_seed() {
        let hosts: Vec<crate::packet::NodeId> = (0..4).map(crate::packet::NodeId).collect();
        let spec = WorkloadSpec::background(500.0, SimTime::from_ms(100));
        let a = generate(&spec, &hosts, 11);
        let b = generate(&spec, &hosts, 11);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.start == y.start && x.bytes == y.bytes && x.src == y.src));
        let c = generate(&spec, &hosts, 12);
        assert_ne!(
            a.iter().map(|f| f.bytes).sum::<u64>(),
            c.iter().map(|f| f.bytes).sum::<u64>()
        );
    }

    #[test]
    fn installed_workload_completes_on_fabric() {
        let topo = Topology::leaf_spine(2, 2, 4, GBPS);
        let mut sim = crate::engine::Simulator::new(topo, Default::default());
        let spec = WorkloadSpec {
            flows_per_sec: 2_000.0,
            sizes: FlowSizeDist::Uniform {
                lo: 5_000,
                hi: 50_000,
            },
            start: SimTime::ZERO,
            end: SimTime::from_ms(50),
            priority: crate::packet::Priority::LOW,
            tcp: crate::tcp::TcpConfig::default(),
        };
        let flows = install(&mut sim, &spec, 21);
        assert!(!flows.is_empty());
        sim.run_until(SimTime::from_secs(10));
        for f in flows {
            let conn = sim.tcp(f);
            assert!(conn.is_complete(), "flow {f} incomplete");
        }
    }
}
