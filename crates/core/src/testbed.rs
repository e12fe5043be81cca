//! One-call wiring of a full SwitchPointer deployment over a simulated
//! topology: MPHF construction and distribution, switch components on every
//! switch, host components on every host, and an [`Analyzer`] over the lot.
//!
//! This is the "operator bootstraps the system" step of the paper (§4.3:
//! the analyzer builds the hash function and distributes it) packaged for
//! the experiments, examples and integration tests.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use mphf::Mphf;
use netsim::engine::{SimConfig, Simulator};
use netsim::packet::NodeId;
use netsim::topology::Topology;
use telemetry::{EmbedMode, EpochParams, PathCodec, TelemetryDecoder};

use crate::analyzer::{Analyzer, Deployment, HostDirectory};
use crate::cost::CostModel;
use crate::host::{install_on_all_hosts, HostHandle, TriggerConfig};
use crate::pointer::PointerConfig;
use crate::switch::{install_on_all_switches, SwitchHandle};

/// Deployment-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct TestbedConfig {
    /// Epoch timing (α duration, ε, Δ).
    pub params: EpochParams,
    /// Telemetry embedding mode.
    pub mode: EmbedMode,
    /// Pointer hierarchy branching factor (α slots per level).
    pub pointer_alpha: u32,
    /// Pointer hierarchy depth (k levels).
    pub pointer_k: usize,
    /// Host trigger engine tuning.
    pub trigger: TriggerConfig,
    /// Analyzer RPC cost model.
    pub cost: CostModel,
    /// Simulator configuration (queues, seed).
    pub sim: SimConfig,
}

impl TestbedConfig {
    /// Millisecond-scale defaults suited to the paper's experiments:
    /// α = 1 ms epochs (so 100 ms scenarios span many epochs), commodity
    /// tagging, a 10×3 hierarchy, the 1 ms / 50% trigger, calibrated costs.
    pub fn default_ms() -> Self {
        TestbedConfig {
            params: EpochParams {
                alpha: netsim::time::SimTime::from_ms(1),
                epsilon: netsim::time::SimTime::from_ms(1),
                delta: netsim::time::SimTime::from_ms(2),
            },
            mode: EmbedMode::Commodity,
            pointer_alpha: 10,
            pointer_k: 3,
            trigger: TriggerConfig::default(),
            cost: CostModel::paper_calibrated(),
            sim: SimConfig::default(),
        }
    }
}

/// A fully wired deployment.
pub struct Testbed {
    pub sim: Simulator,
    pub switches: HashMap<NodeId, SwitchHandle>,
    pub hosts: HashMap<NodeId, HostHandle>,
    deployment: Arc<Deployment>,
    pub cfg: TestbedConfig,
}

impl Testbed {
    /// Deploys SwitchPointer on every node of `topo`.
    pub fn new(topo: Topology, cfg: TestbedConfig) -> Self {
        let mut sim = Simulator::new(topo, cfg.sim);

        // Analyzer-side bootstrap: hash function over all host addresses.
        let addrs: Vec<u64> = sim.topo().hosts().iter().map(|h| h.addr()).collect();
        let mphf = Arc::new(Mphf::build(&addrs).expect("MPHF over host set"));
        let codec = Rc::new(PathCodec::new(Arc::clone(sim.topo())));
        let decoder = Rc::new(TelemetryDecoder::new(codec.clone(), cfg.params, cfg.mode));

        let pointer_cfg = PointerConfig {
            n_hosts: addrs.len(),
            alpha: cfg.pointer_alpha,
            k: cfg.pointer_k,
        };
        let switches = install_on_all_switches(
            &mut sim,
            cfg.params,
            cfg.mode,
            pointer_cfg,
            mphf.clone(),
            codec,
        );
        let hosts = install_on_all_hosts(&mut sim, decoder, cfg.trigger);
        let deployment = Arc::new(Deployment {
            topo: Arc::clone(sim.topo()),
            routes: Arc::clone(sim.routes()),
            params: cfg.params,
            directory: HostDirectory::new(mphf, sim.topo().hosts()),
            cost: cfg.cost,
        });

        Testbed {
            sim,
            switches,
            hosts,
            deployment,
            cfg,
        }
    }

    /// An analyzer over the deployment (call after — or during — the
    /// simulation; handles are shared). Cheap: every analyzer of one
    /// testbed shares the [`Deployment`] built in [`Testbed::new`].
    pub fn analyzer(&self) -> Analyzer {
        Analyzer::new(
            Arc::clone(&self.deployment),
            self.switches.clone(),
            self.hosts.clone(),
        )
    }

    /// Convenience: node lookup by name.
    pub fn node(&self, name: &str) -> NodeId {
        self.sim
            .topo()
            .node_by_name(name)
            .unwrap_or_else(|| panic!("no node named {name}"))
    }
}
