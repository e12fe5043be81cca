//! Figure 7 — time to debug the priority-based flow contention problem,
//! broken into detection / alert / pointer retrieval / diagnosis, as a
//! function of the number of contending UDP flows (each destined to a
//! different host, so diagnosis must consult m servers).
//!
//! This runs the *full* SwitchPointer loop: the victim's host component
//! raises the trigger from its 1 ms throughput samples, the analyzer pulls
//! the pointer for the trigger epochs from the contended switch, reduces
//! the search radius, queries exactly the m relevant hosts, and concludes
//! priority contention. Latency components come from the calibrated cost
//! model (see EXPERIMENTS.md).

use netsim::prelude::*;
use netsim::queue::QueueConfig;
use switchpointer::analyzer::Verdict;
use switchpointer::scenarios::{self, Scenario};
use switchpointer::testbed::TestbedConfig;

use crate::common::{FigureData, Series};

pub const FLOW_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Runs one contention episode with `m` UDP burst flows and diagnoses it.
/// Returns the diagnosis plus the *measured* detection latency (trigger
/// time minus burst onset — the paper quotes <1 ms for the priority case
/// and 3-4 ms for the microburst case).
pub fn run_episode(
    m: usize,
    seed: u64,
    microburst: bool,
) -> (switchpointer::ContentionDiagnosis, f64) {
    let mut cfg = TestbedConfig::default_ms();
    cfg.sim.seed = seed;
    if microburst {
        cfg.sim.switch_queue = QueueConfig::default_fifo();
    }
    let burst_prio = if microburst {
        Priority::LOW
    } else {
        Priority::HIGH
    };
    let Scenario { tb, planted } =
        scenarios::contention(m, burst_prio, SimTime::from_ms(60), cfg).run();
    let (tcp, bb) = planted.victim();

    let detection_ms = tb.hosts[&bb]
        .borrow()
        .first_trigger_for(tcp)
        .map(|t| t.at.as_ms_f64() - scenarios::CONTENTION_BURST_AT.as_ms_f64())
        .unwrap_or(f64::NAN);
    let analyzer = tb.analyzer();
    (
        analyzer.diagnose_contention(tcp, bb, tb.cfg.trigger.window),
        detection_ms,
    )
}

/// Figure 7: the latency breakdown per m.
pub fn fig7() -> Vec<FigureData> {
    let mut fig = FigureData::new(
        "fig7",
        "debugging time of priority-based flow contention",
        "udp_flows",
        "ms",
    );
    let mut detect = Series::new("problem_detection_ms");
    let mut alert = Series::new("alert_to_analyzer_ms");
    let mut retrieval = Series::new("pointer_retrieval_ms");
    let mut diagnosis = Series::new("diagnosis_ms");
    let mut total = Series::new("total_ms");

    for &m in &FLOW_COUNTS {
        let (d, detect_ms) = run_episode(m, 100 + m as u64, false);
        assert_eq!(
            d.verdict,
            Verdict::PriorityContention,
            "m={m}: wrong verdict {:?}",
            d.verdict
        );
        let b = &d.breakdown;
        detect.push(m as f64, b.detection.as_ms_f64());
        alert.push(m as f64, b.alert.as_ms_f64());
        retrieval.push(m as f64, b.pointer_retrieval.as_ms_f64());
        diagnosis.push(m as f64, b.diagnosis.as_ms_f64());
        total.push(m as f64, b.total().as_ms_f64());
        fig.note(format!(
            "m={m}: consulted {} hosts, found {} culprit flows, total {:.1} ms, \
             measured detection latency {detect_ms:.2} ms (paper: <1 ms)",
            d.hosts_contacted,
            d.culprits.len(),
            b.total().as_ms_f64()
        ));
    }
    fig.series = vec![detect, alert, retrieval, diagnosis, total];
    fig.note("paper: total < 100 ms for every m; diagnosis grows with consulted hosts".to_string());

    // The microburst variant the paper's §5.1 text quotes (3-4 ms detection).
    let (dm, detect_ms) = run_episode(8, 77, true);
    fig.note(format!(
        "microburst variant (m=8, FIFO): verdict {:?}, measured detection \
         {detect_ms:.2} ms (paper: 3-4 ms)",
        dm.verdict
    ));
    vec![fig]
}
