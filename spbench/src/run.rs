//! What every workload shares: run configuration, the result a run hands
//! back, setup timing, and the load sizing for a 2-core shared box.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obsplane::Gauge;
use wireplane::WireConfig;

use crate::fixture::SetupError;
use crate::stats::{median_f64, Stat};
use crate::trace::Layer;

/// Shard servers behind the front-end.
pub const SHARD_SERVERS: usize = 4;
/// Worker threads in the front-end pool and in the in-process plane.
pub const WORKERS: usize = 2;
/// Times the whole setup is repeated in an end-to-end run; `setup_s` is
/// the median.
pub const SETUPS: usize = 5;

/// The untraced configuration. The traced phase flips the front-end
/// tracer's sample rate at run time — exactly what this field does at
/// launch — so both phases run on one deployment.
pub fn wire_cfg() -> WireConfig {
    WireConfig {
        front_workers: WORKERS,
        trace_sample_rate: 0,
        ..WireConfig::default()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl RunCfg {
    /// Warm-up before anything is recorded: caches fill, lazy set-up
    /// finishes, the pool threads exist.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 4.0).min(2.0))
    }

    /// One measured phase. An end-to-end run has one, `--seconds` long; a
    /// traced run has several, a third of that each.
    pub fn phase(&self) -> Duration {
        let s = if self.traced {
            self.seconds / 3.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }
}

/// The end-to-end metrics of one run (always from the untraced phase).
pub struct EndToEnd {
    pub op_p50_us: Stat,
    /// Printed for the reader, not gated (see the README).
    pub op_p90_us: Stat,
    /// Likewise.
    pub ops_per_s: Stat,
    pub setup_s: f64,
}

#[derive(Default)]
pub struct RunResult {
    /// Individual answers checked against the reference.
    pub attempted: u64,
    /// Transport errors, refusals and answers that differ from the
    /// reference. A failed operation contributes no latency sample.
    pub failed: u64,
    pub e2e: Option<EndToEnd>,
    pub layer: Layer,
    /// Human-readable lines printed above the result line.
    pub report: String,
    /// Health conditions that make the command exit non-zero.
    pub unhealthy: Vec<String>,
}

/// Builds the deployment `n` times, tearing every build but the last
/// down again, and returns the last with the median build time.
pub fn repeat_setup<T>(
    n: usize,
    mut build: impl FnMut() -> Result<T, SetupError>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), SetupError> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("n >= 1 builds"), median_f64(&mut times)))
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Samples a gauge every millisecond from a side thread and keeps the
/// maximum — the planes expose queue depth only as an instantaneous
/// value. Traced runs only.
pub struct GaugeMax {
    stop: Arc<AtomicBool>,
    max: Arc<AtomicI64>,
    handle: std::thread::JoinHandle<()>,
}

impl GaugeMax {
    pub fn watch(gauge: Arc<Gauge>) -> GaugeMax {
        let stop = Arc::new(AtomicBool::new(false));
        let max = Arc::new(AtomicI64::new(0));
        let (s, m) = (Arc::clone(&stop), Arc::clone(&max));
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                m.fetch_max(gauge.get(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        GaugeMax { stop, max, handle }
    }

    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
        self.max.load(Ordering::Relaxed) as f64
    }
}

pub fn us(ns: Stat) -> Stat {
    Stat {
        value: ns.value / 1e3,
        slice_iqr: ns.slice_iqr / 1e3,
        ..ns
    }
}
