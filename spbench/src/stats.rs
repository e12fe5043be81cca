//! The statistics rule every timing metric goes through, and the
//! open-loop schedule.
//!
//! The box this runs on is small and shared: identical runs have shown
//! multi-second noisy-neighbour stalls. A plain percentile over the whole
//! run moves with one stall, so the measured phase is cut into equal
//! **slices** and a metric is the *median over slices of the per-slice
//! statistic*; the slice IQR is the benchmark's own noise figure. A
//! percentile is only reported where at least [`MIN_BEYOND`] samples lie
//! beyond it; where slices are too thin for that, it is taken once over
//! the whole phase instead.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use netsim::rng::DetRng;

/// Slices the measured phase is cut into.
pub const SLICES: usize = 9;

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest percentile `<= q` that still has [`MIN_BEYOND`] samples
/// beyond it in a sample of `n` (never below the median).
pub fn supported_q(n: usize, q: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    q.min(1.0 - MIN_BEYOND as f64 / n as f64).max(0.5)
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile of `values`
/// (nearest-rank; 0 for fewer than 4 values).
pub fn iqr_f64(values: &mut [f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let at =
        |q: f64| values[((q * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1];
    at(0.75) - at(0.25)
}

pub fn median_u64(values: &[u64]) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, 0.5)
}

/// One timing metric after the statistics rule.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stat {
    pub value: f64,
    /// IQR of the per-slice values (0 when taken over the whole phase).
    pub slice_iqr: f64,
    /// Samples behind the value.
    pub n: usize,
    /// The percentile actually reported (differs from the one asked for
    /// only when too few samples lay beyond it).
    pub q: f64,
}

/// Latency samples of one measured phase, bucketed into [`SLICES`] equal
/// slices by completion time.
#[derive(Debug, Clone)]
pub struct Sliced {
    slice_ns: u64,
    slices: Vec<Vec<u64>>,
}

impl Sliced {
    pub fn new(phase_ns: u64) -> Self {
        Sliced {
            slice_ns: (phase_ns / SLICES as u64).max(1),
            slices: vec![Vec::new(); SLICES],
        }
    }

    /// Records one completed operation: `at_ns` since the start of the
    /// measured phase, `value` its latency. Completions past the end of
    /// the phase are not part of it.
    pub fn record(&mut self, at_ns: u64, value: u64) {
        if let Some(s) = self.slices.get_mut((at_ns / self.slice_ns) as usize) {
            s.push(value);
        }
    }

    pub fn len(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    pub fn all_sorted(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.slices.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// Median over slices of the per-slice `q`-percentile. Slices too
    /// thin to support `q` (fewer than [`MIN_BEYOND`] samples beyond it)
    /// make the whole phase the sample instead, at the highest
    /// percentile it supports. `q = 0.5` is always sliced: a slice with
    /// no sample (a stall) simply has no median to contribute.
    pub fn quantile(&self, q: f64) -> Stat {
        let need = if q <= 0.5 {
            1
        } else {
            (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize
        };
        let populated: Vec<&Vec<u64>> = self.slices.iter().filter(|s| !s.is_empty()).collect();
        let sliced = q <= 0.5 || populated.iter().all(|s| s.len() >= need);
        if sliced && !populated.is_empty() {
            let mut per: Vec<f64> = populated
                .iter()
                .map(|s| {
                    let mut v = (*s).clone();
                    v.sort_unstable();
                    percentile(&v, q) as f64
                })
                .collect();
            let value = median_f64(&mut per);
            return Stat {
                value,
                slice_iqr: iqr_f64(&mut per),
                n: self.len(),
                q,
            };
        }
        let all = self.all_sorted();
        let q = supported_q(all.len(), q);
        Stat {
            value: percentile(&all, q) as f64,
            slice_iqr: 0.0,
            n: all.len(),
            q,
        }
    }

    /// Median over slices of work completed per second of service:
    /// `weight` units per operation over the summed latencies of the
    /// slice's operations. For one blocking caller that is its throughput
    /// with the harness's own time between calls (checking the answer)
    /// left out, and unlike a count per slice it is not quantised when a
    /// slice holds only a handful of long operations.
    pub fn rate_per_s(&self, weight: f64) -> Stat {
        let mut per: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.len() as f64 * weight * 1e9 / s.iter().sum::<u64>().max(1) as f64)
            .collect();
        Stat {
            value: median_f64(&mut per),
            slice_iqr: iqr_f64(&mut per),
            n: self.len(),
            q: 0.5,
        }
    }
}

// ----------------------------------------------------------------------
// Open loop
// ----------------------------------------------------------------------

/// One scheduled request of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, ns since the start of the run.
    pub due_ns: u64,
    /// The client connection that sends it.
    pub conn: usize,
    /// Index into the workload's request pool.
    pub request: usize,
}

/// Precomputes a seeded open-loop schedule: every connection draws its own
/// log-normal (σ = 1, heavy-tailed) interarrival stream at `rate / conns`
/// and the streams are merged through a heap of `(due, conn)` heads, so
/// the schedule is one totally ordered list fixed before the run starts —
/// the system under test cannot slow its own arrivals down.
pub fn open_schedule(
    seed: u64,
    rate_per_s: f64,
    duration_ns: u64,
    conns: usize,
    n_requests: usize,
) -> Vec<Arrival> {
    const SIGMA: f64 = 1.0;
    let mean_gap_ns = 1e9 * conns as f64 / rate_per_s;
    // E[lognormal] = exp(mu + sigma^2 / 2).
    let mu = mean_gap_ns.ln() - SIGMA * SIGMA / 2.0;
    let mut rngs: Vec<DetRng> = (0..conns)
        .map(|c| DetRng::new(seed ^ 0x0be1_100b_0000_0000 ^ (c as u64 + 1)))
        .collect();
    let mut pick = DetRng::new(seed ^ 0x0be1_100b_ffff_ffff);
    let gap = |rng: &mut DetRng| {
        // Box–Muller.
        let (u1, u2) = (rng.f64().max(1e-12), rng.f64());
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (mu + SIGMA * z).exp() as u64
    };
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (c, rng) in rngs.iter_mut().enumerate() {
        heap.push(Reverse((gap(rng), c)));
    }
    let mut out = Vec::new();
    while let Some(Reverse((due_ns, conn))) = heap.pop() {
        if due_ns >= duration_ns {
            continue;
        }
        out.push(Arrival {
            due_ns,
            conn,
            request: pick.next_below(n_requests as u64) as usize,
        });
        heap.push(Reverse((due_ns + gap(&mut rngs[conn]).max(1), conn)));
    }
    out
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub conn: usize,
}

impl Served {
    /// Latency from the **due** time: the wait a stall imposes on later
    /// requests counts against them.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent it.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Largest number of requests that were due but not yet sent at the
/// moment some request was sent (its own connection only — a connection
/// is one blocking caller). 0 means the generator always kept up.
pub fn backlog_max(served: &[Served]) -> u64 {
    backlog_by_conn(served)
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(0)
}

/// Per connection, per request in `sent` order: how many later requests
/// of that connection were already due when it was sent.
fn backlog_by_conn(served: &[Served]) -> Vec<Vec<u64>> {
    let conns = served.iter().map(|s| s.conn).max().map_or(0, |c| c + 1);
    (0..conns)
        .map(|c| {
            let mine: Vec<&Served> = served.iter().filter(|s| s.conn == c).collect();
            let mut ahead = 0usize;
            mine.iter()
                .enumerate()
                .map(|(i, s)| {
                    ahead = ahead.max(i + 1);
                    while ahead < mine.len() && mine[ahead].due_ns <= s.sent_ns {
                        ahead += 1;
                    }
                    (ahead - i - 1) as u64
                })
                .collect()
        })
        .collect()
}

/// A connection whose backlog, in the middle third of its run, is at
/// least [`MIN_BEYOND`] deep and deeper than it ever was in the first
/// third: the offered rate is above what the system sustains, and the
/// latency figures describe the queue, not the system. (The last third
/// does not count: a finite schedule drains at its end.)
pub fn backlog_growing(served: &[Served]) -> bool {
    backlog_by_conn(served).iter().any(|series| {
        let third = series.len() / 3;
        if third == 0 {
            return false;
        }
        let early = series[..third].iter().copied().max().unwrap_or(0);
        let middle = series[third..2 * third].iter().copied().max().unwrap_or(0);
        middle >= MIN_BEYOND as u64 && middle > early
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A closed loop of `service_ns` operations over `phase_ns`, with an
    /// optional stall `(from_ns, len_ns)` during which nothing completes.
    fn closed_loop(phase_ns: u64, service_ns: u64, stall: Option<(u64, u64)>) -> Sliced {
        let mut s = Sliced::new(phase_ns);
        let mut rng = DetRng::new(7);
        let mut now = 0u64;
        while now < phase_ns {
            // ±10 % jitter, one op in 20 is 3× slower (a tail to measure).
            let mut lat = service_ns * (90 + rng.next_below(21)) / 100;
            if rng.next_below(20) == 0 {
                lat *= 3;
            }
            if let Some((from, len)) = stall {
                if now < from + len && now + lat > from {
                    lat += from + len - now.max(from);
                }
            }
            now += lat;
            s.record(now, lat);
        }
        s
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 100 samples support p90 exactly; 50 samples only p80.
        assert_eq!(supported_q(100, 0.9), 0.9);
        assert!((supported_q(50, 0.9) - 0.8).abs() < 1e-12);
        // Tiny samples fall back to the median, never below.
        assert_eq!(supported_q(12, 0.99), 0.5);
        // Thin slices: the p90 comes from the whole phase, flagged by a
        // zero slice IQR, and is not the per-slice figure.
        let mut s = Sliced::new(9_000);
        for i in 0..180u64 {
            s.record(i * 50, i);
        }
        let p90 = s.quantile(0.9);
        assert_eq!(p90.n, 180);
        assert_eq!(p90.q, 0.9);
        assert_eq!(p90.slice_iqr, 0.0);
        assert_eq!(p90.value, 161.0);
        // Fat slices: sliced.
        let mut fat = Sliced::new(9_000);
        for i in 0..9_000u64 {
            fat.record(i, i % 1000);
        }
        let p90 = fat.quantile(0.9);
        assert_eq!(p90.value, 899.0);
    }

    #[test]
    fn one_stalled_slice_of_nine_moves_no_gated_metric() {
        let phase = 9_000_000_000u64; // 9 s → 1 s slices
        let clean = closed_loop(phase, 2_000_000, None);
        // A 1 s stall covering the whole 5th slice.
        let stalled = closed_loop(phase, 2_000_000, Some((4_000_000_000, 1_000_000_000)));
        assert!(
            stalled.slices[4].len() <= 1,
            "the stall must empty its slice"
        );
        let within = |a: f64, b: f64, tol: f64| (a - b).abs() <= tol * b;
        for q in [0.5, 0.9] {
            let (a, b) = (clean.quantile(q), stalled.quantile(q));
            assert!(
                within(a.value, b.value, 0.02),
                "p{q}: clean {} vs stalled {}",
                a.value,
                b.value
            );
        }
        let (a, b) = (clean.rate_per_s(1.0), stalled.rate_per_s(1.0));
        assert!(
            within(a.value, b.value, 0.02),
            "rate: clean {} vs stalled {}",
            a.value,
            b.value
        );
        // The naive whole-run mean does move — that is what slicing avoids.
        let mean = |s: &Sliced| s.all_sorted().iter().sum::<u64>() as f64 / s.len() as f64;
        assert!(mean(&stalled) > mean(&clean) * 1.05);
    }

    #[test]
    fn the_schedule_is_seeded_ordered_and_hits_its_rate() {
        let a = open_schedule(5, 200.0, 10_000_000_000, 2, 17);
        let b = open_schedule(5, 200.0, 10_000_000_000, 2, 17);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, open_schedule(6, 200.0, 10_000_000_000, 2, 17));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|e| e.conn < 2 && e.request < 17));
        // 200/s over 10 s: 2 000 expected; log-normal σ=1 is noisy.
        assert!((1700..2300).contains(&a.len()), "{} arrivals", a.len());
    }

    /// Serves a schedule with blocking connections and a fixed service
    /// time — the generator the workloads run, minus the sockets.
    fn serve(schedule: &[Arrival], conns: usize, service_ns: u64) -> Vec<Served> {
        let mut free_at = vec![0u64; conns];
        schedule
            .iter()
            .map(|e| {
                let sent_ns = e.due_ns.max(free_at[e.conn]);
                let done_ns = sent_ns + service_ns;
                free_at[e.conn] = done_ns;
                Served {
                    due_ns: e.due_ns,
                    sent_ns,
                    done_ns,
                    conn: e.conn,
                }
            })
            .collect()
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let schedule = open_schedule(3, 200.0, 5_000_000_000, 2, 1);
        // 2 ms service at 100/s per connection: the generator keeps up.
        let ok = serve(&schedule, 2, 2_000_000);
        assert!(!backlog_growing(&ok));
        // Bursts of the heavy-tailed stream still queue briefly, and that
        // wait is charged to the request that waited.
        let waited = ok.iter().filter(|s| s.late_ns() > 0).count();
        assert!(waited > 0);
        assert!(ok.iter().all(|s| s.latency_ns() == s.late_ns() + 2_000_000));
    }

    #[test]
    fn a_saturated_schedule_reports_a_growing_backlog_not_a_flattering_latency() {
        let schedule = open_schedule(3, 200.0, 5_000_000_000, 2, 1);
        // 15 ms service against a 10 ms mean gap per connection.
        let sat = serve(&schedule, 2, 15_000_000);
        assert!(backlog_growing(&sat));
        assert!(backlog_max(&sat) > 50);
        // Measured from the send time every request still looks like
        // 15 ms — the coordinated-omission figure.
        assert!(sat.iter().all(|s| s.done_ns - s.sent_ns == 15_000_000));
        // From the due time the second half is far slower than the first.
        let lat: Vec<u64> = sat.iter().map(Served::latency_ns).collect();
        let (first, second) = lat.split_at(lat.len() / 2);
        assert!(median_u64(second) > 2 * median_u64(first));
        assert!(median_u64(second) > 20 * 15_000_000);
    }
}
