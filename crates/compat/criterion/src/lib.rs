//! Offline stand-in for `criterion` covering the workspace's bench
//! surface: `Criterion::{benchmark_group, bench_function}`, groups with
//! `throughput`/`sample_size`/`bench_with_input`/`finish`, `Bencher::iter`,
//! `BenchmarkId`, `Throughput`, `black_box`, and the
//! `criterion_group!`/`criterion_main!` macros.
//!
//! Each benchmark runs a short warmup, then a fixed number of timed
//! samples, and prints `name ... mean <t> (min <t>, N samples)` — enough
//! to compare hot paths run-over-run without the real crate's statistics.

#![forbid(unsafe_code)]

use std::fmt;
use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier — defers to `std::hint::black_box`.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Measured throughput label attached to a group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// A benchmark identifier: `function_name/parameter`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// Runs closures and accumulates sample times.
pub struct Bencher {
    samples: usize,
    last_mean: Duration,
    last_min: Duration,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            samples,
            last_mean: Duration::ZERO,
            last_min: Duration::ZERO,
        }
    }

    /// Times `f` over warmup + samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        for _ in 0..2 {
            black_box(f());
        }
        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            let dt = t0.elapsed();
            total += dt;
            if dt < min {
                min = dt;
            }
        }
        self.last_mean = total / self.samples as u32;
        self.last_min = min;
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

fn run_one(
    full_name: &str,
    samples: usize,
    throughput: Option<Throughput>,
    f: impl FnOnce(&mut Bencher),
) {
    let mut b = Bencher::new(samples);
    f(&mut b);
    let mut line = format!(
        "{full_name:<48} mean {:>10}  (min {:>10}, {} samples)",
        fmt_duration(b.last_mean),
        fmt_duration(b.last_min),
        samples
    );
    if let Some(tp) = throughput {
        let per_sec = |n: u64| {
            if b.last_mean.is_zero() {
                f64::INFINITY
            } else {
                n as f64 / b.last_mean.as_secs_f64()
            }
        };
        match tp {
            Throughput::Elements(n) => {
                line.push_str(&format!("  {:.0} elem/s", per_sec(n)));
            }
            Throughput::Bytes(n) => {
                line.push_str(&format!("  {:.0} B/s", per_sec(n)));
            }
        }
    }
    println!("{line}");
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn throughput(&mut self, tp: Throughput) -> &mut Self {
        self.throughput = Some(tp);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        run_one(
            &format!("{}/{}", self.name, id),
            self.sample_size,
            self.throughput,
            f,
        );
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnOnce(&mut Bencher, &I),
    {
        run_one(
            &format!("{}/{}", self.name, id),
            self.sample_size,
            self.throughput,
            |b| f(b, input),
        );
        self
    }

    pub fn finish(&mut self) {}
}

/// The bench context handed to every target function.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            throughput: None,
            _parent: self,
        }
    }

    pub fn bench_function<F>(&mut self, name: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        run_one(&name.to_string(), self.sample_size, None, f);
        self
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
