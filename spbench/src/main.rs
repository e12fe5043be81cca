//! `spbench` — the repo's benchmark. See `README.md` next to this
//! package for the workloads, the metrics and how to compare two commits.
//!
//! ```text
//! spbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! spbench [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]   # every workload, one child each
//! spbench --emit-benchmark-json
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` —
//! every end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`.

mod fixture;
mod names;
mod plane;
mod probes;
mod run;
mod stats;
mod trace;
mod watch;
mod wire;

use std::fmt::Write as _;
use std::process::ExitCode;

use names::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use run::{peak_rss_mb, RunCfg, RunResult};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    emit: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        emit: false,
    };
    let mut smoke = false;
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                a.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                }
            }
            "--traced" => a.traced = true,
            "--smoke" => smoke = true,
            "--emit-benchmark-json" => a.emit = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // A smoke run exercises every code path in a few seconds; its
    // numbers are not comparable with anything.
    if smoke && !seconds_given {
        a.seconds = 3.0;
    }
    if !(a.seconds.is_finite() && a.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|k| k.name == w) {
            let known: Vec<&str> = WORKLOADS.iter().map(|k| k.name).collect();
            return Err(format!("unknown workload {w}; known: {}", known.join(", ")));
        }
    }
    Ok(a)
}

fn run_workload(name: &str, cfg: RunCfg) -> Result<RunResult, fixture::SetupError> {
    match name {
        "wire_fanout" => wire::run(wire::Kind::Fanout, cfg),
        "wire_sweep" => wire::run(wire::Kind::Sweep, cfg),
        "plane_storm" => plane::run(cfg),
        "watch_stream" => watch::run(cfg),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(r: &RunResult, traced: bool, correct: bool) -> String {
    let mut metrics: Vec<String> = Vec::new();
    let mut metric = |name: &str, value: f64, unit: &str| {
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    };
    if traced {
        for m in PER_LAYER {
            let v = r.layer.get(m.name).copied().unwrap_or(0.0);
            metric(m.name, if v.is_finite() { v } else { 0.0 }, m.unit);
        }
    } else if let Some(e) = &r.e2e {
        for m in END_TO_END {
            let v = match m.name {
                "op_p50_us" => e.op_p50_us.value,
                "peak_rss_mb" => peak_rss_mb(),
                "setup_s" => e.setup_s,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            metric(m.name, v, m.unit);
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

fn human_report(name: &str, cfg: RunCfg, r: &RunResult) -> String {
    let mut o = String::new();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    writeln!(
        o,
        "spbench {name} seed={} seconds={} trace={} cores={cores}",
        cfg.seed, cfg.seconds, cfg.traced as u8
    )
    .unwrap();
    if let Some(e) = &r.e2e {
        for (label, s, unit) in [
            ("op_p50_us", &e.op_p50_us, "us"),
            ("(op_p90_us)", &e.op_p90_us, "us"),
            ("(ops_per_s)", &e.ops_per_s, "1/s"),
        ] {
            writeln!(
                o,
                "  {label:<12} {:>12.1} {unit:<4} slice_iqr {:>10.1}  p{:<4.1} n={}",
                s.value,
                s.slice_iqr,
                s.q * 100.0,
                s.n
            )
            .unwrap();
        }
        writeln!(o, "  {:<12} {:>12.3} s", "setup_s", e.setup_s).unwrap();
        writeln!(o, "  {:<12} {:>12.1} MB", "peak_rss_mb", peak_rss_mb()).unwrap();
    }
    if cfg.traced {
        for m in PER_LAYER {
            if let Some(v) = r.layer.get(m.name) {
                writeln!(o, "  {:<40} {:>14.1} {}", m.name, v, m.unit).unwrap();
            }
        }
    }
    o.push_str(&r.report);
    writeln!(o, "  ops_attempted {} ops_failed {}", r.attempted, r.failed).unwrap();
    for u in &r.unhealthy {
        writeln!(o, "  UNHEALTHY: {u}").unwrap();
    }
    o
}

/// No `--workload`: one child process per workload, so threads and peak
/// memory never leak from one workload into the next.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("spbench: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.traced { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("spbench: {} exited with {s}", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("spbench: could not run {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.emit {
        print!("{}", names::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let Some(name) = a.workload.as_deref() else {
        return run_all(&a);
    };
    let cfg = RunCfg {
        seed: a.seed,
        seconds: a.seconds,
        traced: a.traced,
    };
    let r = match run_workload(name, cfg) {
        Ok(r) => r,
        Err(e) => {
            // No result line: a run that could not set up measured nothing.
            eprintln!("spbench: {e}");
            return ExitCode::from(3);
        }
    };
    let correct = r.failed == 0 && r.unhealthy.is_empty();
    print!("{}", human_report(name, cfg, &r));
    println!("{}", result_line(&r, cfg.traced, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::EndToEnd;
    use crate::stats::Stat;

    /// The names between `"metrics": {` and the end of a result line.
    fn emitted(line: &str) -> Vec<String> {
        let body = line.split_once("\"metrics\": {").expect("metrics key").1;
        let mut chunks: Vec<&str> = body.split("\": {\"value\"").collect();
        // What follows the last name is its value, not another name.
        chunks.pop();
        chunks
            .into_iter()
            .filter_map(|chunk| chunk.rsplit_once('"').map(|(_, name)| name.to_string()))
            .collect()
    }

    #[test]
    fn a_result_line_carries_exactly_the_listed_metric_names() {
        let stat = Stat {
            value: 1.5,
            ..Stat::default()
        };
        let r = RunResult {
            e2e: Some(EndToEnd {
                op_p50_us: stat,
                op_p90_us: stat,
                ops_per_s: stat,
                setup_s: 0.5,
            }),
            ..RunResult::default()
        };
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(emitted(&result_line(&r, false, true)), want);
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(emitted(&result_line(&r, true, true)), want);
        let line = result_line(&r, false, true);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
    }
}
