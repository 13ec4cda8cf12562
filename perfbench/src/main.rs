//! Command line: run one workload and print its metrics.
//!
//! ```text
//! perfbench --workload <serve-tenants|dom-session|lir-pipeline> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`). The line before it is
//! the full record of the run — workload, seed, the same metrics and the
//! host-noise diagnostics — which `compare.py` reads.

use std::fmt::Write;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::{clock, host, stats, Workload, E2E, LAYERS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// A JSON number: metrics are finite by construction, but a non-finite
/// value must not produce invalid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value))
            .expect("write to String");
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-tenants|dom-session|lir-pipeline> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // One CPU for the whole process: the calibration blocks then run on
    // the CPU the ops run on, and serve's producer and worker hand
    // requests over without cross-CPU wake-ups.
    let nproc = host::nproc();
    let pinned = host::pin_to_cpu(nproc - 1);
    let steal0 = host::steal_ms(None);
    let cpu0 = clock::process_cpu();
    let wall0 = Instant::now();
    let outcome = if args.trace {
        args.workload.trace(args.seed, args.seconds).map(|(m, l)| (m, Some(l)))
    } else {
        args.workload.measure(args.seed, args.seconds).map(|m| (m, None))
    };
    let (measured, layers) = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let wall = wall0.elapsed().as_secs_f64();
    let steal = match (steal0, host::steal_ms(None)) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    let cpu_util = stats::ratio((clock::process_cpu() - cpu0).as_secs_f64(), wall);
    let wall_rate = stats::ratio(measured.ops as f64, measured.op_wall_s);

    let e2e: Vec<(&str, &str, f64)> =
        E2E.iter().zip(measured.e2e()).map(|((n, u), v)| (*n, *u, v)).collect();
    let diagnostics = [
        ("host.steal_ms", "ms", steal),
        ("host.cpu_util", "ratio", cpu_util),
        ("host.throughput_wall_per_s", "1/s", wall_rate),
        ("latency_p99_ms", "ms", measured.latency.p99),
        ("latency_samples", "count", measured.latency.samples as f64),
        ("rounds", "count", measured.setup_cpu_s.len() as f64),
        ("nproc", "count", nproc as f64),
        ("throughput_per_cpu_s_raw", "1/s", stats::median(&measured.raw_rates)),
        ("host.speed_factor", "ratio", stats::median(&measured.speed_factors)),
        ("pinned", "count", f64::from(u8::from(pinned))),
    ];
    let metrics: Vec<(&str, &str, f64)> = match &layers {
        None => e2e.clone(),
        Some(layers) => {
            let mut layers = layers.clone();
            layers.insert("host.steal_ms", steal);
            layers.insert("host.cpu_util", cpu_util);
            layers.insert("host.throughput_wall_per_s", wall_rate);
            LAYERS.iter().map(|(n, u)| (*n, *u, layers.get(n).copied().unwrap_or(0.0))).collect()
        }
    };
    for problem in &measured.problems {
        eprintln!("perfbench: {}: {problem}", args.workload.name());
    }
    let correct = measured.correct() && metrics.iter().all(|(_, _, v)| v.is_finite());
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"diagnostics\": {}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        measured.attempted,
        measured.failed,
        metrics_json(&e2e),
        metrics_json(&diagnostics),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        measured.attempted,
        measured.failed,
        metrics_json(&metrics),
    );
    ExitCode::SUCCESS
}
