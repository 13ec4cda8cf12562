//! The three-configuration benchmark runner.

use core::fmt;
use std::time::Instant;

use minijs::Value;
use pkru_provenance::json::JsonValue;
use pkru_provenance::Profile;
use pkru_vmem::TlbStats;
use servolite::{Browser, BrowserConfig, BrowserError, DispatchStats};

use crate::suites::micro_page;
use crate::Benchmark;

/// Workload-level errors.
#[derive(Debug)]
pub enum WorkloadError {
    /// The browser failed (setup, script, or an unexpected MPK fault — a
    /// missed profile entry).
    Browser {
        /// The failing benchmark.
        benchmark: String,
        /// The underlying error.
        error: BrowserError,
    },
    /// A benchmark returned a non-numeric checksum.
    BadChecksum(String),
    /// Determinism violation: a config produced a different checksum.
    ChecksumMismatch {
        /// The benchmark.
        benchmark: String,
        /// Expected (base) checksum.
        expected: f64,
        /// Observed checksum.
        got: f64,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Browser { benchmark, error } => {
                write!(f, "benchmark {benchmark}: {error}")
            }
            WorkloadError::BadChecksum(b) => write!(f, "benchmark {b}: non-numeric checksum"),
            WorkloadError::ChecksumMismatch { benchmark, expected, got } => {
                write!(f, "benchmark {benchmark}: checksum {got} != {expected}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// One benchmark measurement under one configuration.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite name.
    pub suite: &'static str,
    /// Sub-suite (Dromaeo).
    pub sub: &'static str,
    /// Wall seconds of the fastest timed block of `iterations` calls.
    pub seconds: f64,
    /// Calls to `run()` in one timed block.
    pub iterations: u32,
    /// Compartment transitions over all three timed blocks, while
    /// `seconds` is the fastest single block (setup and warmup excluded).
    pub transitions: u64,
    /// `%M_U` over the whole browser session.
    pub percent_mu: f64,
    /// The benchmark's self-reported checksum (determinism witness).
    pub checksum: f64,
}

/// All rows for one configuration.
#[derive(Clone, Debug, Default)]
pub struct ConfigReport {
    /// Per-benchmark rows.
    pub rows: Vec<RunResult>,
}

impl ConfigReport {
    /// Total transitions across all rows.
    pub fn total_transitions(&self) -> u64 {
        self.rows.iter().map(|r| r.transitions).sum()
    }

    /// Arithmetic-mean `%M_U` across rows.
    pub fn mean_percent_mu(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.percent_mu).sum::<f64>() / self.rows.len() as f64
    }

    /// The machine-readable report of this configuration under `label`:
    /// one row per benchmark, carrying everything a downstream consumer
    /// needs to recompute overheads (seconds, iterations, ns/iter) and
    /// verify determinism (checksums).
    pub fn to_json(&self, label: &str) -> JsonValue {
        let rows = self.rows.iter().map(|row| {
            let ns_per_iter = if row.iterations > 0 {
                row.seconds * 1e9 / f64::from(row.iterations)
            } else {
                0.0
            };
            JsonValue::object([
                ("suite", row.suite.into()),
                ("sub", row.sub.into()),
                ("name", row.name.into()),
                ("seconds", row.seconds.into()),
                ("iterations", row.iterations.into()),
                ("ns_per_iter", ns_per_iter.into()),
                ("transitions", row.transitions.into()),
                ("percent_mu", row.percent_mu.into()),
                ("checksum", row.checksum.into()),
            ])
        });
        JsonValue::object([
            ("config", label.into()),
            ("rows", rows.collect()),
            ("total_transitions", self.total_transitions().into()),
            ("mean_percent_mu", self.mean_percent_mu().into()),
        ])
    }
}

/// Overhead summary of one configuration against the baseline.
#[derive(Clone, Debug)]
pub struct SuiteSummary {
    /// Per-benchmark normalized runtime (config / base).
    pub normalized: Vec<(&'static str, &'static str, f64)>,
    /// Mean overhead in percent (arithmetic mean of normalized − 1).
    pub mean_overhead_pct: f64,
    /// Geometric-mean normalized runtime.
    pub geomean: f64,
}

impl SuiteSummary {
    /// Compares `config` rows against `base` rows (matched by name).
    pub fn compare(base: &ConfigReport, config: &ConfigReport) -> SuiteSummary {
        let mut normalized = Vec::new();
        for row in &config.rows {
            if let Some(b) = base.rows.iter().find(|b| b.name == row.name && b.sub == row.sub) {
                if b.seconds > 0.0 {
                    normalized.push((row.name, row.sub, row.seconds / b.seconds));
                }
            }
        }
        let n = normalized.len().max(1) as f64;
        let mean = normalized.iter().map(|(_, _, r)| r - 1.0).sum::<f64>() / n * 100.0;
        let geomean = (normalized.iter().map(|(_, _, r)| r.ln()).sum::<f64>() / n).exp();
        SuiteSummary { normalized, mean_overhead_pct: mean, geomean }
    }
}

fn browser_err(benchmark: &Benchmark, error: BrowserError) -> WorkloadError {
    WorkloadError::Browser { benchmark: benchmark.name.to_string(), error }
}

/// Runs one benchmark under one configuration, returning its measurement.
///
/// A fresh browser is built per benchmark (as the paper restarts Servo per
/// suite run); setup and one warmup call precede the timed iterations.
pub fn run_benchmark(
    config: BrowserConfig,
    profile: Option<&Profile>,
    benchmark: &Benchmark,
) -> Result<RunResult, WorkloadError> {
    run_benchmark_lane(config, profile, benchmark).map(|(row, _, _)| row)
}

/// [`run_benchmark`], additionally returning the machine's TLB counters
/// and the dispatch fast-path counters for the whole browser session.
pub fn run_benchmark_lane(
    config: BrowserConfig,
    profile: Option<&Profile>,
    benchmark: &Benchmark,
) -> Result<(RunResult, TlbStats, DispatchStats), WorkloadError> {
    let mut browser =
        Browser::with_profile(config, profile).map_err(|e| browser_err(benchmark, e))?;
    browser.load_html(micro_page()).map_err(|e| browser_err(benchmark, e))?;
    browser.eval_script(&benchmark.source).map_err(|e| browser_err(benchmark, e))?;
    browser.call_script("run", &[]).map_err(|e| browser_err(benchmark, e))?;

    browser.machine.gates.reset_transitions();
    // Noise control: time `REPEATS` blocks of `iterations` calls and keep
    // the fastest block (the standard minimum-of-k estimator).
    const REPEATS: u32 = 3;
    let mut checksum = 0.0;
    let mut seconds = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        for _ in 0..benchmark.iterations {
            let v = browser.call_script("run", &[]).map_err(|e| browser_err(benchmark, e))?;
            checksum = match v {
                Value::Num(n) => n,
                _ => return Err(WorkloadError::BadChecksum(benchmark.name.to_string())),
            };
        }
        seconds = seconds.min(start.elapsed().as_secs_f64());
    }
    let stats = browser.stats();
    let dispatch_stats = browser.dispatch_stats();
    browser.machine.fold_tlb_stats();
    let tlb_stats = browser.machine.space.stats().tlb;
    Ok((
        RunResult {
            name: benchmark.name,
            suite: benchmark.suite,
            sub: benchmark.sub,
            seconds,
            iterations: benchmark.iterations,
            transitions: stats.transitions,
            percent_mu: stats.percent_untrusted(),
            checksum,
        },
        tlb_stats,
        dispatch_stats,
    ))
}

/// Records the profiling corpus for a benchmark list: each benchmark runs
/// once on the profiling build; per-run profiles merge by set union.
pub fn profile_for(benchmarks: &[Benchmark]) -> Result<Profile, WorkloadError> {
    let mut merged = Profile::new();
    for benchmark in benchmarks {
        let mut browser =
            Browser::new(BrowserConfig::Profiling).map_err(|e| browser_err(benchmark, e))?;
        browser.load_html(micro_page()).map_err(|e| browser_err(benchmark, e))?;
        browser.eval_script(&benchmark.source).map_err(|e| browser_err(benchmark, e))?;
        browser.call_script("run", &[]).map_err(|e| browser_err(benchmark, e))?;
        merged.merge(&browser.into_profile());
    }
    Ok(merged)
}

/// Runs a benchmark list under several configurations *interleaved*: for
/// each benchmark, every configuration is measured back-to-back, so slow
/// drift (thermal, frequency) cancels out of the ratios instead of
/// systematically inflating whichever configuration runs last.
pub fn run_matrix(
    configs: &[(BrowserConfig, Option<&Profile>)],
    benchmarks: &[Benchmark],
) -> Result<Vec<ConfigReport>, WorkloadError> {
    let mut reports = vec![ConfigReport::default(); configs.len()];
    for benchmark in benchmarks {
        for (i, (config, profile)) in configs.iter().enumerate() {
            reports[i].rows.push(run_benchmark(*config, *profile, benchmark)?);
        }
    }
    Ok(reports)
}

/// Runs a benchmark list under a configuration.
pub fn run_config(
    config: BrowserConfig,
    profile: Option<&Profile>,
    benchmarks: &[Benchmark],
) -> Result<ConfigReport, WorkloadError> {
    let mut report = ConfigReport::default();
    for benchmark in benchmarks {
        report.rows.push(run_benchmark(config, profile, benchmark)?);
    }
    Ok(report)
}

/// Asserts checksums match between two reports (cross-config determinism).
pub fn verify_checksums(a: &ConfigReport, b: &ConfigReport) -> Result<(), WorkloadError> {
    for row in &b.rows {
        if let Some(base) = a.rows.iter().find(|r| r.name == row.name && r.sub == row.sub) {
            if base.checksum != row.checksum {
                return Err(WorkloadError::ChecksumMismatch {
                    benchmark: row.name.to_string(),
                    expected: base.checksum,
                    got: row.checksum,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_renders_rows_and_derived_rate() {
        let row = RunResult {
            name: "fft",
            suite: "kraken",
            sub: "",
            seconds: 0.5,
            iterations: 10,
            transitions: 20,
            percent_mu: 48.5,
            checksum: 123.25,
        };
        let json = ConfigReport { rows: vec![row] }.to_json("mpk").to_string();
        assert!(json.contains("\"config\":\"mpk\""));
        assert!(json.contains("\"name\":\"fft\""));
        assert!(json.contains("\"iterations\":10"));
        assert!(json.contains("\"ns_per_iter\":50000000.0"));
        assert!(json.contains("\"checksum\":123.25"));
        assert!(json.contains("\"total_transitions\":20"));
    }
}
