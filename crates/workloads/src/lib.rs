//! Benchmark workloads: analogs of every suite in the paper's evaluation.
//!
//! The paper benchmarks Servo with Dromaeo, Kraken, Octane, and
//! JetStream2. Those suites cannot run on a simulated machine, so this
//! crate rebuilds each *benchmark* as a JavaScript program for the
//! `minijs` engine, generated from a dozen real kernels (FFT, SHA-256-like
//! compression, AES-like rounds, A*, Gaussian blur, JSON, splay trees,
//! n-body, string codecs, a task scheduler, DOM churn, ...). What must be
//! preserved is each benchmark's *interaction profile*:
//!
//! - pure-JS compute benchmarks (Kraken, most of Octane/JetStream2, the
//!   `v8`/`sunspider`/`dromaeo` sub-suites) cross the compartment boundary
//!   only at `eval` granularity — two transitions per run;
//! - the `dom` and `jslib` sub-suites hammer gated DOM natives and direct
//!   host-field reads inside their hot loops, producing orders of
//!   magnitude more transitions per unit of work — which is exactly why
//!   they dominate the paper's overhead (Table 2, §5.3).
//!
//! [`runner`] executes a benchmark list under the `base`/`alloc`/`mpk`
//! configurations (profiling first, as the pipeline requires) and reports
//! normalized overhead, transition counts, and `%M_U` — the same columns
//! as Tables 1–3.

pub mod kernels;
pub mod runner;
pub mod suites;

pub use runner::{
    profile_for, run_benchmark, run_benchmark_dispatch, run_benchmark_tlb, run_config, run_matrix,
    ConfigReport, RunResult, SuiteSummary, WorkloadError,
};
pub use suites::{dromaeo, jetstream2, kraken, micro_page, octane};

/// One benchmark: a JS program with a `run()` entry, plus metadata.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// The suite ("dromaeo", "kraken", "octane", "jetstream2").
    pub suite: &'static str,
    /// The sub-suite (Dromaeo only: "dom", "v8", "dromaeo", "sunspider",
    /// "jslib"); empty elsewhere.
    pub sub: &'static str,
    /// The paper's benchmark name.
    pub name: &'static str,
    /// The program. Evaluated once for setup; must define `run()`.
    pub source: String,
    /// Calls to `run()` per measurement.
    pub iterations: u32,
}

impl Benchmark {
    /// Creates a benchmark record.
    pub fn new(
        suite: &'static str,
        sub: &'static str,
        name: &'static str,
        source: String,
        iterations: u32,
    ) -> Benchmark {
        Benchmark { suite, sub, name, source, iterations }
    }
}
