//! The repository's end-to-end benchmark: three closed-loop workloads
//! driven from one process through the program's public functions.
//!
//! * `serve-tenants` — the multi-tenant serving runtime end to end;
//! * `dom-session` — one profiled `Mpk` browser running a seeded stream
//!   of short Dromaeo dom/jslib analogs and page loads;
//! * `lir-pipeline` — the compile–profile–recompile pipeline over the
//!   §5.2 / Fig. 3 gated micro programs.
//!
//! An untraced run reports the end-to-end metrics ([`E2E`]); a traced run
//! reports the per-layer metrics ([`LAYERS`]). See `README.md` for the
//! metric → layer → workload map and the noise measurements behind it.

pub mod calibrate;
pub mod clock;
pub mod dom;
pub mod host;
pub mod lir;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics: `(name, unit)`. Every workload reports all five.
pub const E2E: [(&str, &str); 5] = [
    ("throughput_per_cpu_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. Every workload
/// reports all of them; a layer a workload does not exercise reads 0.
pub const LAYERS: [(&str, &str); 51] = [
    ("server.queue.backpressure_waits_per_op", "count"),
    ("server.queue.max_depth", "count"),
    ("server.check_us_per_op", "us"),
    ("tenant.bind_us_p50", "us"),
    ("tenant.bind_hit_rate", "ratio"),
    ("tenant.evictions_per_op", "count"),
    ("tenant.pages_retagged_per_op", "count"),
    ("tenant.bind_retries_per_op", "count"),
    ("gates.transitions_per_op", "count"),
    ("gates.crossing_ns", "ns"),
    ("gates.model_share", "ratio"),
    ("gates.overhead_ratio", "ratio"),
    ("lir.instret_per_op", "count"),
    ("lir.ns_per_instr", "ns"),
    ("lir.fused_ops_per_op", "count"),
    ("lir.decode_us", "us"),
    ("vmem.tlb_hit_rate", "ratio"),
    ("vmem.tlb_misses_per_op", "count"),
    ("vmem.tlb_flushes_per_op", "count"),
    ("vmem.demand_pages_per_op", "count"),
    ("vmem.mem_read_ns", "ns"),
    ("mpk.pkey_faults", "count"),
    ("pkalloc.trusted_allocs_per_op", "count"),
    ("pkalloc.untrusted_allocs_per_op", "count"),
    ("pkalloc.percent_untrusted", "%"),
    ("minijs.eval_ms_p50", "ms"),
    ("minijs.call_ms_p50", "ms"),
    ("minijs.ic_hit_rate", "ratio"),
    ("minijs.ic_misses_per_op", "count"),
    ("minijs.elem_accesses_per_op", "count"),
    ("servolite.load_html_ms_p50", "ms"),
    ("servolite.nodes_per_load", "count"),
    ("servolite.browser_build_ms", "ms"),
    ("core.lint_ms", "ms"),
    ("core.static_analysis_ms", "ms"),
    ("core.profiling_run_ms", "ms"),
    ("core.recompile_ms", "ms"),
    ("provenance.profile_ms", "ms"),
    ("provenance.shared_sites", "count"),
    ("host.steal_ms", "ms"),
    ("host.cpu_util", "ratio"),
    ("host.throughput_wall_per_s", "1/s"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.self_us_per_op.harness", "us"),
    ("trace.self_us_per_op.tenant", "us"),
    ("trace.self_us_per_op.gates", "us"),
    ("trace.self_us_per_op.servolite", "us"),
    ("trace.self_us_per_op.minijs", "us"),
    ("trace.self_us_per_op.server", "us"),
    ("trace.self_us_per_op.lir", "us"),
];

/// Per-layer readings of a traced run, by [`LAYERS`] name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The serving runtime: one worker, 32 tenants over 15 keys.
    ServeTenants,
    /// One profiled `Mpk` browser under DOM-heavy scripts.
    DomSession,
    /// `pkru_safe::Pipeline` over gated lir micro programs.
    LirPipeline,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::ServeTenants, Workload::DomSession, Workload::LirPipeline];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeTenants => "serve-tenants",
            Workload::DomSession => "dom-session",
            Workload::LirPipeline => "lir-pipeline",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload untraced for `seconds`.
    pub fn measure(self, seed: u64, seconds: f64) -> Result<Measured, String> {
        match self {
            Workload::ServeTenants => serve::measure(seed, seconds),
            Workload::DomSession => dom::measure(seed, seconds),
            Workload::LirPipeline => lir::measure(seed, seconds),
        }
    }

    /// The traced run: half of `seconds` untraced (the tracing-overhead
    /// baseline), half traced. Returns both phases' results and the
    /// per-layer readings.
    pub fn trace(self, seed: u64, seconds: f64) -> Result<(Measured, Layers), String> {
        match self {
            Workload::ServeTenants => serve::trace(seed, seconds),
            Workload::DomSession => dom::trace(seed, seconds),
            Workload::LirPipeline => lir::trace(seed, seconds),
        }
    }
}

/// Latency of one run, wall milliseconds per op.
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    /// Median.
    pub p50: f64,
    /// 90th percentile (the reported tail).
    pub p90: f64,
    /// 99th percentile (diagnostic only: it swings with host steal).
    pub p99: f64,
    /// Samples behind the percentiles.
    pub samples: u64,
}

impl Latency {
    /// Percentiles of pooled per-op samples.
    pub fn of(samples_ms: &[f64]) -> Latency {
        Latency {
            p50: stats::percentile(samples_ms, 0.50),
            p90: stats::percentile(samples_ms, 0.90),
            p99: stats::percentile(samples_ms, 0.99),
            samples: samples_ms.len() as u64,
        }
    }
}

/// What one untraced run measured.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output was wrong or that failed.
    pub failed: u64,
    /// Run-level check failures (a restarted worker, a wrong transition
    /// count, ...): any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Ops per CPU-second of the process, one entry per round, scaled to
    /// the nominal host speed.
    pub round_rates: Vec<f64>,
    /// Wall latency per op.
    pub latency: Latency,
    /// Thread-CPU seconds of each round's set-up, scaled to the nominal
    /// host speed.
    pub setup_cpu_s: Vec<f64>,
    /// Peak RSS (MiB) of each round.
    pub round_peak_rss_mb: Vec<f64>,
    /// Host-speed factor of each round (see [`calibrate::Speed::factor`]).
    pub speed_factors: Vec<f64>,
    /// Raw (unscaled) per-round rates.
    pub raw_rates: Vec<f64>,
    /// Ops completed in the measured (non-set-up) phases.
    pub ops: u64,
    /// Wall seconds of the measured phases.
    pub op_wall_s: f64,
}

impl Measured {
    /// Records one round scaled to the nominal host speed — its op rate
    /// (ops per CPU-second) and set-up time — and returns the round's
    /// speed factor, by which the caller divides the round's latencies.
    pub(crate) fn scale_round(
        &mut self,
        speed: &calibrate::Speed,
        raw_rate: f64,
        setup_s: f64,
    ) -> f64 {
        let f = speed.factor();
        self.speed_factors.push(f);
        self.raw_rates.push(raw_rate);
        self.round_rates.push(raw_rate * f);
        self.setup_cpu_s.push(setup_s / f);
        self.round_peak_rss_mb.push(host::peak_rss_mb());
        f
    }

    /// Whether every op and every run-level check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Ops per CPU-second: the median over rounds.
    pub fn throughput_per_cpu_s(&self) -> f64 {
        stats::median(&self.round_rates)
    }

    /// The end-to-end metrics, in [`E2E`] order.
    pub fn e2e(&self) -> [f64; 5] {
        [
            self.throughput_per_cpu_s(),
            self.latency.p50,
            self.latency.p90,
            stats::median(&self.setup_cpu_s),
            stats::median(&self.round_peak_rss_mb),
        ]
    }
}

/// Starts a round: resets the peak-RSS mark, so each round's peak is
/// measured on its own.
pub(crate) fn begin_round() {
    host::reset_peak_rss();
}

/// Rounds run until the time budget is spent, and at least this many so
/// that set-up time is always a median.
pub(crate) const MIN_ROUNDS: usize = 3;

/// A run's time budget: rounds keep starting until `seconds` of wall
/// time have passed since the budget was made.
pub(crate) struct Budget {
    deadline: Instant,
}

impl Budget {
    /// A budget of `seconds` from now.
    pub(crate) fn new(seconds: f64) -> Budget {
        Budget { deadline: Instant::now() + Duration::from_secs_f64(seconds.max(0.0)) }
    }

    /// Whether round `round` (0-based) should run.
    pub(crate) fn next_round(&self, round: usize) -> bool {
        round < MIN_ROUNDS || Instant::now() < self.deadline
    }
}

/// Ops per CPU-second for a round that completed `ops` ops in
/// `cpu` of process CPU time.
pub(crate) fn rate(ops: u64, cpu: Duration) -> f64 {
    stats::ratio(ops as f64, cpu.as_secs_f64())
}

/// Times blocks of gate enter/exit pairs on a live machine on the
/// thread-CPU clock and returns the median ns per crossing.
pub(crate) fn crossing_ns(machine: &mut ::lir::Machine) -> Result<f64, String> {
    const PAIRS: u32 = 2_000;
    let mut blocks = Vec::new();
    for _ in 0..9 {
        let start = clock::thread_cpu();
        for _ in 0..PAIRS {
            machine.gates.enter_untrusted(&mut machine.cpu).map_err(|e| e.to_string())?;
            machine.gates.exit_untrusted(&mut machine.cpu).map_err(|e| e.to_string())?;
        }
        let elapsed = clock::thread_cpu() - start;
        blocks.push(elapsed.as_nanos() as f64 / f64::from(2 * PAIRS));
    }
    Ok(stats::median(&blocks))
}

/// Times `Machine::mem_read` of one hot, already-written word on the
/// thread-CPU clock and returns the median ns per read.
pub(crate) fn mem_read_ns(machine: &mut ::lir::Machine, addr: u64) -> Result<f64, String> {
    const READS: u32 = 20_000;
    let mut blocks = Vec::new();
    for _ in 0..9 {
        let start = clock::thread_cpu();
        for _ in 0..READS {
            std::hint::black_box(machine.mem_read(std::hint::black_box(addr)))
                .map_err(|e| e.to_string())?;
        }
        let elapsed = clock::thread_cpu() - start;
        blocks.push(elapsed.as_nanos() as f64 / f64::from(READS));
    }
    Ok(stats::median(&blocks))
}

/// Fills the layer metrics every workload derives the same way from its
/// span trace: attribution, per-layer self time, and tracing overhead
/// (`untraced_rate / traced_rate`, so 1.05 means tracing cost 5%).
pub(crate) fn trace_layers(
    layers: &mut Layers,
    tracer: &trace::Tracer,
    ops: u64,
    untraced_rate: f64,
    traced_rate: f64,
) {
    layers.insert("trace.attributed_share", tracer.attributed_share());
    layers.insert("trace.overhead", stats::ratio(untraced_rate, traced_rate));
    for (layer, ns) in tracer.self_ns_by_layer() {
        let key = LAYERS
            .iter()
            .map(|(name, _)| *name)
            .find(|name| name.strip_prefix("trace.self_us_per_op.") == Some(layer));
        if let Some(key) = key {
            layers.insert(key, stats::ratio(ns as f64 / 1e3, ops as f64));
        }
    }
}

/// The modeled WRPKRU cost of one crossing, in ns.
pub(crate) fn model_crossing_ns() -> f64 {
    pkru_gates::DEFAULT_CROSSING_COST.as_nanos() as f64
}

/// Evaluates `source` and calls its `run()` on `browser` (untraced),
/// returning the numeric result.
pub(crate) fn run_script(browser: &mut servolite::Browser, source: &str) -> Result<f64, String> {
    browser.eval_script(source).map_err(|e| e.to_string())?;
    numeric(browser.call_script("run", &[]))
}

fn numeric(value: Result<minijs::Value, servolite::BrowserError>) -> Result<f64, String> {
    match value {
        Ok(minijs::Value::Num(n)) => Ok(n),
        Ok(other) => Err(format!("non-numeric result {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// [`run_script`] inside `minijs.eval` and `minijs.call` spans. Returns
/// the result and the two spans' wall milliseconds, each with the
/// modeled gate time of the crossings it made subtracted.
pub(crate) fn traced_script(
    tracer: &mut trace::Tracer,
    browser: &mut servolite::Browser,
    source: &str,
    op: u64,
) -> (Result<f64, String>, f64, f64) {
    fn timed<R>(
        tracer: &mut trace::Tracer,
        browser: &mut servolite::Browser,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut servolite::Browser) -> R,
    ) -> (R, f64) {
        let crossings0 = browser.machine.gates.transitions();
        let out = tracer.span(name, op, || f(browser));
        let crossings = browser.machine.gates.transitions() - crossings0;
        let wall_ns = tracer.spans().last().expect("script span").wall_ns() as f64;
        (out, (wall_ns - crossings as f64 * model_crossing_ns()).max(0.0) / 1e6)
    }
    let (evaluated, eval_ms) = timed(tracer, browser, "minijs.eval", op, |b| b.eval_script(source));
    if let Err(e) = evaluated {
        return (Err(e.to_string()), eval_ms, 0.0);
    }
    let (called, call_ms) =
        timed(tracer, browser, "minijs.call", op, |b| b.call_script("run", &[]));
    (numeric(called), eval_ms, call_ms)
}

/// Where a traced run writes its spans: `out/` in the benchmark's
/// directory.
pub(crate) fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.jsonl"))
}
