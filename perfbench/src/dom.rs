//! `dom-session`: one profiled `Mpk` browser under a seeded stream of
//! short Dromaeo dom/jslib analogs plus page loads.
//!
//! Gates, servolite bindings, host-field inline caches and trusted-heap
//! DOM churn dominate; there is no queue, no tenants and little compute
//! dispatch. This is the paper's Table 2 hot spot. Ops take 0.1–0.25 ms.
//!
//! Each round sets up a fresh session (the profiling browsers, the `Mpk`
//! browser, and an ungated `Base` reference browser), runs a fixed number
//! of ops, then replays the same ops on the reference browser and
//! compares every result bit for bit. Fixed-size rounds keep the heap —
//! which the engine never collects — the same size on every run.

use std::time::Instant;

use servolite::{Browser, BrowserConfig};
use workloads::{kernels as k, micro_page, profile_for, Benchmark};

use crate::calibrate::Speed;
use crate::stats::{median, percentile, ratio, Rng};
use crate::trace::{Tracer, SETUP};
use crate::{clock, rate, run_script, traced_script, Budget, Latency, Layers, Measured};

/// Ops per round.
pub const OPS_PER_ROUND: usize = 1_000;
/// Ops between two reference blocks of the host-speed calibration.
pub const CALIBRATE_EVERY: usize = 100;
/// One op in this many is a page load.
pub const PAGE_LOAD_EVERY: usize = 16;

/// A kernel generator: loop count → program.
type Kernel = fn(u32) -> String;

/// The op catalog: DOM and jslib kernels plus one compute kernel (`json`,
/// which crosses only at eval/call), each at three sizes around 0.17 ms
/// (0.6×, 1×, 1.4×). The spread of sizes makes op latency a continuous
/// distribution, so its median does not sit in a gap between two kinds.
pub fn scripts() -> Vec<Benchmark> {
    let kernels: [(&str, u32, Kernel); 10] = [
        ("dom_query", 21, k::dom_query),
        ("dom_attr", 39, k::dom_attr),
        ("dom_create", 16, k::dom_create),
        ("dom_events", 23, k::dom_events),
        ("dom_traverse", 7, k::dom_traverse),
        ("dom_style", 160, k::dom_style),
        ("dom_inner_html", 11, k::dom_inner_html),
        ("jslib_modify", 7, k::jslib_modify),
        ("jslib_build", 4, k::jslib_build),
        ("json", 15, |n| k::json_kernel(n, false)),
    ];
    let mut scripts = Vec::new();
    for (name, loops, kernel) in kernels {
        for scale in [0.6, 1.0, 1.4] {
            let n = ((f64::from(loops) * scale).round() as u32).max(1);
            scripts.push(Benchmark::new("dromaeo", "dom", name, kernel(n), 1));
        }
    }
    scripts
}

/// One op of a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `load_html` of the fixture page; the result is the node delta.
    PageLoad,
    /// Evaluate catalog script `i` and call its `run()`.
    Script(usize),
}

/// The op stream of round `round` of a run with `seed`: a balanced mix
/// (every script equally often, one page load in [`PAGE_LOAD_EVERY`]) in
/// seeded order.
pub fn op_stream(seed: u64, round: usize, scripts: usize, len: usize) -> Vec<Op> {
    let loads = len / PAGE_LOAD_EVERY;
    let mut ops: Vec<Op> = (0..len)
        .map(|i| if i < loads { Op::PageLoad } else { Op::Script((i - loads) % scripts) })
        .collect();
    Rng::new(seed, round as u64).shuffle(&mut ops);
    ops
}

/// Runs one op.
pub fn run_op(browser: &mut Browser, op: Op, scripts: &[Benchmark]) -> Result<f64, String> {
    match op {
        Op::PageLoad => load(browser),
        Op::Script(i) => run_script(browser, &scripts[i].source),
    }
}

fn load(browser: &mut Browser) -> Result<f64, String> {
    let before = browser.stats().nodes;
    browser.load_html(micro_page()).map_err(|e| e.to_string())?;
    Ok((browser.stats().nodes - before) as f64)
}

/// A session's browsers.
pub struct Session {
    /// The profiled enforcement browser under test.
    pub mpk: Browser,
    /// The ungated reference browser.
    pub base: Browser,
    /// Sites the profiling pass shared.
    pub shared_sites: usize,
}

fn maybe_span<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, SETUP, f),
        None => f(),
    }
}

/// Set-up: profile every script on its own profiling browser, then
/// build the `Mpk` browser with that profile and the `Base` reference.
pub fn setup(scripts: &[Benchmark], mut tracer: Option<&mut Tracer>) -> Result<Session, String> {
    let profile = maybe_span(&mut tracer, "provenance.profile", || profile_for(scripts))
        .map_err(|e| format!("profiling: {e}"))?;
    let build = |config, profile| {
        let mut b = Browser::with_profile(config, profile).map_err(|e| e.to_string())?;
        b.load_html(micro_page()).map_err(|e| e.to_string())?;
        Ok::<_, String>(b)
    };
    let mpk = maybe_span(&mut tracer, "servolite.browser_build", || {
        build(BrowserConfig::Mpk, Some(&profile))
    })?;
    let base =
        maybe_span(&mut tracer, "servolite.base_build", || build(BrowserConfig::Base, None))?;
    Ok(Session { mpk, base, shared_sites: profile.len() })
}

/// Replays `ops` on the reference browser and counts the results that
/// differ (or failed on either side).
pub fn check(
    base: &mut Browser,
    ops: &[Op],
    results: &[Result<f64, String>],
    scripts: &[Benchmark],
) -> u64 {
    ops.iter()
        .zip(results)
        .filter(|(op, got)| {
            let want = run_op(base, **op, scripts);
            !matches!((got, want), (Ok(g), Ok(w)) if g.to_bits() == w.to_bits())
        })
        .count() as u64
}

/// The untraced run.
pub fn measure(seed: u64, seconds: f64) -> Result<Measured, String> {
    let scripts = scripts();
    let budget = Budget::new(seconds);
    let mut m = Measured::default();
    let mut latencies = Vec::new();
    let mut round = 0;
    while budget.next_round(round) {
        crate::begin_round();
        let ops = op_stream(seed, round, scripts.len(), OPS_PER_ROUND);
        let mut speed = Speed::default();
        speed.sample();
        let setup0 = clock::thread_cpu();
        let mut session = setup(&scripts, None)?;
        let setup_s = (clock::thread_cpu() - setup0).as_secs_f64();
        let cpu0 = clock::process_cpu();
        let wall0 = Instant::now();
        let mut results = Vec::with_capacity(ops.len());
        let mut round_ms = Vec::with_capacity(ops.len());
        for (i, &op) in ops.iter().enumerate() {
            if i % CALIBRATE_EVERY == CALIBRATE_EVERY - 1 {
                speed.sample();
            }
            let start = Instant::now();
            results.push(run_op(&mut session.mpk, op, &scripts));
            round_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let cpu = (clock::process_cpu() - cpu0).saturating_sub(speed.spent());
        m.op_wall_s += wall0.elapsed().as_secs_f64();
        let f = m.scale_round(&speed, rate(ops.len() as u64, cpu), setup_s);
        latencies.extend(round_ms.iter().map(|ms| ms / f));
        m.ops += ops.len() as u64;
        m.attempted += ops.len() as u64;
        m.failed += check(&mut session.base, &ops, &results, &scripts);
        round += 1;
    }
    m.latency = Latency::of(&latencies);
    Ok(m)
}

/// The traced run.
pub fn trace(seed: u64, seconds: f64) -> Result<(Measured, Layers), String> {
    let mut m = measure(seed, seconds / 2.0)?;
    let untraced_rate = m.throughput_per_cpu_s();
    let scripts = scripts();
    let budget = Budget::new(seconds / 2.0);
    let mut tracer = Tracer::default();
    let (mut eval_ms, mut call_ms, mut load_ms, mut nodes) = (vec![], vec![], vec![], vec![]);
    let (mut crossing, mut read_ns) = (vec![], vec![]);
    let mut c = Counts::default();
    let mut op_cpu = std::time::Duration::ZERO;
    let mut speed = Speed::default();
    let (mut gated_ns, mut base_ns) = (0u64, 0u64);
    let mut shared_sites = 0;
    let mut round = 0;
    while budget.next_round(round) {
        let ops = op_stream(seed, round, scripts.len(), OPS_PER_ROUND);
        let mut session = setup(&scripts, Some(&mut tracer))?;
        shared_sites = session.shared_sites;
        let browser = &mut session.mpk;
        let before = Counts::read(browser);
        let first_span = tracer.spans().len();
        let cpu0 = clock::process_cpu();
        let mut results = Vec::with_capacity(ops.len());
        for (i, &op) in ops.iter().enumerate() {
            if i % CALIBRATE_EVERY == 0 {
                speed.sample();
            }
            let id = (round * OPS_PER_ROUND + i) as u64;
            tracer.begin("harness.op", id);
            let result = match op {
                Op::PageLoad => {
                    let before = browser.stats().nodes;
                    let r =
                        tracer.span("servolite.load_html", id, || browser.load_html(micro_page()));
                    load_ms.push(tracer.spans().last().expect("load span").wall_ns() as f64 / 1e6);
                    let delta = (browser.stats().nodes - before) as f64;
                    nodes.push(delta);
                    r.map(|()| delta).map_err(|e| e.to_string())
                }
                Op::Script(s) => {
                    let (r, e, c) = traced_script(&mut tracer, browser, &scripts[s].source, id);
                    eval_ms.push(e);
                    call_ms.push(c);
                    r
                }
            };
            tracer.end();
            results.push(result);
        }
        op_cpu += clock::process_cpu() - cpu0;
        c.add(&Counts::read(browser), &before);
        gated_ns += tracer.spans()[first_span..]
            .iter()
            .filter(|s| s.name == "harness.op")
            .map(|s| s.cpu_ns)
            .sum::<u64>();
        crossing.push(crate::crossing_ns(&mut browser.machine)?);
        let addr = browser.machine.alloc.untrusted_alloc(64).map_err(|e| e.to_string())?;
        browser.machine.mem_write(addr, 7).map_err(|e| e.to_string())?;
        read_ns.push(crate::mem_read_ns(&mut browser.machine, addr)?);

        // The same ops on the ungated reference browser: the check, and
        // the denominator of the mpk-vs-base overhead.
        let base0 = clock::thread_cpu();
        m.failed += check(&mut session.base, &ops, &results, &scripts);
        base_ns += (clock::thread_cpu() - base0).as_nanos() as u64;
        m.attempted += ops.len() as u64;
        round += 1;
    }
    if let Err(e) = tracer.write_jsonl(&crate::spans_path("dom-session", seed)) {
        eprintln!("spans not written: {e}");
    }

    let ops = (round * OPS_PER_ROUND) as u64;
    let per_op = |n: u64| ratio(n as f64, ops as f64);
    let crossing = median(&crossing);
    let mut l = Layers::new();
    l.insert("gates.transitions_per_op", per_op(c.transitions));
    l.insert("gates.crossing_ns", crossing);
    l.insert("gates.model_share", ratio(crate::model_crossing_ns(), crossing));
    l.insert("gates.overhead_ratio", ratio(gated_ns as f64, base_ns as f64));
    l.insert("lir.fused_ops_per_op", per_op(c.fused));
    l.insert("vmem.tlb_hit_rate", ratio(c.tlb_hits as f64, (c.tlb_hits + c.tlb_misses) as f64));
    l.insert("vmem.tlb_misses_per_op", per_op(c.tlb_misses));
    l.insert("vmem.tlb_flushes_per_op", per_op(c.tlb_flushes));
    l.insert("vmem.demand_pages_per_op", per_op(c.demand_pages));
    l.insert("vmem.mem_read_ns", median(&read_ns));
    l.insert("mpk.pkey_faults", c.pkey_faults as f64);
    l.insert("pkalloc.trusted_allocs_per_op", per_op(c.trusted_allocs));
    l.insert("pkalloc.untrusted_allocs_per_op", per_op(c.untrusted_allocs));
    l.insert(
        "pkalloc.percent_untrusted",
        100.0 * ratio(c.untrusted_allocs as f64, (c.trusted_allocs + c.untrusted_allocs) as f64),
    );
    l.insert("minijs.eval_ms_p50", percentile(&eval_ms, 0.5));
    l.insert("minijs.call_ms_p50", percentile(&call_ms, 0.5));
    l.insert("minijs.ic_hit_rate", ratio(c.ic_hits as f64, (c.ic_hits + c.ic_misses) as f64));
    l.insert("minijs.ic_misses_per_op", per_op(c.ic_misses));
    l.insert("minijs.elem_accesses_per_op", per_op(c.elem_accesses));
    l.insert("servolite.load_html_ms_p50", percentile(&load_ms, 0.5));
    l.insert("servolite.nodes_per_load", median(&nodes));
    l.insert(
        "servolite.browser_build_ms",
        ratio(tracer.total_wall_ms("servolite.browser_build"), round as f64),
    );
    l.insert(
        "provenance.profile_ms",
        ratio(tracer.total_wall_ms("provenance.profile"), round as f64),
    );
    l.insert("provenance.shared_sites", shared_sites as f64);
    let traced_rate = rate(ops, op_cpu.saturating_sub(speed.spent())) * speed.factor();
    crate::trace_layers(&mut l, &tracer, ops, untraced_rate, traced_rate);
    Ok((m, l))
}

/// Cumulative counters of one browser.
#[derive(Default, Clone, Copy)]
struct Counts {
    transitions: u64,
    trusted_allocs: u64,
    untrusted_allocs: u64,
    elem_accesses: u64,
    ic_hits: u64,
    ic_misses: u64,
    fused: u64,
    tlb_hits: u64,
    tlb_misses: u64,
    tlb_flushes: u64,
    demand_pages: u64,
    pkey_faults: u64,
}

impl Counts {
    fn read(browser: &mut Browser) -> Counts {
        browser.machine.fold_tlb_stats();
        let stats = browser.stats();
        let dispatch = browser.dispatch_stats();
        let space = browser.machine.space.stats();
        Counts {
            transitions: stats.transitions,
            trusted_allocs: stats.trusted_allocs,
            untrusted_allocs: stats.untrusted_allocs,
            elem_accesses: stats.engine_accesses,
            ic_hits: dispatch.ic_hits,
            ic_misses: dispatch.ic_misses,
            fused: dispatch.fused_ops,
            tlb_hits: space.tlb.hits,
            tlb_misses: space.tlb.misses,
            tlb_flushes: space.tlb.flushes,
            demand_pages: space.demand_pages,
            pkey_faults: space.pkey_faults,
        }
    }

    /// Adds `now - before`.
    fn add(&mut self, now: &Counts, before: &Counts) {
        self.transitions += now.transitions - before.transitions;
        self.trusted_allocs += now.trusted_allocs - before.trusted_allocs;
        self.untrusted_allocs += now.untrusted_allocs - before.untrusted_allocs;
        self.elem_accesses += now.elem_accesses - before.elem_accesses;
        self.ic_hits += now.ic_hits - before.ic_hits;
        self.ic_misses += now.ic_misses - before.ic_misses;
        self.fused += now.fused - before.fused;
        self.tlb_hits += now.tlb_hits - before.tlb_hits;
        self.tlb_misses += now.tlb_misses - before.tlb_misses;
        self.tlb_flushes += now.tlb_flushes - before.tlb_flushes;
        self.demand_pages += now.demand_pages - before.demand_pages;
        self.pkey_faults += now.pkey_faults - before.pkey_faults;
    }
}
