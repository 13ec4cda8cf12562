//! `serve-tenants`: the serving runtime end to end.
//!
//! Each round is one `serve()` call: one worker, a 2-deep queue and 32
//! tenants over the 15 hardware keys, with uniform traffic over the
//! 9-script catalog plus page loads. One worker, because with two the
//! CPU-normalised throughput depended on host steal (lock-holder
//! preemption: bind yield loops and mutex spins burn CPU while the other
//! vCPU is stolen). A 2-deep queue, because closed-loop latency is queue
//! depth × service time and the default 32-deep queue measures mostly
//! the queue.
//!
//! `serve()` is a black box, so the traced run replays the same seeded
//! `TrafficGen` stream on the calling thread through the calls a worker
//! makes, and takes counts from the untraced `ServeReport`s.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use minijs::Value;
use pkru_server::{
    build_tenant_registry, catalog, serve, MpkPolicy, RequestKind, ScriptSpec, ServeConfig,
    ServeReport, TrafficGen, PAGE_LOAD,
};
use servolite::{Browser, BrowserConfig, DispatchOptions};
use workloads::{micro_page, profile_for, Benchmark};

use crate::calibrate::Speed;
use crate::stats::{median, percentile, ratio, Rng};
use crate::trace::{Tracer, SETUP};
use crate::{clock, host, rate, Budget, Latency, Layers, Measured};

/// Worker threads.
pub const WORKERS: usize = 1;
/// Queue capacity.
pub const QUEUE_CAPACITY: usize = 2;
/// Tenants registered (more than the 15 usable hardware keys).
pub const TENANTS: usize = 32;
/// Requests per `serve()` call.
pub const REQUESTS: u64 = 400;
/// Pause between two reference blocks of the host-speed calibration (a
/// block takes about 1 ms).
const CALIBRATE_PERIOD: Duration = Duration::from_millis(20);
/// Replayed requests between two reference blocks of the traced run.
const REPLAY_CALIBRATE_EVERY: u64 = 20;
/// Bind attempts per request (the worker's own budget).
const BIND_RETRIES: usize = 8;

/// The serve configuration of one round.
pub fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        requests: REQUESTS,
        queue_capacity: QUEUE_CAPACITY,
        seed,
        tenants: TENANTS,
        record_latency: true,
        ..ServeConfig::default()
    }
}

/// The traffic seed of round `round` of a run with `seed`.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    Rng::new(seed, round as u64).next_u64()
}

/// Requests of `report` that did not complete with the reference
/// checksum.
pub fn failed_requests(report: &ServeReport) -> u64 {
    let ok = report
        .requests_served
        .saturating_sub(report.checksum_mismatches + report.errors + report.unexpected_faults);
    report.config.requests.saturating_sub(ok)
}

/// Run-level checks: the report is clean, and no worker was restarted or
/// stalled and no request retried.
pub fn problems(report: &ServeReport) -> Vec<String> {
    let mut problems = Vec::new();
    if !report.clean() {
        problems.push("serve report is not clean".to_string());
    }
    for (what, n) in [
        ("workers restarted", report.workers_restarted),
        ("workers stalled", report.workers_stalled),
        ("requests retried", report.requests_retried),
        ("requests abandoned", report.requests_abandoned),
    ] {
        if n > 0 {
            problems.push(format!("{n} {what}"));
        }
    }
    problems
}

/// Summed counters of the untraced rounds.
#[derive(Default)]
struct Counts {
    served: u64,
    backpressure_waits: u64,
    max_depth: usize,
    transitions: u64,
    tlb_hits: u64,
    tlb_misses: u64,
    tlb_flushes: u64,
    ic_hits: u64,
    ic_misses: u64,
    fused: u64,
    pkey_faults: u64,
    binds: u64,
    bind_hits: u64,
    evictions: u64,
    pages_retagged: u64,
    bind_retries: u64,
}

impl Counts {
    fn add(&mut self, r: &ServeReport) {
        self.served += r.requests_served;
        self.backpressure_waits += r.queue.backpressure_waits;
        self.max_depth = self.max_depth.max(r.queue.max_depth);
        self.transitions += r.transitions;
        self.tlb_hits += r.tlb_hits;
        self.tlb_misses += r.tlb_misses;
        self.tlb_flushes += r.tlb_flushes;
        self.ic_hits += r.dispatch_ic_hits;
        self.ic_misses += r.dispatch_ic_misses;
        self.fused += r.superinstructions_fused;
        self.pkey_faults += r.unexpected_faults;
        if let Some(keys) = r.tenant_key_stats {
            self.binds += keys.binds;
            self.bind_hits += keys.hits;
            self.evictions += keys.evictions;
            self.pages_retagged += keys.pages_retagged;
        }
        self.bind_retries += r.per_tenant.iter().map(|t| t.bind_retries).sum::<u64>();
    }
}

/// Untraced rounds of `serve()` for `seconds`.
fn rounds(seed: u64, seconds: f64, mut each: impl FnMut(&ServeReport)) -> Result<Measured, String> {
    let budget = Budget::new(seconds);
    let mut m = Measured::default();
    let (mut p50s, mut p90s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut round = 0;
    while budget.next_round(round) {
        crate::begin_round();
        // `serve()` runs the ops on its own worker thread, so a sampler
        // thread on the same CPU runs the host-speed reference blocks
        // while it serves (a 5% duty cycle).
        let stop = AtomicBool::new(false);
        let steal = host::StealMeter::start();
        let (report, setup, serving, speed) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut speed = Speed::default();
                while !stop.load(Ordering::Relaxed) {
                    speed.sample();
                    std::thread::sleep(CALIBRATE_PERIOD);
                }
                speed
            });
            let thread0 = clock::thread_cpu();
            let process0 = clock::process_cpu();
            let report = serve(config(round_seed(seed, round)));
            // The calling thread runs set-up (catalog profiling, the
            // reference pass, the tenant registry) and then only idles as
            // supervisor, so its CPU time is the set-up cost; the rest of
            // the process CPU, less the sampler's, is the serving cost.
            let setup = clock::thread_cpu() - thread0;
            let process = clock::process_cpu() - process0;
            stop.store(true, Ordering::Relaxed);
            let speed = sampler.join().expect("speed sampler does not panic");
            let serving = process.saturating_sub(setup).saturating_sub(speed.spent());
            (report, setup, serving, speed)
        });
        let report = report.map_err(|e| format!("serve: {e}"))?;
        m.attempted += report.config.requests;
        m.failed += failed_requests(&report);
        m.problems.extend(problems(&report));
        m.ops += report.requests_served;
        m.op_wall_s += report.elapsed_seconds;
        let latency = report.latency.ok_or("serve recorded no latency")?;
        let speed_factor =
            m.scale_round(&speed, rate(report.requests_served, serving), setup.as_secs_f64());
        // Wall latency also stretches with the time the CPU was stolen;
        // remove that too.
        let f = speed_factor * steal.stretch();
        p50s.push(latency.p50_ms / f);
        p90s.push(latency.p90_ms / f);
        p99s.push(latency.p99_ms / f);
        m.latency.samples += latency.count;
        each(&report);
        round += 1;
    }
    // Admission→completion percentiles per round; the run reports their
    // medians over rounds.
    m.latency = Latency { p50: median(&p50s), p90: median(&p90s), p99: median(&p99s), ..m.latency };
    Ok(m)
}

/// The untraced run.
pub fn measure(seed: u64, seconds: f64) -> Result<Measured, String> {
    rounds(seed, seconds, |_| {})
}

/// Reference checksums on a single-threaded enforcement browser.
fn reference(
    catalog: &[ScriptSpec],
    profile: &pkru_provenance::Profile,
) -> Result<HashMap<&'static str, f64>, String> {
    let mut browser =
        Browser::with_profile(BrowserConfig::Mpk, Some(profile)).map_err(|e| e.to_string())?;
    browser.load_html(micro_page()).map_err(|e| e.to_string())?;
    let before = browser.stats().nodes;
    browser.load_html(micro_page()).map_err(|e| e.to_string())?;
    let mut reference = HashMap::new();
    reference.insert(PAGE_LOAD, (browser.stats().nodes - before) as f64);
    for spec in catalog {
        match browser.eval_script(&spec.source).and_then(|_| browser.call_script("run", &[])) {
            Ok(Value::Num(n)) => {
                reference.insert(spec.name, n);
            }
            other => return Err(format!("reference {}: {other:?}", spec.name)),
        }
    }
    Ok(reference)
}

/// What the replay of one round observed.
#[derive(Default)]
struct Replay {
    ops: u64,
    failed: u64,
    op_cpu: std::time::Duration,
    bind_us: Vec<f64>,
    eval_ms: Vec<f64>,
    call_ms: Vec<f64>,
    load_ms: Vec<f64>,
    nodes: Vec<f64>,
    check_us: f64,
    trusted_allocs: u64,
    untrusted_allocs: u64,
    elem_accesses: u64,
    demand_pages: u64,
    pkey_faults: u64,
    binds: u64,
    bind_hits: u64,
    crossing_ns: f64,
    mem_read_ns: f64,
    shared_sites: usize,
}

/// Replays round `round` of `seed` on the calling thread through the
/// calls a worker makes, recording spans.
fn replay(
    seed: u64,
    tracer: &mut Tracer,
    speed: &mut Speed,
    out: &mut Replay,
) -> Result<(), String> {
    let catalog = catalog();
    // What `serve()` does before workers start: every catalog script on
    // its own profiling browser.
    let benchmarks: Vec<Benchmark> =
        catalog.iter().map(|s| Benchmark::new("serve", "", s.name, s.source.clone(), 1)).collect();
    let profile = tracer
        .span("provenance.profile", SETUP, || profile_for(&benchmarks))
        .map_err(|e| format!("profiling: {e}"))?;
    out.shared_sites = profile.len();
    let reference = tracer.span("server.reference", SETUP, || reference(&catalog, &profile))?;
    let host = lir::SharedHost::new();
    let registry = tracer
        .span("tenant.registry", SETUP, || {
            build_tenant_registry(&host, TENANTS, MpkPolicy::Enforce)
        })
        .map_err(|e| e.to_string())?
        .ok_or("no tenant registry")?;
    let browser = tracer.span("servolite.browser_build", SETUP, || {
        let mut browser = Browser::with_dispatch(
            BrowserConfig::Mpk,
            Some(&profile),
            Some(&host),
            None,
            true,
            DispatchOptions::default(),
        )?;
        browser.load_html(micro_page())?;
        Ok::<_, servolite::BrowserError>(browser)
    });
    let mut browser = browser.map_err(|e| e.to_string())?;
    let base_untrusted = browser.machine.gates.untrusted_pkru();
    let base_filter = browser.machine.syscall_filter().clone();
    let epoch = Arc::new(registry.pool().barrier().register());
    browser.machine.gates.set_worker_epoch(Arc::clone(&epoch));

    let stats0 = browser.stats();
    let pages0 = host.space().stats().demand_pages;
    let keys0 = registry.key_stats();
    let cpu0 = clock::process_cpu();
    for request in TrafficGen::with_tenants(seed, REQUESTS, catalog.len(), TENANTS) {
        let op = request.id;
        if op % REPLAY_CALIBRATE_EVERY == 0 {
            speed.sample();
        }
        let tid = request.tenant.ok_or("untagged request")?;
        tracer.begin("harness.request", op);
        let lease = tracer.span("tenant.bind", op, || registry.bind_with_retry(tid, BIND_RETRIES));
        out.bind_us.push(tracer.spans().last().expect("bind span").wall_ns() as f64 / 1e3);
        let lease = lease.map_err(|e| format!("bind tenant {tid}: {e}"))?;
        browser.machine.gates.set_untrusted_lease(lease.pkru(), lease.stamp());
        browser.machine.install_syscall_filter(lease.tenant().syscall_filter().clone());
        // The worker's touch of the tenant's scratch word, under the
        // tenant's rights.
        let scratch = lease.tenant().scratch_addr();
        let touched = tracer.span("gates.touch", op, || {
            let m = &mut browser.machine;
            m.gates.enter_untrusted(&mut m.cpu).map_err(|e| e.to_string())?;
            let ok =
                m.mem_write(scratch, request.id).is_ok() && m.mem_read(scratch) == Ok(request.id);
            m.gates.exit_untrusted(&mut m.cpu).map_err(|e| e.to_string())?;
            Ok::<bool, String>(ok)
        })?;
        let (name, result) = match request.kind {
            RequestKind::PageLoad => {
                let before = browser.stats().nodes;
                let loaded =
                    tracer.span("servolite.load_html", op, || browser.load_html(micro_page()));
                out.load_ms.push(tracer.spans().last().expect("load span").wall_ns() as f64 / 1e6);
                let delta = (browser.stats().nodes - before) as f64;
                out.nodes.push(delta);
                (PAGE_LOAD, loaded.map(|()| delta).map_err(|e| e.to_string()))
            }
            RequestKind::Script(i) => {
                let spec = &catalog[i];
                let result = timed_script(tracer, &mut browser, &spec.source, op, out);
                (spec.name, result)
            }
        };
        let ok = tracer.span("server.check", op, || {
            touched
                && matches!(&result, Ok(v) if reference.get(name).map(|r| r.to_bits()) == Some(v.to_bits()))
        });
        out.check_us += tracer.spans().last().expect("check span").wall_ns() as f64 / 1e3;
        browser.machine.gates.set_untrusted_pkru(base_untrusted);
        browser.machine.install_syscall_filter(base_filter.clone());
        drop(lease);
        tracer.end();
        out.ops += 1;
        if !ok {
            out.failed += 1;
        }
    }
    out.op_cpu += clock::process_cpu() - cpu0;
    let stats = browser.stats();
    out.trusted_allocs += stats.trusted_allocs - stats0.trusted_allocs;
    out.untrusted_allocs += stats.untrusted_allocs - stats0.untrusted_allocs;
    out.elem_accesses += stats.engine_accesses - stats0.engine_accesses;
    browser.machine.fold_tlb_stats();
    out.demand_pages += host.space().stats().demand_pages - pages0;
    out.pkey_faults += host.space().stats().pkey_faults;
    let keys = registry.key_stats();
    out.binds += keys.binds - keys0.binds;
    out.bind_hits += keys.hits - keys0.hits;

    // Micro-timings on the live worker machine, in its ambient
    // compartment: gate crossings and a hot-page translated read.
    out.crossing_ns = crate::crossing_ns(&mut browser.machine)?;
    let addr = browser.machine.alloc.untrusted_alloc(64).map_err(|e| e.to_string())?;
    browser.machine.mem_write(addr, 7).map_err(|e| e.to_string())?;
    out.mem_read_ns = crate::mem_read_ns(&mut browser.machine, addr)?;
    Ok(())
}

fn timed_script(
    tracer: &mut Tracer,
    browser: &mut Browser,
    source: &str,
    op: u64,
    out: &mut Replay,
) -> Result<f64, String> {
    let (result, eval_ms, call_ms) = crate::traced_script(tracer, browser, source, op);
    out.eval_ms.push(eval_ms);
    out.call_ms.push(call_ms);
    result
}

/// The traced run: untraced `serve()` rounds for the counts, then traced
/// replays of the same streams on the calling thread.
pub fn trace(seed: u64, seconds: f64) -> Result<(Measured, Layers), String> {
    let mut counts = Counts::default();
    let mut m = rounds(seed, seconds / 2.0, |r| counts.add(r))?;
    let untraced_rate = m.throughput_per_cpu_s();

    let budget = Budget::new(seconds / 2.0);
    let mut tracer = Tracer::default();
    let mut replays = Vec::new();
    let mut speed = Speed::default();
    let mut round = 0;
    while budget.next_round(round) {
        let mut r = Replay::default();
        replay(round_seed(seed, round), &mut tracer, &mut speed, &mut r)?;
        m.attempted += REQUESTS;
        m.failed += r.failed + (REQUESTS - r.ops);
        replays.push(r);
        round += 1;
    }
    if let Err(e) = tracer.write_jsonl(&crate::spans_path("serve-tenants", seed)) {
        eprintln!("spans not written: {e}");
    }

    let ops: u64 = replays.iter().map(|r| r.ops).sum();
    let cpu: std::time::Duration = replays.iter().map(|r| r.op_cpu).sum();
    let sum = |f: fn(&Replay) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    let all = |f: fn(&Replay) -> &Vec<f64>| replays.iter().flat_map(f).copied().collect::<Vec<_>>();
    let served = counts.served as f64;
    let per_op = |n: u64| ratio(n as f64, served);
    let crossing = median(&replays.iter().map(|r| r.crossing_ns).collect::<Vec<_>>());
    let setup_ms = |name| ratio(tracer.total_wall_ms(name), replays.len() as f64);

    let mut l = Layers::new();
    l.insert("server.queue.backpressure_waits_per_op", per_op(counts.backpressure_waits));
    l.insert("server.queue.max_depth", counts.max_depth as f64);
    l.insert("server.check_us_per_op", ratio(replays.iter().map(|r| r.check_us).sum(), ops as f64));
    l.insert("tenant.bind_us_p50", percentile(&all(|r| &r.bind_us), 0.5));
    l.insert("tenant.bind_hit_rate", ratio(counts.bind_hits as f64, counts.binds as f64));
    l.insert("tenant.evictions_per_op", per_op(counts.evictions));
    l.insert("tenant.pages_retagged_per_op", per_op(counts.pages_retagged));
    l.insert("tenant.bind_retries_per_op", per_op(counts.bind_retries));
    l.insert("gates.transitions_per_op", per_op(counts.transitions));
    l.insert("gates.crossing_ns", crossing);
    l.insert("gates.model_share", ratio(crate::model_crossing_ns(), crossing));
    l.insert("lir.fused_ops_per_op", per_op(counts.fused));
    l.insert(
        "vmem.tlb_hit_rate",
        ratio(counts.tlb_hits as f64, (counts.tlb_hits + counts.tlb_misses) as f64),
    );
    l.insert("vmem.tlb_misses_per_op", per_op(counts.tlb_misses));
    l.insert("vmem.tlb_flushes_per_op", per_op(counts.tlb_flushes));
    l.insert("vmem.demand_pages_per_op", ratio(sum(|r| r.demand_pages), ops as f64));
    l.insert(
        "vmem.mem_read_ns",
        median(&replays.iter().map(|r| r.mem_read_ns).collect::<Vec<_>>()),
    );
    l.insert("mpk.pkey_faults", (counts.pkey_faults + sum(|r| r.pkey_faults) as u64) as f64);
    l.insert("pkalloc.trusted_allocs_per_op", ratio(sum(|r| r.trusted_allocs), ops as f64));
    l.insert("pkalloc.untrusted_allocs_per_op", ratio(sum(|r| r.untrusted_allocs), ops as f64));
    l.insert(
        "pkalloc.percent_untrusted",
        100.0 * ratio(sum(|r| r.untrusted_allocs), sum(|r| r.trusted_allocs + r.untrusted_allocs)),
    );
    l.insert("minijs.eval_ms_p50", percentile(&all(|r| &r.eval_ms), 0.5));
    l.insert("minijs.call_ms_p50", percentile(&all(|r| &r.call_ms), 0.5));
    l.insert(
        "minijs.ic_hit_rate",
        ratio(counts.ic_hits as f64, (counts.ic_hits + counts.ic_misses) as f64),
    );
    l.insert("minijs.ic_misses_per_op", per_op(counts.ic_misses));
    l.insert("minijs.elem_accesses_per_op", ratio(sum(|r| r.elem_accesses), ops as f64));
    l.insert("servolite.load_html_ms_p50", percentile(&all(|r| &r.load_ms), 0.5));
    l.insert("servolite.nodes_per_load", median(&all(|r| &r.nodes)));
    l.insert("servolite.browser_build_ms", setup_ms("servolite.browser_build"));
    l.insert("provenance.profile_ms", setup_ms("provenance.profile"));
    l.insert("provenance.shared_sites", replays.first().map_or(0.0, |r| r.shared_sites as f64));
    let traced_rate = rate(ops, cpu.saturating_sub(speed.spent())) * speed.factor();
    crate::trace_layers(&mut l, &tracer, ops, untraced_rate, traced_rate);
    Ok((m, l))
}
