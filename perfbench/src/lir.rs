//! `lir-pipeline`: the paper's compile–profile–recompile pipeline
//! (`pkru_safe::Pipeline`) over gated lir programs.
//!
//! The programs are the §5.2 Empty, ReadOne and Callback micros and
//! Fig. 3's `Work(n)`, each sized so that one `PkruApp::run` takes 1–3 ms.
//! They range from gate-bound (Empty: most of a run is the modeled
//! crossing cost) to dispatch-bound (`Work(200)`). This is the only
//! workload that runs the lir threaded interpreter and the `core` and
//! `analysis` passes; its set-up is the pipeline build itself.
//!
//! Every run's result is compared with the program's trusted twin (the
//! same program with no PKRU-Safe instrumentation, run once during
//! set-up), and its gate transition count with the expected count.

use std::time::Instant;

use bench::{micro_module, MicroKind};
use lir::{FaultPolicy, Interp, Machine, Module};
use pkru_safe::{passes, run_profiling, Annotations, Pipeline, PkruApp, ProfileInput};

use crate::calibrate::Speed;
use crate::stats::{median, percentile, ratio, Rng};
use crate::trace::{Tracer, SETUP};
use crate::{clock, rate, Budget, Latency, Layers, Measured};

/// Runs per round.
pub const OPS_PER_ROUND: usize = 600;

/// Runs between two reference blocks of the host-speed calibration.
pub const CALIBRATE_EVERY: usize = 20;

/// One program of the workload.
#[derive(Clone, Copy, Debug)]
pub struct Program {
    /// Display name.
    pub name: &'static str,
    /// The FFI body.
    pub kind: MicroKind,
    /// FFI calls per run.
    pub iters: i64,
    /// Gate transitions each FFI call makes (enter + exit, plus the
    /// trusted-entry pair of a callback).
    pub crossings_per_call: u64,
}

/// The programs, each sized to 1–3 ms per run.
pub const PROGRAMS: [Program; 4] = [
    Program { name: "empty", kind: MicroKind::Empty, iters: 2_000, crossings_per_call: 2 },
    Program { name: "read_one", kind: MicroKind::ReadOne, iters: 2_000, crossings_per_call: 2 },
    Program { name: "callback", kind: MicroKind::Callback, iters: 1_000, crossings_per_call: 4 },
    Program { name: "work200", kind: MicroKind::Work(200), iters: 400, crossings_per_call: 2 },
];

/// A built program: the enforcement build, its trusted twin, and the
/// twin's result.
pub struct Built {
    /// The enforcement-ready application.
    pub app: PkruApp,
    /// The uninstrumented twin.
    pub twin: Module,
    /// The twin's result: what every gated run must return.
    pub expected: Option<i64>,
    /// Gate transitions every gated run must make.
    pub transitions: u64,
}

fn pipeline(p: &Program) -> Pipeline {
    Pipeline::new(micro_module(p.kind, p.iters, true), Annotations::distrusting(["clib"]))
        .with_input(ProfileInput::new("main", &[]))
}

fn run_twin(twin: &Module) -> Result<Option<i64>, String> {
    let mut machine = Machine::split(FaultPolicy::Crash).map_err(|e| e.to_string())?;
    Interp::new(twin, &mut machine).run("main", &[]).map_err(|e| e.to_string())
}

/// Set-up: `Pipeline::build` of every program, plus its trusted twin.
pub fn setup() -> Result<Vec<Built>, String> {
    PROGRAMS
        .iter()
        .map(|p| {
            let app = pipeline(p).build().map_err(|e| format!("{}: {e}", p.name))?;
            let twin = micro_module(p.kind, p.iters, false);
            let expected = run_twin(&twin)?;
            Ok(Built { app, twin, expected, transitions: p.crossings_per_call * p.iters as u64 })
        })
        .collect()
}

/// The op stream of round `round`: a balanced, seeded order of programs.
pub fn op_stream(seed: u64, round: usize, len: usize) -> Vec<usize> {
    crate::stats::balanced_stream(&mut Rng::new(seed, round as u64), PROGRAMS.len(), len)
}

/// Whether a run returned the twin's result with the expected number of
/// transitions.
pub fn run_ok(built: &Built, result: &Result<Option<i64>, lir::Trap>, machine: &Machine) -> bool {
    matches!(result, Ok(v) if *v == built.expected)
        && machine.gates.transitions() == built.transitions
}

/// The untraced run.
pub fn measure(seed: u64, seconds: f64) -> Result<Measured, String> {
    let budget = Budget::new(seconds);
    let mut m = Measured::default();
    let mut latencies = Vec::new();
    let mut round = 0;
    while budget.next_round(round) {
        crate::begin_round();
        let ops = op_stream(seed, round, OPS_PER_ROUND);
        let mut speed = Speed::default();
        speed.sample();
        let setup0 = clock::thread_cpu();
        let built = setup()?;
        let setup_s = (clock::thread_cpu() - setup0).as_secs_f64();

        let cpu0 = clock::process_cpu();
        let wall0 = Instant::now();
        let mut round_ms = Vec::with_capacity(ops.len());
        for (i, &p) in ops.iter().enumerate() {
            if i % CALIBRATE_EVERY == 0 {
                speed.sample();
            }
            let start = Instant::now();
            let (result, machine) = built[p].app.run("main", &[]);
            round_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if !run_ok(&built[p], &result, &machine) {
                m.failed += 1;
            }
        }
        let cpu = (clock::process_cpu() - cpu0).saturating_sub(speed.spent());
        m.op_wall_s += wall0.elapsed().as_secs_f64();
        let f = m.scale_round(&speed, rate(ops.len() as u64, cpu), setup_s);
        latencies.extend(round_ms.iter().map(|ms| ms / f));
        m.ops += ops.len() as u64;
        m.attempted += ops.len() as u64;
        round += 1;
    }
    m.latency = Latency::of(&latencies);
    Ok(m)
}

/// The pipeline's stages, each timed on its own (the traced run only:
/// `Pipeline::build` runs them without seams).
fn traced_stages(tracer: &mut Tracer) -> Result<usize, String> {
    let mut shared = 0;
    for p in &PROGRAMS {
        let pl = pipeline(p);
        let err = |e: pkru_safe::PipelineError| format!("{}: {e}", p.name);
        tracer.span("core.lint", SETUP, || pl.lint()).map_err(err)?;
        tracer.span("core.static_analysis", SETUP, || pl.static_analysis()).map_err(err)?;
        let profile = tracer.span("core.profiling_run", SETUP, || {
            run_profiling(&pl.profiling_build()?, &[ProfileInput::new("main", &[])])
        });
        let profile = profile.map_err(err)?;
        shared += tracer
            .span("core.recompile", SETUP, || {
                let mut module = pl.annotated_build()?;
                Ok::<_, pkru_safe::PipelineError>(passes::apply_profile(&mut module, &profile))
            })
            .map_err(err)?;
    }
    Ok(shared)
}

/// The traced run.
pub fn trace(seed: u64, seconds: f64) -> Result<(Measured, Layers), String> {
    let mut m = measure(seed, seconds / 2.0)?;
    let untraced_rate = m.throughput_per_cpu_s();
    let budget = Budget::new(seconds / 2.0);
    let mut tracer = Tracer::default();
    let (mut instret, mut fused, mut transitions) = (0u64, 0u64, 0u64);
    let (mut tlb_hits, mut tlb_misses, mut tlb_flushes, mut pages, mut faults) = (0, 0, 0, 0, 0);
    let (mut trusted_allocs, mut untrusted_allocs) = (0u64, 0u64);
    let (mut gated_ns, mut twin_ns) = (0u64, 0u64);
    let mut decode_us = Vec::new();
    let mut run_cpu_ns = 0u64;
    let (mut crossing, mut read_ns) = (vec![], vec![]);
    let mut op_cpu = std::time::Duration::ZERO;
    let mut speed = Speed::default();
    let mut shared_sites = 0;
    let mut round = 0;
    while budget.next_round(round) {
        let ops = op_stream(seed, round, OPS_PER_ROUND);
        shared_sites = traced_stages(&mut tracer)?;
        let built = tracer.span("core.build", SETUP, setup)?;
        let cpu0 = clock::process_cpu();
        for (i, &p) in ops.iter().enumerate() {
            if i % CALIBRATE_EVERY == 0 {
                speed.sample();
            }
            let id = (round * OPS_PER_ROUND + i) as u64;
            tracer.begin("harness.op", id);
            let mut machine = tracer
                .span("lir.machine", id, || Machine::split(FaultPolicy::Crash))
                .map_err(|e| e.to_string())?;
            let module = &built[p].app.module;
            let mut interp = tracer.span("lir.decode", id, || Interp::new(module, &mut machine));
            decode_us.push(tracer.spans().last().expect("decode span").wall_ns() as f64 / 1e3);
            let result = tracer.span("lir.run", id, || interp.run("main", &[]));
            run_cpu_ns += tracer.spans().last().expect("run span").cpu_ns;
            drop(interp);
            gated_ns += tracer.end().cpu_ns;
            if !run_ok(&built[p], &result, &machine) {
                m.failed += 1;
            }
            machine.fold_tlb_stats();
            let space = machine.space.stats();
            instret += machine.instret;
            fused += machine.fused_ops;
            transitions += machine.gates.transitions();
            tlb_hits += space.tlb.hits;
            tlb_misses += space.tlb.misses;
            tlb_flushes += space.tlb.flushes;
            pages += space.demand_pages;
            faults += space.pkey_faults;
            let (t, u) = machine.alloc.alloc_counts();
            trusted_allocs += t;
            untrusted_allocs += u;
        }
        op_cpu += clock::process_cpu() - cpu0;
        m.attempted += ops.len() as u64;

        // The same runs of the trusted twins: the §5.2 overhead's
        // denominator.
        let twin0 = clock::thread_cpu();
        for &p in &ops {
            if run_twin(&built[p].twin)? != built[p].expected {
                m.failed += 1;
            }
        }
        twin_ns += (clock::thread_cpu() - twin0).as_nanos() as u64;

        let mut machine = Machine::split(FaultPolicy::Crash).map_err(|e| e.to_string())?;
        crossing.push(crate::crossing_ns(&mut machine)?);
        let addr = machine.alloc.alloc(64).map_err(|e| e.to_string())?;
        machine.mem_write(addr, 7).map_err(|e| e.to_string())?;
        read_ns.push(crate::mem_read_ns(&mut machine, addr)?);
        round += 1;
    }
    if let Err(e) = tracer.write_jsonl(&crate::spans_path("lir-pipeline", seed)) {
        eprintln!("spans not written: {e}");
    }

    let ops = (round * OPS_PER_ROUND) as u64;
    let per_op = |n: u64| ratio(n as f64, ops as f64);
    let per_round = |name| ratio(tracer.total_wall_ms(name), round as f64);
    let crossing = median(&crossing);
    let mut l = Layers::new();
    l.insert("gates.transitions_per_op", per_op(transitions));
    l.insert("gates.crossing_ns", crossing);
    l.insert("gates.model_share", ratio(crate::model_crossing_ns(), crossing));
    l.insert("gates.overhead_ratio", ratio(gated_ns as f64, twin_ns as f64));
    l.insert("lir.instret_per_op", per_op(instret));
    l.insert("lir.ns_per_instr", ratio(run_cpu_ns as f64, instret as f64));
    l.insert("lir.fused_ops_per_op", per_op(fused));
    l.insert("lir.decode_us", percentile(&decode_us, 0.5));
    l.insert("vmem.tlb_hit_rate", ratio(tlb_hits as f64, (tlb_hits + tlb_misses) as f64));
    l.insert("vmem.tlb_misses_per_op", per_op(tlb_misses));
    l.insert("vmem.tlb_flushes_per_op", per_op(tlb_flushes));
    l.insert("vmem.demand_pages_per_op", per_op(pages));
    l.insert("vmem.mem_read_ns", median(&read_ns));
    l.insert("mpk.pkey_faults", faults as f64);
    l.insert("pkalloc.trusted_allocs_per_op", per_op(trusted_allocs));
    l.insert("pkalloc.untrusted_allocs_per_op", per_op(untrusted_allocs));
    l.insert(
        "pkalloc.percent_untrusted",
        100.0 * ratio(untrusted_allocs as f64, (trusted_allocs + untrusted_allocs) as f64),
    );
    l.insert("core.lint_ms", per_round("core.lint"));
    l.insert("core.static_analysis_ms", per_round("core.static_analysis"));
    l.insert("core.profiling_run_ms", per_round("core.profiling_run"));
    l.insert("core.recompile_ms", per_round("core.recompile"));
    l.insert("provenance.shared_sites", shared_sites as f64);
    let traced_rate = rate(ops, op_cpu.saturating_sub(speed.spent())) * speed.factor();
    crate::trace_layers(&mut l, &tracer, ops, untraced_rate, traced_rate);
    Ok((m, l))
}
