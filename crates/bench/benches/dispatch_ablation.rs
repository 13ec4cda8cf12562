//! Dispatch ablation: what do the interpreter fast paths buy?
//!
//! PR 9 made the *memory system* fast (software TLB); this target prices
//! the *interpreter* work itself, in three phases:
//!
//! - `lir-dispatch`: a dispatch-bound lir hot loop (fused compare+branch
//!   back edge, a call per iteration) through the threaded decode-once
//!   lane vs the legacy per-instruction match loop. This is the phase
//!   the 2x headline claim is made on — no memory traffic dilutes it.
//! - `dromaeo-dom-hot`: the memory-bound Dromaeo DOM trio under `mpk`
//!   enforcement, full fast paths vs all-legacy. Gains here come from
//!   fused bulk string superinstructions plus host-field inline caches;
//!   the phase also pins the ≥90% IC hit-rate floor.
//! - `octane-props`: the property-heavy Octane subset (splay trees,
//!   Richards task objects, raytrace vectors), run full / no-IC /
//!   legacy so the inline-cache contribution is priced separately from
//!   the fused superinstructions.
//!
//! Checksums are cross-checked across every lane (a speedup must never
//! come from skipped work), `--json` emits one object per phase for CI
//! (`BENCH_dispatch.json`), and `--test` shrinks the sweep to a smoke
//! run.

use std::time::Instant;

use bench::{header, smoke_mode};
use lir::{parse_module, FaultPolicy, Interp, Machine, Module};
use servolite::{BrowserConfig, DispatchOptions};
use workloads::{dromaeo, octane, profile_for, run_benchmark_dispatch, Benchmark};

use pkru_provenance::json::JsonValue;
use pkru_provenance::Profile;

/// The memory-bound DOM trio (same hot set as `tlb_ablation`).
const DOM_HOT: [&str; 3] = ["dom-query", "innerHTML", "dom-reflow"];

/// The property-bound Octane subset: object-graph kernels whose inner
/// loops are member reads/writes, not arithmetic.
const OCTANE_PROPS: [&str; 4] = ["Splay", "Richards", "DeltaBlue", "RayTrace"];

/// One ablation row: the workload under full fast paths, inline caches
/// off, and everything legacy.
struct Phase {
    name: &'static str,
    /// Higher-is-better score (1/seconds) per lane.
    score_full: f64,
    score_noic: f64,
    score_legacy: f64,
    ic_hits: u64,
    ic_misses: u64,
    fused_ops: u64,
}

impl Phase {
    fn speedup(&self) -> f64 {
        self.score_full / self.score_legacy
    }

    fn ic_speedup(&self) -> f64 {
        self.score_full / self.score_noic
    }

    fn ic_hit_rate(&self) -> f64 {
        if self.ic_hits + self.ic_misses == 0 {
            0.0
        } else {
            self.ic_hits as f64 / (self.ic_hits + self.ic_misses) as f64
        }
    }

    fn json(&self) -> JsonValue {
        JsonValue::object([
            ("phase", self.name.into()),
            ("score_full", self.score_full.into()),
            ("score_noic", self.score_noic.into()),
            ("score_legacy", self.score_legacy.into()),
            ("speedup", self.speedup().into()),
            ("ic_speedup", self.ic_speedup().into()),
            ("ic_hits", self.ic_hits.into()),
            ("ic_misses", self.ic_misses.into()),
            ("ic_hit_rate", self.ic_hit_rate().into()),
            ("fused_ops", self.fused_ops.into()),
        ])
    }
}

/// The dispatch-bound lir kernel: a counted loop over a data-dependent
/// branch diamond and two leaf calls per iteration, with a fusable
/// compare+branch back edge — no heap loads or stores, so interpreter
/// dispatch (instruction fetch, block chasing, callee resolution, frame
/// setup) is the entire runtime. This is the traffic the threaded lane
/// exists for: the legacy loop re-resolves each callee by name and heap-
/// allocates each frame, while the decode-once stream jumps pre-computed
/// targets and reuses arena frames.
fn lir_kernel() -> Module {
    parse_module(
        "fn @mix(2) {\nbb0:\n  %2 = add %0, %1\n  %3 = xor %2, %1\n  ret %3\n}\n\
         fn @inc(1) {\nbb0:\n  %1 = add %0, 1\n  ret %1\n}\n\
         fn @work(1) {\nbb0:\n  %1 = const 0\n  %2 = const 0\n  br bb1\n\
         bb1:\n  %3 = and %2, 1\n  brif %3, bb2, bb3\n\
         bb2:\n  %4 = call @mix(%1, %2)\n  br bb4\n\
         bb3:\n  %4 = call @inc(%1)\n  br bb4\n\
         bb4:\n  %5 = call @mix(%4, %2)\n  %1 = and %5, 65535\n\
         %2 = add %2, 1\n  %6 = lt %2, %0\n  brif %6, bb1, bb5\n\
         bb5:\n  ret %1\n}",
    )
    .expect("kernel parses")
}

/// Best-of-k 1/seconds for the lir kernel through one dispatch lane.
fn lir_phase(smoke: bool) -> Phase {
    let module = lir_kernel();
    let iters: i64 = if smoke { 20_000 } else { 400_000 };
    let repeats = if smoke { 1 } else { 5 };
    let run = |threaded: bool| -> (f64, i64, u64) {
        let mut machine = Machine::split(FaultPolicy::Crash).unwrap();
        let start = Instant::now();
        let result = Interp::with_dispatch(&module, &mut machine, threaded)
            .run("work", &[iters])
            .expect("kernel runs");
        let seconds = start.elapsed().as_secs_f64();
        if !threaded {
            assert_eq!(machine.fused_ops, 0, "legacy lane must not fuse");
        }
        (seconds, result.expect("kernel returns"), machine.fused_ops)
    };
    // Interleave the lanes (threaded, legacy, threaded, ...) so clock
    // drift lands on both sides of the ratio, then keep the fastest of
    // each (the standard minimum-of-k estimator).
    let (mut best_full, mut best_legacy) = (f64::INFINITY, f64::INFINITY);
    let (mut sum_full, mut sum_legacy, mut fused_ops) = (0, 0, 0);
    for _ in 0..repeats {
        let (s, sum, fused) = run(true);
        best_full = best_full.min(s);
        sum_full = sum;
        fused_ops = fused;
        let (s, sum, _) = run(false);
        best_legacy = best_legacy.min(s);
        sum_legacy = sum;
    }
    let (score_full, score_legacy) = (1.0 / best_full, 1.0 / best_legacy);
    assert_eq!(sum_full, sum_legacy, "dispatch lanes changed the kernel result");
    Phase {
        name: "lir-dispatch",
        score_full,
        // The lir lane has no inline caches; the no-IC lane is the full
        // lane by definition.
        score_noic: score_full,
        score_legacy,
        ic_hits: 0,
        ic_misses: 0,
        fused_ops,
    }
}

/// Aggregate 1/seconds for `benchmarks` under `mpk` enforcement across
/// the three dispatch lanes, interleaved per benchmark so drift cancels.
fn suite_phase(name: &'static str, benchmarks: &[Benchmark], profile: &Profile) -> Phase {
    let full = DispatchOptions { threaded: true, ic: true };
    let noic = DispatchOptions { threaded: true, ic: false };
    let legacy = DispatchOptions { threaded: false, ic: false };
    let (mut s_full, mut s_noic, mut s_legacy) = (0.0, 0.0, 0.0);
    let (mut hits, mut misses, mut fused) = (0u64, 0u64, 0u64);
    for benchmark in benchmarks {
        let (full_row, d) =
            run_benchmark_dispatch(BrowserConfig::Mpk, Some(profile), benchmark, full)
                .expect("full run");
        let (noic_row, nd) =
            run_benchmark_dispatch(BrowserConfig::Mpk, Some(profile), benchmark, noic)
                .expect("no-ic run");
        let (legacy_row, ld) =
            run_benchmark_dispatch(BrowserConfig::Mpk, Some(profile), benchmark, legacy)
                .expect("legacy run");
        assert_eq!(
            full_row.checksum, legacy_row.checksum,
            "{}: the fast paths changed an observable result",
            benchmark.name
        );
        assert_eq!(
            full_row.checksum, noic_row.checksum,
            "{}: the IC lane changed an observable result",
            benchmark.name
        );
        assert_eq!(nd.ic_hits, 0, "{}: no-IC lane served hits", benchmark.name);
        assert_eq!(ld.fused_ops, 0, "{}: legacy lane fused", benchmark.name);
        s_full += full_row.seconds;
        s_noic += noic_row.seconds;
        s_legacy += legacy_row.seconds;
        hits += d.ic_hits;
        misses += d.ic_misses;
        fused += d.fused_ops;
    }
    Phase {
        name,
        score_full: 1.0 / s_full,
        score_noic: 1.0 / s_noic,
        score_legacy: 1.0 / s_legacy,
        ic_hits: hits,
        ic_misses: misses,
        fused_ops: fused,
    }
}

fn main() {
    let smoke = smoke_mode();
    let hot: Vec<Benchmark> = dromaeo().into_iter().filter(|b| DOM_HOT.contains(&b.name)).collect();
    assert_eq!(hot.len(), DOM_HOT.len(), "hot-set benchmarks missing from the suite");
    let mut props: Vec<Benchmark> =
        octane().into_iter().filter(|b| OCTANE_PROPS.contains(&b.name)).collect();
    assert_eq!(props.len(), OCTANE_PROPS.len(), "property benchmarks missing from the suite");
    if smoke {
        props.truncate(1);
    }
    // One profiling corpus covers both browser phases.
    let corpus: Vec<Benchmark> = hot.iter().chain(props.iter()).cloned().collect();
    let profile = profile_for(&corpus).expect("profiling corpus");

    let phases = [
        lir_phase(smoke),
        suite_phase("dromaeo-dom-hot", &hot, &profile),
        suite_phase("octane-props", &props, &profile),
    ];

    if std::env::args().any(|a| a == "--json") {
        println!("{}", JsonValue::object([("phases", phases.iter().map(Phase::json).collect())]));
    } else {
        header(
            "Dispatch ablation (score: 1/seconds)",
            &["phase", "full", "no-ic", "legacy", "speedup", "ic speedup", "ic hit rate"],
        );
        for p in &phases {
            println!(
                "{}\t{:.2}\t{:.2}\t{:.2}\t{:.2}x\t{:.2}x\t{:.2}%",
                p.name,
                p.score_full,
                p.score_noic,
                p.score_legacy,
                p.speedup(),
                p.ic_speedup(),
                100.0 * p.ic_hit_rate(),
            );
        }
    }

    // The browser phases cache DOM host fields and engine object
    // properties; their working sets are monomorphic by design, so a low
    // hit rate means over-invalidation (an epoch protocol bug).
    for p in &phases[1..] {
        assert!(p.ic_hit_rate() > 0.90, "{}: IC hit rate collapsed: {}", p.name, p.json());
        assert!(p.fused_ops > 0, "{}: bulk superinstructions never fired: {}", p.name, p.json());
    }
    // The headline claim: on a dispatch-bound instruction stream,
    // decode-once threading is worth at least 2x over per-instruction
    // match dispatch. Smoke runs measure a 20x smaller kernel on shared
    // CI hardware, so they gate a relaxed floor.
    let lir = &phases[0];
    let floor = if smoke { 1.4 } else { 2.0 };
    assert!(
        lir.speedup() >= floor,
        "lir-dispatch speedup below the {floor}x floor: {}",
        lir.json()
    );
    if !smoke {
        // The browser suites are gate- and vmem-bound (Amdahl), so the
        // dispatch fast paths buy little there and wall-clock noise can
        // eat what they do buy; the floor only rejects a real
        // regression, not run-to-run jitter.
        for p in &phases[1..] {
            assert!(p.speedup() >= 0.7, "{}: fast paths regressed: {}", p.name, p.json());
        }
    }
}
