//! The interpreter fast paths on real workloads: the Dromaeo DOM-hot
//! trio and the property-bound Octane subset, run once each under `mpk`
//! enforcement with a profiled build.
//!
//! Each phase must serve more than 90% of its property lookups from the
//! inline caches and more than 90% of its memory accesses from the
//! software TLB (the working sets are monomorphic and fit the caches by
//! design, so a lower rate means an epoch protocol over-invalidates), and
//! must take fused page runs. Each benchmark's checksum is pinned to the
//! value the uncached, unfused lanes gave at commit 57b24c1 (and, for the
//! DOM trio, the TLB-off lane at b47ceec), when those lanes still existed:
//! a fast path may skip layout work, never change a result.

use pkru_vmem::TlbStats;
use servolite::BrowserConfig;
use workloads::{dromaeo, octane, profile_for, run_benchmark_lane, Benchmark};

/// The memory-bound DOM trio: per-byte DOM string traffic through the
/// machine, where translation cost is most of the runtime. Checksums at
/// one iteration per block.
const DOM_HOT: [(&str, f64); 3] =
    [("dom-query", 1080.0), ("innerHTML", 180.0), ("dom-reflow", 9520.0)];

/// The property-bound Octane subset: object-graph kernels whose inner
/// loops are member reads and writes, not arithmetic.
const OCTANE_PROPS: [(&str, f64); 4] = [
    ("Splay", 500.0),
    ("Richards", 2_245_624.0),
    ("DeltaBlue", 1_684_468.0),
    ("RayTrace", 42_134.0),
];

/// The benchmarks of `suite` named in `pinned`, shrunk to one call per
/// timed block, each with its pinned checksum.
fn pick(suite: Vec<Benchmark>, pinned: &[(&str, f64)]) -> Vec<(Benchmark, f64)> {
    let picked: Vec<(Benchmark, f64)> = suite
        .into_iter()
        .filter_map(|mut b| {
            let &(_, checksum) = pinned.iter().find(|(name, _)| *name == b.name)?;
            b.iterations = 1;
            Some((b, checksum))
        })
        .collect();
    assert_eq!(picked.len(), pinned.len(), "benchmarks missing from the suite");
    picked
}

#[test]
fn fast_paths_hit_and_keep_checksums_on_real_workloads() {
    let hot = pick(dromaeo(), &DOM_HOT);
    let props = pick(octane(), &OCTANE_PROPS);
    // One profiling corpus covers both phases.
    let corpus: Vec<Benchmark> = hot.iter().chain(&props).map(|(b, _)| b.clone()).collect();
    let profile = profile_for(&corpus).expect("profiling corpus");
    for (phase, benchmarks) in [("dromaeo-dom-hot", &hot), ("octane-props", &props)] {
        let (mut hits, mut misses, mut fused_ops) = (0u64, 0u64, 0u64);
        let mut tlb = TlbStats::default();
        for (benchmark, checksum) in benchmarks {
            let (row, run_tlb, dispatch) =
                run_benchmark_lane(BrowserConfig::Mpk, Some(&profile), benchmark)
                    .expect("benchmark runs");
            assert_eq!(
                row.checksum, *checksum,
                "{}: the fast paths changed a result",
                benchmark.name
            );
            hits += dispatch.ic_hits;
            misses += dispatch.ic_misses;
            fused_ops += dispatch.fused_ops;
            tlb.hits += run_tlb.hits;
            tlb.misses += run_tlb.misses;
        }
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        assert!(hit_rate > 0.90, "{phase}: IC hit rate collapsed: {hits} hits, {misses} misses");
        assert!(tlb.hit_rate() > 0.90, "{phase}: TLB hit rate collapsed: {tlb:?}");
        assert!(fused_ops > 0, "{phase}: bulk superinstructions never fired");
    }
}
