//! Software-TLB ablation: what does the per-thread translation cache buy
//! on the vmem hot path?
//!
//! Every interpreted load/store used to take the shared space's RwLock
//! and walk the region BTreeMap. The per-thread TLB replaces that with an
//! epoch check plus a direct-mapped tag match, revalidating PKRU on every
//! access (hardware never caches rights-register state, §2). This target
//! measures the same workloads with the cache enabled and bypassed:
//!
//! - `dromaeo-dom-hot`: the memory-bound core of the Dromaeo DOM
//!   sub-suite (`dom-query`, `innerHTML`, `dom-reflow`) — per-byte DOM
//!   string traffic through the machine, where translation cost is most
//!   of the runtime. This is the phase the 2x headline claim is made on.
//! - `dromaeo`: the whole Dromaeo suite under `mpk` enforcement — the
//!   honest end-to-end number, diluted by compute-bound kernels
//!   (Amdahl: a crypto loop spends little of its time in `vmem`).
//!
//! Checksums are cross-checked between the two lanes, so a speedup here
//! cannot come from skipped work. The serving runtime always runs the
//! TLB; its hit rate is gated by `serve_tests`. `--json` emits one object
//! per phase for CI; `--test` shrinks the sweep to a smoke run.

use bench::{header, smoke_mode};
use servolite::BrowserConfig;
use workloads::{dromaeo, profile_for, run_benchmark_lane, Benchmark};

use pkru_provenance::json::JsonValue;
use pkru_provenance::Profile;

/// The memory-bound DOM benchmarks: their inner loops are per-byte
/// machine memory traffic (attribute/markup string marshalling), not
/// interpreter arithmetic, so they isolate the vmem hot path.
const DOM_HOT: [&str; 3] = ["dom-query", "innerHTML", "dom-reflow"];

/// One ablation row: the workload timed with the TLB on and off.
struct Phase {
    name: &'static str,
    /// Higher-is-better score (1/seconds) with the TLB enabled / disabled.
    score_on: f64,
    score_off: f64,
    hits: u64,
    misses: u64,
    flushes: u64,
}

impl Phase {
    fn speedup(&self) -> f64 {
        self.score_on / self.score_off
    }

    fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }

    fn json(&self) -> JsonValue {
        JsonValue::object([
            ("phase", self.name.into()),
            ("score_on", self.score_on.into()),
            ("score_off", self.score_off.into()),
            ("speedup", self.speedup().into()),
            ("tlb_hits", self.hits.into()),
            ("tlb_misses", self.misses.into()),
            ("tlb_flushes", self.flushes.into()),
            ("hit_rate", self.hit_rate().into()),
        ])
    }
}

/// Aggregate 1/seconds for `benchmarks` under `mpk` enforcement, TLB
/// toggled, interleaved per benchmark so drift cancels out of the ratio.
fn suite_phase(name: &'static str, benchmarks: &[Benchmark], profile: &Profile) -> Phase {
    let (mut on_seconds, mut off_seconds) = (0.0, 0.0);
    let (mut hits, mut misses, mut flushes) = (0u64, 0u64, 0u64);
    for benchmark in benchmarks {
        let lane = |tlb| run_benchmark_lane(BrowserConfig::Mpk, Some(profile), benchmark, tlb);
        let (on_row, tlb, _) = lane(true).expect("tlb-on run");
        let (off_row, _, _) = lane(false).expect("tlb-off run");
        assert_eq!(
            on_row.checksum, off_row.checksum,
            "{}: the TLB changed an observable result",
            benchmark.name
        );
        on_seconds += on_row.seconds;
        off_seconds += off_row.seconds;
        hits += tlb.hits;
        misses += tlb.misses;
        flushes += tlb.flushes;
    }
    Phase { name, score_on: 1.0 / on_seconds, score_off: 1.0 / off_seconds, hits, misses, flushes }
}

fn main() {
    let smoke = smoke_mode();
    let mut suite = dromaeo();
    if smoke {
        suite.truncate(3);
    }
    let hot: Vec<Benchmark> = dromaeo().into_iter().filter(|b| DOM_HOT.contains(&b.name)).collect();
    assert_eq!(hot.len(), DOM_HOT.len(), "hot-set benchmarks missing from the suite");
    // One profiling corpus covers both phases (set union over benchmarks).
    let mut corpus = dromaeo();
    if smoke {
        corpus = suite.iter().chain(hot.iter()).cloned().collect();
    }
    let profile = profile_for(&corpus).expect("profiling corpus");

    let phases =
        [suite_phase("dromaeo-dom-hot", &hot, &profile), suite_phase("dromaeo", &suite, &profile)];

    if std::env::args().any(|a| a == "--json") {
        println!("{}", JsonValue::object([("phases", phases.iter().map(Phase::json).collect())]));
    } else {
        header(
            "Software-TLB ablation (score: 1/seconds)",
            &["phase", "tlb on", "tlb off", "speedup", "hit rate", "flushes"],
        );
        for p in &phases {
            println!(
                "{}\t{:.1}\t{:.1}\t{:.2}x\t{:.2}%\t{}",
                p.name,
                p.score_on,
                p.score_off,
                p.speedup(),
                100.0 * p.hit_rate(),
                p.flushes
            );
        }
    }

    for p in &phases {
        // The working sets fit the cache by design; a low hit rate means
        // the epoch protocol is over-flushing, which is a bug, not noise.
        assert!(p.hit_rate() > 0.90, "{}: hit rate collapsed: {}", p.name, p.json());
    }
    if !smoke {
        // The headline claim: on memory-bound DOM traffic, removing the
        // per-access lock + BTreeMap walk is worth at least 2x.
        let hot = &phases[0];
        assert!(hot.speedup() >= 2.0, "dom-hot speedup below the 2x floor: {}", hot.json());
    }
}
