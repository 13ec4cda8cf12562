//! The paper harness: the suite matrices, the tables derived from them,
//! and the micro-benchmark programs.
//!
//! The `paper` bench target runs each suite once under the
//! `base`/`alloc`/`mpk` configurations ([`SuiteRun`]) and derives Tables
//! 1–3 and Figures 4–7 from those runs. Absolute numbers differ from the
//! paper (the substrate is a simulator); the *shape* — who wins, by roughly
//! what factor, where the crossovers fall — is the reproduction target (see
//! EXPERIMENTS.md).

use std::time::Instant;

use lir::{FaultPolicy, Interp, Machine, Module};
use pkru_provenance::json::JsonValue;
use pkru_provenance::Profile;
use pkru_safe::{Annotations, Pipeline, ProfileInput};
use servolite::BrowserConfig;
use workloads::runner::verify_checksums;
use workloads::{profile_for, run_matrix, Benchmark, ConfigReport, SuiteSummary, WorkloadError};

/// One paper table: a title, its column names, and rows of cells
/// formatted as the printer shows them.
#[derive(Debug)]
pub struct Table {
    /// The title, with the paper's reference values.
    pub title: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table.
    pub fn new(title: &str, columns: &[&str]) -> Table {
        let columns = columns.iter().map(|c| c.to_string()).collect();
        Table { title: title.to_string(), columns, rows: Vec::new() }
    }

    /// `{title, columns, rows}`.
    pub fn to_json(&self) -> JsonValue {
        let strings = |cells: &[String]| cells.iter().map(String::as_str).collect::<JsonValue>();
        JsonValue::object([
            ("title", self.title.as_str().into()),
            ("columns", strings(&self.columns)),
            ("rows", self.rows.iter().map(|row| strings(row)).collect()),
        ])
    }
}

/// Geometric mean of a slice.
fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One suite measured under every configuration: interleaved runs of the
/// same benchmarks, so row `i` of each report is the same benchmark, and
/// every report's checksums equal base's.
#[derive(Debug)]
pub struct SuiteRun {
    /// Display name ("Dromaeo"); lowercased in JSON labels.
    name: &'static str,
    /// The profile the `alloc` and `mpk` builds enforce.
    pub profile: Profile,
    /// Single heap, no gates.
    base: ConfigReport,
    /// Split allocator only.
    alloc: ConfigReport,
    /// Full enforcement.
    mpk: ConfigReport,
    /// Both pools from `M_T`, gates off: the allocator ablation.
    unified: Option<ConfigReport>,
}

impl SuiteRun {
    /// Profiles `benchmarks`, then runs them once under base, alloc and mpk
    /// (and `AllocUnified` when `unified` is set). Fails with
    /// [`WorkloadError::ChecksumMismatch`] unless every configuration
    /// reproduces the base checksums.
    pub fn run(
        name: &'static str,
        benchmarks: &[Benchmark],
        unified: bool,
    ) -> Result<SuiteRun, WorkloadError> {
        let profile = profile_for(benchmarks)?;
        let configs = [
            (BrowserConfig::Base, None),
            (BrowserConfig::Alloc, Some(&profile)),
            (BrowserConfig::Mpk, Some(&profile)),
            (BrowserConfig::AllocUnified, Some(&profile)),
        ];
        let measured = if unified { &configs[..] } else { &configs[..3] };
        let mut reports = run_matrix(measured, benchmarks)?.into_iter();
        let mut next = || reports.next().expect("one report per configuration");
        let (base, alloc, mpk) = (next(), next(), next());
        let run = SuiteRun { name, base, alloc, mpk, unified: reports.next(), profile };
        for (_, report) in run.configs().skip(1) {
            verify_checksums(&run.base, report)?;
        }
        Ok(run)
    }

    /// Each report under its label: `base`, `alloc`, `mpk`, then
    /// `alloc_unified` if measured.
    fn configs(&self) -> impl Iterator<Item = (&'static str, &ConfigReport)> {
        [("base", &self.base), ("alloc", &self.alloc), ("mpk", &self.mpk)]
            .into_iter()
            .chain(self.unified.as_ref().map(|u| ("alloc_unified", u)))
    }

    /// Every report as `ConfigReport::to_json("<suite>/<config>")`.
    pub fn to_json(&self) -> impl Iterator<Item = JsonValue> + '_ {
        let suite = self.name.to_lowercase();
        self.configs().map(move |(label, report)| report.to_json(&format!("{suite}/{label}")))
    }

    /// The alloc and mpk reports against base.
    fn summaries(&self) -> [SuiteSummary; 2] {
        [&self.alloc, &self.mpk].map(|report| SuiteSummary::compare(&self.base, report))
    }
}

/// A row of Tables 1 and 2: `label`, the alloc and mpk mean overheads
/// against base, the summed mpk transitions and the mean mpk `%M_U`. Also
/// returns the two overheads.
fn summary_row(label: &str, [base, alloc, mpk]: [&ConfigReport; 3]) -> (Vec<String>, f64, f64) {
    let alloc_pct = SuiteSummary::compare(base, alloc).mean_overhead_pct;
    let mpk_pct = SuiteSummary::compare(base, mpk).mean_overhead_pct;
    let (a, m) = (format!("{alloc_pct:+.2}%"), format!("{mpk_pct:+.2}%"));
    let (t, mu) = (mpk.total_transitions().to_string(), format!("{:.2}%", mpk.mean_percent_mu()));
    (vec![label.into(), a, m, t, mu], alloc_pct, mpk_pct)
}

/// Table 1: each suite's mean overhead, mpk transitions and `%M_U`.
pub fn table1(suites: &[SuiteRun]) -> Table {
    let mut table = Table::new(
        "Table 1: Servo mean benchmark overhead and statistics",
        &["suite", "alloc", "mpk", "transitions(mpk)", "%M_U"],
    );
    for run in suites {
        table.rows.push(summary_row(run.name, [&run.base, &run.alloc, &run.mpk]).0);
    }
    table
}

/// Table 2: Table 1's columns per Dromaeo sub-suite, closed by the mean of
/// the sub-suites' overheads.
pub fn table2(dromaeo: &SuiteRun) -> Table {
    let mut table = Table::new(
        "Table 2: Dromaeo sub-suite overhead and statistics",
        &["sub-suite", "alloc", "mpk", "transitions(mpk)", "%M_U"],
    );
    let subs = ["dom", "v8", "dromaeo", "sunspider", "jslib"];
    let (mut mean_alloc, mut mean_mpk) = (0.0, 0.0);
    for sub in subs {
        let [base, alloc, mpk] = [&dromaeo.base, &dromaeo.alloc, &dromaeo.mpk].map(|report| {
            ConfigReport { rows: report.rows.iter().filter(|r| r.sub == sub).cloned().collect() }
        });
        let (row, alloc, mpk) = summary_row(sub, [&base, &alloc, &mpk]);
        table.rows.push(row);
        mean_alloc += alloc / subs.len() as f64;
        mean_mpk += mpk / subs.len() as f64;
    }
    let (a, m) = (format!("{mean_alloc:+.2}%"), format!("{mean_mpk:+.2}%"));
    table.rows.push(vec!["mean".into(), a, m, "-".into(), "-".into()]);
    table
}

/// Figure 4: Dromaeo's normalized runtime per benchmark, by name.
pub fn fig4(dromaeo: &SuiteRun) -> Table {
    let mut table = Table::new(
        "Figure 4: Dromaeo normalized runtime per benchmark",
        &["benchmark", "sub", "alloc", "mpk"],
    );
    let [alloc, mpk] = dromaeo.summaries();
    for (&(name, sub, a), &(_, _, m)) in alloc.normalized.iter().zip(&mpk.normalized) {
        table.rows.push(vec![name.into(), sub.into(), format!("{a:.3}"), format!("{m:.3}")]);
    }
    table.rows.sort();
    table
}

/// Figures 5–7: a suite's normalized runtime and mpk transitions per
/// benchmark, closed by the mpk geomean.
pub fn per_benchmark(title: &str, run: &SuiteRun) -> Table {
    let mut table = Table::new(title, &["benchmark", "alloc", "mpk", "transitions(mpk)"]);
    let [alloc, mpk] = run.summaries();
    let rows = alloc.normalized.iter().zip(&mpk.normalized).zip(&run.mpk.rows);
    for ((&(name, _, a), &(_, _, m)), row) in rows {
        let (a, m, t) = (format!("{a:.3}"), format!("{m:.3}"), row.transitions.to_string());
        table.rows.push(vec![name.into(), a, m, t]);
    }
    table.rows.push(vec!["geomean(mpk)".into(), String::new(), format!("{:.3}", mpk.geomean)]);
    table
}

/// Table 3: JetStream2 overall scores, each the geomean of per-benchmark
/// scores (a constant over runtime, so bigger is better), and the alloc
/// and mpk overheads against base.
pub fn table3(jetstream2: &SuiteRun) -> Table {
    let mut table = Table::new(
        "Table 3: JetStream2 overall scores (geomean; paper: 60.31 / 61.20 / 59.94)",
        &["config", "score", "overhead vs base"],
    );
    let score = |report: &ConfigReport| {
        geomean(&report.rows.iter().map(|r| 1.0 / r.seconds.max(1e-9)).collect::<Vec<_>>())
    };
    let base = score(&jetstream2.base);
    table.rows.push(vec!["base".into(), format!("{base:.2}"), "-".into()]);
    for (label, report) in [("alloc", &jetstream2.alloc), ("mpk", &jetstream2.mpk)] {
        let s = score(report);
        let overhead = format!("{:+.2}%", (base / s - 1.0) * 100.0);
        table.rows.push(vec![label.into(), format!("{s:.2}"), overhead]);
    }
    table
}

/// The §5.3 allocator ablation: split against unified pools, on a suite
/// run with `unified` set.
pub fn alloc_ablation(run: &SuiteRun) -> Table {
    let title = format!(
        "Allocator ablation on {} (paper: unified pools ~ no detectable overhead)",
        run.name
    );
    let mut table = Table::new(&title, &["configuration", "mean overhead", "geomean"]);
    let unified = run.unified.as_ref().expect("suite run with unified pools");
    for (label, report) in [("alloc (split pools)", &run.alloc), ("alloc (unified pools)", unified)]
    {
        let s = SuiteSummary::compare(&run.base, report);
        let (mean, geo) = (format!("{:+.2}%", s.mean_overhead_pct), format!("{:.3}", s.geomean));
        table.rows.push(vec![label.into(), mean, geo]);
    }
    table
}

/// Which micro-benchmark FFI body to generate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MicroKind {
    /// The FFI function has no body (maximum per-call gate overhead).
    Empty,
    /// The FFI function performs a single heap read.
    ReadOne,
    /// The FFI function performs a callback into the trusted compartment.
    Callback,
    /// The FFI function runs a counted loop (Figure 3's work knob).
    Work(u32),
}

/// Builds the micro-benchmark program: a trusted `main` loop calling an
/// FFI function `iters` times.
///
/// When `untrusted` is set, the FFI function lives in the distrusted
/// `clib` crate, so the PKRU-Safe pipeline wraps it in call gates; the
/// trusted twin is the identical program without the annotation (§5.2:
/// "Each workload is duplicated in a trusted and an untrusted version").
pub fn micro_module(kind: MicroKind, iters: i64, gated: bool) -> Module {
    let mut text = String::new();
    match kind {
        MicroKind::Empty => {
            text.push_str("fn @clib::work(1) {\nbb0:\n  ret 0\n}\n");
        }
        MicroKind::ReadOne => {
            text.push_str("fn @clib::work(1) {\nbb0:\n  %1 = load %0, 0\n  ret %1\n}\n");
        }
        MicroKind::Callback => {
            // The callback target is an exported trusted function; the
            // pipeline gives it a trusted-entry gate. The trusted twin
            // drops the export so it carries no gates at all (§5.2). The
            // callback body does a little work: the paper's numbers imply
            // its callback workload is ~3x the empty call (Empty 8.55x at
            // two crossings vs. Callback 6.17x at four), and this loop
            // reproduces that proportion.
            let body = "bb0:\n  %0 = const 0\n  %1 = const 0\n  br bb1\nbb1:\n  %2 = lt %1, 4\n  brif %2, bb2, bb3\nbb2:\n  %0 = add %0, %1\n  %1 = add %1, 1\n  br bb1\nbb3:\n  ret %0\n";
            let export = if gated { "export " } else { "" };
            text.push_str(&format!("{export}fn @app::cb(0) {{\n{body}}}\n"));
            text.push_str("fn @clib::work(1) {\nbb0:\n  %1 = icall %0()\n  ret %1\n}\n");
        }
        MicroKind::Work(n) => {
            text.push_str(&format!(
                "fn @clib::work(1) {{\nbb0:\n  %1 = const 0\n  %2 = const 0\n  br bb1\nbb1:\n  %3 = lt %2, {n}\n  brif %3, bb2, bb3\nbb2:\n  %1 = add %1, %2\n  %2 = add %2, 1\n  br bb1\nbb3:\n  ret %1\n}}\n",
            ));
        }
    }
    // main: allocate one shared object, then the call loop.
    let arg_setup = match kind {
        MicroKind::Callback => "  %0 = addr @app::cb\n".to_string(),
        _ => "  %0 = alloc 64\n  store %0, 0, 5\n".to_string(),
    };
    text.push_str(&format!(
        "fn @main(0) {{\nbb0:\n{arg_setup}  %1 = const 0\n  br bb1\nbb1:\n  %2 = lt %1, {iters}\n  brif %2, bb2, bb3\nbb2:\n  %3 = call @clib::work(%0)\n  %1 = add %1, 1\n  br bb1\nbb3:\n  ret %3\n}}\n",
    ));
    lir::parse_module(&text).expect("micro module parses")
}

/// The micro module with `clib` distrusted, profiled and enforced by the
/// PKRU-Safe pipeline.
pub fn gated_micro(kind: MicroKind, iters: i64) -> Module {
    Pipeline::new(micro_module(kind, iters, true), Annotations::distrusting(["clib"]))
        .with_input(ProfileInput::new("main", &[]))
        .build()
        .expect("pipeline builds")
        .module
}

/// Runs a micro module untrusted (through the full pipeline) and trusted
/// (no annotations), returning (gated_seconds, plain_seconds) per call.
///
/// Each flavor is measured three times and the minimum kept (noise
/// control, as in the workload runner).
pub fn measure_micro(kind: MicroKind, iters: i64) -> (f64, f64) {
    let best_of_3 = |module: &Module| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut machine = Machine::split(FaultPolicy::Crash).expect("machine");
            let start = Instant::now();
            Interp::new(module, &mut machine).run("main", &[]).expect("micro run");
            best = best.min(start.elapsed().as_secs_f64());
        }
        best / iters as f64
    };
    // The trusted twin is the identical program built with NO PKRU-Safe
    // instrumentation at all (§5.2's trusted workload).
    let gated = best_of_3(&gated_micro(kind, iters));
    (gated, best_of_3(&micro_module(kind, iters, false)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::RunResult;

    #[test]
    fn micro_modules_run_in_both_flavors() {
        for kind in [MicroKind::Empty, MicroKind::ReadOne, MicroKind::Callback, MicroKind::Work(10)]
        {
            let (gated, plain) = measure_micro(kind, 200);
            assert!(gated > 0.0 && plain > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn geomean_math() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    /// A hand-built suite: per benchmark its name, sub-suite, base/alloc/mpk
    /// seconds, mpk transitions and mpk `%M_U`.
    fn suite(
        name: &'static str,
        rows: &[(&'static str, &'static str, [f64; 3], u64, f64)],
    ) -> SuiteRun {
        let report = |config: usize| ConfigReport {
            rows: rows
                .iter()
                .map(|&(name, sub, seconds, transitions, percent_mu)| RunResult {
                    name,
                    suite: "test",
                    sub,
                    seconds: seconds[config],
                    iterations: 1,
                    transitions: if config == 2 { transitions } else { 0 },
                    percent_mu: if config == 0 { 0.0 } else { percent_mu },
                    checksum: 1.0,
                })
                .collect(),
        };
        SuiteRun {
            name,
            profile: Profile::new(),
            base: report(0),
            alloc: report(1),
            mpk: report(2),
            unified: None,
        }
    }

    fn cells(row: &[&str]) -> Vec<String> {
        row.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn derived_tables_compute_the_paper_columns() {
        let dromaeo = suite(
            "Dromaeo",
            &[
                ("d1", "dom", [1.0, 1.1, 1.5], 100, 50.0),
                ("d2", "dom", [2.0, 2.0, 3.0], 60, 30.0),
                ("v", "v8", [1.0, 0.9, 1.0], 1, 10.0),
                ("x", "dromaeo", [1.0, 1.0, 1.0], 2, 20.0),
                ("s", "sunspider", [1.0, 1.0, 1.0], 3, 20.0),
                ("j", "jslib", [1.0, 1.2, 2.0], 40, 40.0),
            ],
        );
        // Table 1: arithmetic mean of (config / base − 1) over all rows.
        assert_eq!(
            table1(std::slice::from_ref(&dromaeo)).rows,
            [cells(&["Dromaeo", "+3.33%", "+33.33%", "206", "28.33%"])]
        );
        // Table 2: per-sub-suite means and transition sums, then the mean
        // of the five sub-suite means.
        assert_eq!(
            table2(&dromaeo).rows,
            [
                cells(&["dom", "+5.00%", "+50.00%", "160", "40.00%"]),
                cells(&["v8", "-10.00%", "+0.00%", "1", "10.00%"]),
                cells(&["dromaeo", "+0.00%", "+0.00%", "2", "20.00%"]),
                cells(&["sunspider", "+0.00%", "+0.00%", "3", "20.00%"]),
                cells(&["jslib", "+20.00%", "+100.00%", "40", "40.00%"]),
                cells(&["mean", "+3.00%", "+30.00%", "-", "-"]),
            ]
        );
        // Table 3: a faster configuration scores higher, so its overhead
        // against base is negative; a slower one's is positive.
        let jetstream2 = suite("JetStream2", &[("a", "", [1.0, 0.5, 2.0], 0, 0.0)]);
        assert_eq!(
            table3(&jetstream2).rows,
            [
                cells(&["base", "1.00", "-"]),
                cells(&["alloc", "2.00", "-50.00%"]),
                cells(&["mpk", "0.50", "+100.00%"]),
            ]
        );
        // Figures 4–7: per-benchmark ratios. Figure 4 sorts by name; the
        // others keep suite order and close with the mpk geomean.
        let kraken = suite(
            "Kraken",
            &[("b", "x", [1.0, 2.0, 4.0], 7, 0.0), ("a", "y", [2.0, 2.0, 2.0], 9, 0.0)],
        );
        assert_eq!(
            fig4(&kraken).rows,
            [cells(&["a", "y", "1.000", "1.000"]), cells(&["b", "x", "2.000", "4.000"])]
        );
        assert_eq!(
            per_benchmark("Figure", &kraken).rows,
            [
                cells(&["b", "2.000", "4.000", "7"]),
                cells(&["a", "1.000", "1.000", "9"]),
                cells(&["geomean(mpk)", "", "2.000"]),
            ]
        );
    }
}
