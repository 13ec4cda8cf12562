//! Table 1: per-suite mean overhead, transition counts, and %M_U.
//!
//! Paper reference (mean overhead alloc / mpk, transitions, %M_U):
//! Dromaeo 5.89% / 11.55%, 1.78e9, 4.13% · JetStream2 −1.48% / 0.61%,
//! 7.0e6, 42.41% · Kraken −0.11% / −0.41%, 5.8e6, 48.59% · Octane
//! −2.25% / 3.28%, 4.3e5, 16.57%.

use bench::header;
use pkru_provenance::json::JsonValue;
use servolite::BrowserConfig;
use workloads::{dromaeo, jetstream2, kraken, octane, profile_for, run_matrix, SuiteSummary};

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let mut json_reports = Vec::new();
    if !json {
        header(
            "Table 1: Servo mean benchmark overhead and statistics",
            &["suite", "alloc", "mpk", "transitions(mpk)", "%M_U"],
        );
    }
    let suites: Vec<(&str, Vec<workloads::Benchmark>)> = vec![
        ("Dromaeo", dromaeo()),
        ("JetStream2", jetstream2()),
        ("Kraken", kraken()),
        ("Octane", octane()),
    ];
    for (name, benchmarks) in suites {
        let profile = profile_for(&benchmarks).expect("profiling corpus");
        let reports = run_matrix(
            &[
                (BrowserConfig::Base, None),
                (BrowserConfig::Alloc, Some(&profile)),
                (BrowserConfig::Mpk, Some(&profile)),
            ],
            &benchmarks,
        )
        .expect("matrix");
        let [base, alloc, mpk]: [workloads::ConfigReport; 3] =
            reports.try_into().expect("three reports");
        workloads::runner::verify_checksums(&base, &alloc).expect("alloc determinism");
        workloads::runner::verify_checksums(&base, &mpk).expect("mpk determinism");
        if json {
            for (label, report) in [("base", &base), ("alloc", &alloc), ("mpk", &mpk)] {
                json_reports.push(report.to_json(&format!("{name}/{label}")));
            }
            continue;
        }
        let alloc_summary = SuiteSummary::compare(&base, &alloc);
        let mpk_summary = SuiteSummary::compare(&base, &mpk);
        println!(
            "{name}\t{:+.2}%\t{:+.2}%\t{}\t{:.2}%",
            alloc_summary.mean_overhead_pct,
            mpk_summary.mean_overhead_pct,
            mpk.total_transitions(),
            mpk.mean_percent_mu(),
        );
    }
    if json {
        println!("{}", JsonValue::Array(json_reports));
    }
}
