//! The paper's evaluation in one pass: the §5.2 micro-benchmarks, Figure
//! 3, Tables 1–3, Figures 4–7, the §5.3 site census, the §5.4 exploit
//! (artifact E3), and the allocator, gate-verification and callback-depth
//! ablations. Each suite is profiled and run once (Kraken also under
//! `AllocUnified`, the allocator ablation); every suite table derives from
//! those four matrices. `--json` prints one document holding the raw
//! measurements and every table; otherwise each table prints as a header
//! plus TSV.

use std::error::Error;
use std::time::{Duration, Instant};

use bench::{alloc_ablation, fig4, per_benchmark, table1, table2, table3};
use bench::{gated_micro, measure_micro, MicroKind, SuiteRun, Table};
use lir::{FaultPolicy, Interp, Machine};
use pkru_gates::DEFAULT_CROSSING_COST;
use pkru_provenance::json::JsonValue;
use pkru_provenance::Profile;
use servolite::{Browser, BrowserConfig, SiteRegistry, SECRET_ADDR, SITE_COUNT};
use workloads::{dromaeo, jetstream2, kraken, micro_page, octane};

fn main() -> Result<(), Box<dyn Error>> {
    let suites = [
        SuiteRun::run("Dromaeo", &dromaeo(), false)?,
        SuiteRun::run("JetStream2", &jetstream2(), false)?,
        SuiteRun::run("Kraken", &kraken(), true)?,
        SuiteRun::run("Octane", &octane(), false)?,
    ];
    let [dromaeo_run, jetstream2_run, kraken_run, octane_run] = &suites;

    let mut tables = Vec::new();
    let micro = micros(&mut tables);
    let fig3 = fig3(&mut tables);
    tables.extend([
        table1(&suites),
        table2(dromaeo_run),
        fig4(dromaeo_run),
        per_benchmark(
            "Figure 5: Kraken normalized runtime (paper: near 1.0 everywhere)",
            kraken_run,
        ),
        per_benchmark("Figure 6: Octane normalized runtime (paper: mean +3.28% mpk)", octane_run),
        per_benchmark("Figure 7: JetStream2 normalized runtime per benchmark", jetstream2_run),
        table3(jetstream2_run),
    ]);
    let census = census(dromaeo_run, kraken_run, &mut tables);
    let e3 = e3(&mut tables);
    tables.extend([alloc_ablation(kraken_run), gate_ablation(), callback_depth()]);

    if std::env::args().any(|a| a == "--json") {
        let doc = JsonValue::object([
            ("reports", suites.iter().flat_map(SuiteRun::to_json).collect()),
            ("micro", micro),
            ("fig3", fig3),
            ("census", census),
            ("e3", e3),
            ("tables", tables.iter().map(Table::to_json).collect()),
        ]);
        println!("{doc}");
        return Ok(());
    }
    for table in &tables {
        println!("\n=== {} ===\n{}", table.title, table.columns.join("\t"));
        for row in &table.rows {
            println!("{}", row.join("\t"));
        }
    }
    Ok(())
}

/// Raw measurements: one JSON object per row, keyed by `keys`.
fn records<const N: usize>(keys: [&str; N], rows: Vec<[JsonValue; N]>) -> JsonValue {
    rows.into_iter().map(|row| JsonValue::object(keys.into_iter().zip(row))).collect()
}

/// §5.2: per-call gate overhead of the Empty / Read-One / Callback micros.
fn micros(tables: &mut Vec<Table>) -> JsonValue {
    let mut table = Table::new(
        "Micro-benchmarks: per-call gate overhead (paper: Empty 8.55x, Read-One 7.61x, Callback 6.17x)",
        &["workload", "gated ns/call", "plain ns/call", "overhead"],
    );
    let mut raw = Vec::new();
    for (name, kind) in [
        ("Empty", MicroKind::Empty),
        ("Read-One", MicroKind::ReadOne),
        ("Callback", MicroKind::Callback),
    ] {
        let (gated, plain) = measure_micro(kind, 200_000);
        let (gated_ns, plain_ns) = (gated * 1e9, plain * 1e9);
        let (g, p) = (format!("{gated_ns:.1}"), format!("{plain_ns:.1}"));
        table.rows.push(vec![name.into(), g, p, format!("{:.2}x", gated / plain)]);
        raw.push([name.into(), gated_ns.into(), plain_ns.into()]);
    }
    tables.push(table);
    records(["workload", "gated_ns", "plain_ns"], raw)
}

/// Figure 3: gated over plain runtime as the work per crossing grows.
fn fig3(tables: &mut Vec<Table>) -> JsonValue {
    let mut table = Table::new(
        "Figure 3: normalized runtime vs. loop count (paper: ~8x at 0 falling toward 1x by 200)",
        &["loop_count", "normalized_runtime"],
    );
    let mut raw = Vec::new();
    for loop_count in [0u32, 5, 10, 20, 40, 60, 80, 100, 125, 150, 175, 200] {
        let kind = if loop_count == 0 { MicroKind::Empty } else { MicroKind::Work(loop_count) };
        let (gated, plain) = measure_micro(kind, 60_000);
        table.rows.push(vec![loop_count.to_string(), format!("{:.3}", gated / plain)]);
        raw.push([loop_count.into(), (gated * 1e9).into(), (plain * 1e9).into()]);
    }
    tables.push(table);
    records(["loop_count", "gated_ns", "plain_ns"], raw)
}

/// §5.3: the sites the Dromaeo+Kraken profiling corpus moves to `M_U`,
/// and the per-site allocation counts of one mpk run of Dromaeo's first
/// `dom` benchmark.
fn census(dromaeo_run: &SuiteRun, kraken_run: &SuiteRun, tables: &mut Vec<Table>) -> JsonValue {
    // Profiles merge by set union, so this is the corpus's own profile.
    let mut profile = dromaeo_run.profile.clone();
    profile.merge(&kraken_run.profile);
    let shared = SiteRegistry::from_profile(&profile).shared_sites();
    let mut table =
        Table::new("Site census (paper: 274 of 12088 sites moved, 2.26%)", &["metric", "value"]);
    table.rows = vec![
        vec!["total browser allocation sites".into(), SITE_COUNT.to_string()],
        vec!["sites moved to M_U".into(), shared.to_string()],
        vec!["percent moved".into(), format!("{:.2}%", 100.0 * shared as f64 / SITE_COUNT as f64)],
        vec!["profile faults observed".into(), profile.faults_observed.to_string()],
    ];
    tables.push(table);

    let dom = dromaeo().into_iter().find(|b| b.sub == "dom").expect("a dom benchmark");
    let mut browser = browser(BrowserConfig::Mpk, Some(&profile), &dom.source);
    browser.call_script("run", &[]).expect("dom benchmark");
    let allocs = format!("allocs (one mpk {} run)", dom.name);
    let mut table = Table::new("Per-site bindings after profiling", &["site", "pool", &allocs]);
    let mut sites = Vec::new();
    for (site, domain, count) in browser.census() {
        let pool = format!("{domain:?}");
        table.rows.push(vec![site.name().into(), pool.clone(), count.to_string()]);
        sites.push([site.name().into(), pool.into(), count.into()]);
    }
    tables.push(table);
    JsonValue::object([
        ("total_sites", SITE_COUNT.into()),
        ("shared_sites", shared.into()),
        ("faults_observed", profile.faults_observed.into()),
        ("benchmark", dom.name.into()),
        ("sites", records(["site", "pool", "allocs"], sites)),
    ])
}

/// §5.4 / artifact E3: the CVE-2019-11707-analog arbitrary write against
/// the secret, on the vulnerable browser and on the PKRU-Safe one.
fn e3(tables: &mut Vec<Table>) -> JsonValue {
    let exploit = format!(
        r#"
// CVE-2019-11707 analog: type-confusion-derived arbitrary write.
var a = [1.1, 2.2];
a.length = 1e15;                  // corrupt the length header (the bug)
var base = debugAddrOf(a);        // pointer-leak step
var idx = ({SECRET_ADDR} - base) / 8;
a[idx] = 1337;                    // arbitrary write at the fixed address
return a[idx];
"#
    );
    // The PKRU-Safe browser enforces the profile of a benign corpus.
    let benign = "var n = document.getElementById('para'); var s = n.tagName + n.innerText();";
    let profile = browser(BrowserConfig::Profiling, None, benign).into_profile();

    let mut table = Table::new(
        "Security experiment E3 (paper §5.4)",
        &["configuration", "secret before", "outcome", "secret after"],
    );
    let mut raw = Vec::new();
    for (label, config, profile) in [
        ("servo-exploitable", BrowserConfig::Base, None),
        ("servo-pkru", BrowserConfig::Mpk, Some(&profile)),
    ] {
        let mut browser = Browser::with_profile(config, profile).expect("browser");
        browser.load_html(micro_page()).expect("page");
        let before = browser.secret_value().expect("secret");
        let outcome = match browser.eval_script(&exploit) {
            Ok(_) => "exploit write landed".to_string(),
            Err(e) if e.is_pkey_violation() => "MPK violation, execution terminated".to_string(),
            Err(e) => format!("unexpected failure: {e}"),
        };
        let after = browser.secret_value().expect("secret");
        if profile.is_some() {
            assert_eq!(after, 42.0, "the secret must survive under PKRU-Safe");
        }
        table.rows.push(vec![label.into(), before.to_string(), outcome.clone(), after.to_string()]);
        raw.push([label.into(), before.into(), outcome.into(), after.into()]);
    }
    tables.push(table);
    records(["configuration", "secret_before", "outcome", "secret_after"], raw)
}

/// The Empty micro with the gates' PKRU readback on and off, at the
/// calibrated crossing cost and at the raw software model.
fn gate_ablation() -> Table {
    let iters = 200_000i64;
    let module = gated_micro(MicroKind::Empty, iters);
    let mut table = Table::new(
        "Gate ablation: checked vs. unchecked call gates (Empty workload)",
        &["configuration", "ns/call", "transitions"],
    );
    for (label, verify, cost) in [
        ("checked gates (calibrated)", true, DEFAULT_CROSSING_COST),
        ("unchecked gates (calibrated)", false, DEFAULT_CROSSING_COST),
        ("checked gates (raw software model)", true, Duration::ZERO),
    ] {
        let mut machine = Machine::split(FaultPolicy::Crash).expect("machine");
        machine.gates.set_verify(verify);
        machine.gates.set_crossing_cost(cost);
        let start = Instant::now();
        Interp::new(&module, &mut machine).run("main", &[]).expect("run");
        let ns = start.elapsed().as_secs_f64() / iters as f64 * 1e9;
        let transitions = machine.gates.transitions().to_string();
        table.rows.push(vec![label.into(), format!("{ns:.1}"), transitions]);
    }
    table
}

/// §5.3's dom mechanism in isolation: an event listener that re-dispatches
/// to the next depth, so one outer dispatch builds a 2·depth-deep
/// compartment stack.
fn callback_depth() -> Table {
    let mut table = Table::new(
        "Nested callback depth vs. cost (per outer dispatch)",
        &["depth", "ns/dispatch", "transitions/dispatch", "max stack depth"],
    );
    for depth in [1u32, 2, 4, 8, 12, 16] {
        let script = format!(
            r#"
var el = document.getElementById('target');
var DEPTH = {depth};
function arm(level) {{
  el.addEventListener('ev' + level, function() {{
    if (level < DEPTH) el.dispatchEvent('ev' + (level + 1));
  }});
}}
for (var i = 1; i <= DEPTH; i++) arm(i);
function run() {{
  el.dispatchEvent('ev1');
  return DEPTH;
}}
"#
        );
        let mut profiling = browser(BrowserConfig::Profiling, None, &script);
        profiling.call_script("run", &[]).expect("profiling run");
        let profile = profiling.into_profile();
        let mut b = browser(BrowserConfig::Mpk, Some(&profile), &script);
        b.call_script("run", &[]).expect("warmup");
        b.machine.gates.reset_transitions();
        let dispatches = 400u32;
        let start = Instant::now();
        for _ in 0..dispatches {
            b.call_script("run", &[]).expect("dispatch");
        }
        let ns = start.elapsed().as_secs_f64() / f64::from(dispatches) * 1e9;
        let transitions = b.stats().transitions as f64 / f64::from(dispatches);
        let max_depth = b.machine.gates.max_depth();
        let (n, t) = (format!("{ns:.0}"), format!("{transitions:.1}"));
        table.rows.push(vec![depth.to_string(), n, t, max_depth.to_string()]);
    }
    table
}

/// A browser on the micro page with `script` evaluated.
fn browser(config: BrowserConfig, profile: Option<&Profile>, script: &str) -> Browser {
    let mut browser = Browser::with_profile(config, profile).expect("browser");
    browser.load_html(micro_page()).expect("page");
    browser.eval_script(script).expect("setup script");
    browser
}
