//! Integration tests for the `pkru-safe-build` CLI.

use std::path::PathBuf;
use std::process::Command;

use pkru_provenance::json::{self, JsonValue};

fn cli() -> Command {
    // Cargo puts integration-test binaries in target/<profile>/deps; the
    // CLI lives one level up.
    let mut path = std::env::current_exe().expect("test exe");
    path.pop();
    if path.ends_with("deps") {
        path.pop();
    }
    path.push("pkru-safe-build");
    Command::new(path)
}

fn demo_program(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("demo.lir");
    std::fs::write(
        &path,
        r#"
untrusted fn @clib::bump(1) {
bb0:
  %1 = load %0, 0
  %2 = add %1, 1
  store %0, 0, %2
  ret %2
}
fn @main(0) {
bb0:
  %0 = alloc 16
  store %0, 0, 1336
  %1 = call @clib::bump(%0)
  print %1
  ret %1
}
"#,
    )
    .expect("write demo");
    path
}

/// Parses a `--json` report from stdout.
fn report(stdout: &str) -> JsonValue {
    json::parse(stdout.trim()).unwrap_or_else(|e| panic!("{e} in {stdout}"))
}

/// An unsigned counter of a parsed report.
fn counter(value: &JsonValue, key: &str) -> u64 {
    value.get(key).and_then(JsonValue::as_u64).unwrap_or_else(|| panic!("no counter {key}"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pkru_safe_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn check_accepts_valid_and_rejects_invalid() {
    let dir = temp_dir("check");
    let program = demo_program(&dir);
    let ok = cli().arg("check").arg(&program).output().expect("run");
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));

    let bad = dir.join("bad.lir");
    std::fs::write(&bad, "fn @main(0) {\nbb0:\n  br bb9\n}").expect("write");
    let fail = cli().arg("check").arg(&bad).output().expect("run");
    assert!(!fail.status.success());
    assert!(String::from_utf8_lossy(&fail.stderr).contains("bb9"));
}

#[test]
fn profile_then_enforce_round_trip() {
    let dir = temp_dir("roundtrip");
    let program = demo_program(&dir);
    let profile_path = dir.join("profile.json");

    let profile = cli()
        .args(["profile"])
        .arg(&program)
        .args(["-o"])
        .arg(&profile_path)
        .output()
        .expect("run");
    assert!(profile.status.success(), "{}", String::from_utf8_lossy(&profile.stderr));
    assert!(String::from_utf8_lossy(&profile.stderr).contains("1 shared site"));

    let enforce = cli()
        .args(["enforce"])
        .arg(&program)
        .args(["-p"])
        .arg(&profile_path)
        .output()
        .expect("run");
    assert!(enforce.status.success(), "{}", String::from_utf8_lossy(&enforce.stderr));
    let stdout = String::from_utf8_lossy(&enforce.stdout);
    assert!(stdout.contains("1337"), "{stdout}");
}

#[test]
fn enforce_without_profile_crashes_with_pkey_violation() {
    let dir = temp_dir("noprofile");
    let program = demo_program(&dir);
    let out = cli().args(["enforce"]).arg(&program).output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pkey violation"), "{stderr}");
}

#[test]
fn full_run_reports_census() {
    let dir = temp_dir("run");
    let program = demo_program(&dir);
    let out = cli().args(["run"]).arg(&program).output().expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 of 1 allocation sites"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("1337"));
}

#[test]
fn analyze_covers_dynamic_profile_on_example() {
    // The checked-in example program has a hot path (exercised by the
    // corpus, arg 0) and a cold path; the static analysis must report a
    // superset of the dynamic profile and the cross-check must pass.
    let dir = temp_dir("analyze");
    let program = PathBuf::from("examples/profiling_pipeline.lir");
    let dynamic = dir.join("dynamic.json");
    let static_out = dir.join("static.json");

    let profile = cli()
        .args(["profile"])
        .arg(&program)
        .args(["--arg", "0", "-o"])
        .arg(&dynamic)
        .output()
        .expect("run");
    assert!(profile.status.success(), "{}", String::from_utf8_lossy(&profile.stderr));
    assert!(String::from_utf8_lossy(&profile.stderr).contains("1 shared site"));

    let analyze = cli()
        .args(["analyze"])
        .arg(&program)
        .args(["-o"])
        .arg(&static_out)
        .args(["-p"])
        .arg(&dynamic)
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&analyze.stderr);
    assert!(analyze.status.success(), "{stderr}");
    assert!(stderr.contains("static: 2 of 2 site(s) may escape"), "{stderr}");
    assert!(stderr.contains("soundness: dynamic profile is covered"), "{stderr}");

    // The emitted file is in the profile schema: enforce accepts it.
    let enforce = cli()
        .args(["enforce"])
        .arg(&program)
        .args(["--arg", "1", "-p"])
        .arg(&static_out)
        .output()
        .expect("run");
    assert!(enforce.status.success(), "{}", String::from_utf8_lossy(&enforce.stderr));
}

#[test]
fn lint_flags_unbalanced_gate() {
    let dir = temp_dir("lint_unbalanced");
    let bad = dir.join("unbalanced.lir");
    std::fs::write(&bad, "fn @main(0) {\nbb0:\n  gate.enter.untrusted\n  ret\n}").expect("write");
    let out = cli().args(["lint"]).arg(&bad).output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("return at index 1 with open gate region"), "{stderr}");
}

#[test]
fn lint_flags_trusted_alloc_in_untrusted_region() {
    let dir = temp_dir("lint_talloc");
    let bad = dir.join("talloc.lir");
    std::fs::write(
        &bad,
        "untrusted fn @u::f(0) {\nbb0:\n  ret\n}\n\
         fn @main(0) {\nbb0:\n  gate.enter.untrusted\n  %0 = call @u::f()\n  \
         %1 = alloc 8\n  gate.exit.untrusted\n  ret %1\n}",
    )
    .expect("write");
    let out = cli().args(["lint"]).arg(&bad).output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("trusted-pool alloc") && stderr.contains("untrusted compartment"),
        "{stderr}"
    );
}

#[test]
fn lint_accepts_stage1_output() {
    let dir = temp_dir("lint_stage1");
    let program = demo_program(&dir);
    let out = cli().args(["lint"]).arg(&program).arg("--stage1").output().expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("gate integrity verified"));
}

#[test]
fn scan_accepts_clean_module_raw_and_stage1() {
    let dir = temp_dir("scan_clean");
    let program = demo_program(&dir);
    let out = cli().args(["scan"]).arg(&program).output().expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("adversarial scan clean"));

    // The compiler's own gated output is sanctioned by shape.
    let out = cli().args(["scan"]).arg(&program).arg("--stage1").output().expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // --json on a clean module: an empty findings array, exit 0.
    let out = cli().args(["scan"]).arg(&program).arg("--json").output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("{\"findings\":[]}"), "{out:?}");
}

#[test]
fn scan_rejects_corpus_attack_with_machine_readable_finding() {
    // The checked-in indirect-gadget attack: exit non-zero, and the JSON
    // report names the gadget, its code, and the witness path through the
    // untrusted dispatcher.
    let program = PathBuf::from("tests/corpus/indirect_gadget.lir");
    let out = cli().args(["scan"]).arg(&program).args(["--json"]).output().expect("run");
    assert!(!out.status.success(), "a corpus attack must fail the scan");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"code\":\"SCAN001\"",
        "\"func\":\"callback_table_entry\"",
        "\"witness\":[\"evil::dispatch\",\"callback_table_entry\"]",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    assert!(String::from_utf8_lossy(&out.stderr).contains("adversarial scan found"), "{out:?}");

    // Without --json the findings render human-readable on stderr.
    let out = cli().args(["scan"]).arg(&program).output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("SCAN001") && stderr.contains("unsanctioned"), "{stderr}");
}

#[test]
fn redteam_vets_generated_attacks_and_reports_json() {
    let out =
        cli().args(["redteam", "--samples", "18", "--seed", "7", "--json"]).output().expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in ["\"samples\":18", "\"uncaught\":0", "\"kind\":\"gadget-reuse\"", "\"caught\":\""] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = cli().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command \"frobnicate\""), "{stderr}");
    assert!(stderr.contains("commands:"), "usage missing: {stderr}");
    assert!(stderr.contains("serve"), "usage must list serve: {stderr}");

    // Same rejection even when an input file follows the bogus command.
    let dir = temp_dir("unknown");
    let program = demo_program(&dir);
    let out = cli().arg("frobnicate").arg(&program).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"), "{out:?}");
}

#[test]
fn missing_command_fails_with_usage() {
    let out = cli().output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing command"), "{stderr}");
    assert!(stderr.contains("commands:"), "{stderr}");
}

#[test]
fn serve_happy_path_reports_clean_run() {
    let out = cli().args(["serve", "--workers", "2", "--requests", "24"]).output().expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("served 24 request(s) on 2 worker(s)"), "{stdout}");
    assert!(stdout.contains("worker 0:"), "{stdout}");
    assert!(stdout.contains("worker 1:"), "{stdout}");
}

#[test]
fn serve_json_emits_machine_readable_report() {
    let out = cli()
        .args(["serve", "--workers", "1", "--requests", "8", "--seed", "9", "--json"])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"workers\":1",
        "\"requests_served\":8",
        "\"seed\":9",
        "\"checksum_mismatches\":0",
        "\"unexpected_faults\":0",
        "\"per_worker\":[",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn serve_dispatch_ablation_flags_gate_the_report_schema() {
    // Workers always run both interpreter fast paths and the software
    // TLB, so every report carries their counters, and the serve-side
    // ablation flags are gone.
    let base = ["serve", "--workers", "1", "--requests", "8", "--seed", "9", "--json"];
    let out = cli().args(base).output().expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\"schema\":2,"), "{stdout}");
    let r = report(&stdout);
    assert!(counter(&r, "dispatch_ic_hits") > 0, "the inline caches must serve hits: {stdout}");
    assert!(counter(&r, "superinstructions_fused") > 0, "no fused bulk ops: {stdout}");
    counter(&r, "dispatch_ic_misses");

    for flag in ["--no-threaded", "--no-ic", "--no-tlb"] {
        let out = cli().args(base).arg(flag).output().expect("run");
        assert!(!out.status.success(), "{flag} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown serve option"), "{stderr}");
    }
}

#[test]
fn serve_tenants_reports_per_tenant_breakdown() {
    // Multi-tenant mode with more tenants than hardware keys: the run
    // must stay clean, and both the human and JSON reports carry the
    // per-tenant breakdown and the key-multiplexing counters.
    let out = cli()
        .args(["serve", "--workers", "2", "--requests", "48", "--tenants", "20", "--json"])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"tenants\":20",
        "\"tenant_policy\":\"enforce\"",
        "\"tenant_keys\":{\"binds\":",
        "\"evictions\":",
        "\"revocations\":",
        "\"deferred_reuses\":",
        "\"bind_retries\":",
        "\"per_tenant\":[{\"tenant\":0,",
        "\"requests_served\":48",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    // One bind per request plus one per recorded retry: barrier stalls
    // cost retries, never unaccounted binds.
    let r = report(&stdout);
    let binds = counter(r.get("tenant_keys").expect("tenant_keys"), "binds");
    let tenants = r.get("per_tenant").and_then(JsonValue::as_array).expect("per_tenant");
    assert_eq!(tenants.len(), 20);
    let retries: u64 = tenants.iter().map(|t| counter(t, "bind_retries")).sum();
    assert_eq!(binds, 48 + retries, "binds must equal requests + retries: {stdout}");
}

#[test]
fn serve_tenant_quarantine_isolates_one_tenant() {
    // A tenant-scoped quarantine: the injected violation condemns one
    // tenant, the worker survives (no restart), and the run exits clean
    // because rejection is not an error.
    let out = cli()
        .args([
            "serve",
            "--workers",
            "1",
            "--requests",
            "32",
            "--tenants",
            "4",
            "--tenant-policy",
            "quarantine:1",
            "--fault",
            "worker=0,kind=mpk,at=2",
            "--json",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"tenant_policy\":\"quarantine:1\"",
        "\"quarantined\":true",
        "\"workers_restarted\":0",
        "\"requests_served\":32",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn serve_fault_injection_is_reported_and_dirties_the_run() {
    // An injected MPK violation completes the run (every request served)
    // but must exit dirty, with the injection visible in the JSON.
    let out = cli()
        .args([
            "serve",
            "--workers",
            "2",
            "--requests",
            "16",
            "--json",
            "--fault",
            "worker=1,kind=mpk,at=3",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success(), "an injected MPK fault must exit dirty");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in ["\"requests_served\":16", "\"unexpected_faults\":1", "\"injected_faults\":1"] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    assert!(String::from_utf8_lossy(&out.stderr).contains("unclean serve run"), "{out:?}");
}

#[test]
fn serve_audit_policy_survives_the_injection_and_exits_clean() {
    // Same injection as the dirty-run test above, but under `audit` the
    // violation is single-stepped and logged: every request is served,
    // the run stays clean, and the CLI exits 0.
    let out = cli()
        .args([
            "serve",
            "--workers",
            "1",
            "--requests",
            "8",
            "--json",
            "--fault",
            "worker=0,kind=mpk,at=3",
            "--mpk-policy",
            "audit",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"mpk_policy\":\"audit\"",
        "\"requests_served\":8",
        "\"requests_abandoned\":0",
        "\"unexpected_faults\":0",
        "\"injected_faults\":1",
        "\"violations_audited\":1",
        "\"audit_log\":[{\"worker\":0,",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn serve_rejects_a_bad_mpk_policy() {
    let out = cli().args(["serve", "--mpk-policy", "lenient"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --mpk-policy"), "{out:?}");

    let out = cli().args(["serve", "--mpk-policy", "quarantine:0"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --mpk-policy"), "{out:?}");
}

#[test]
fn serve_pool_death_emits_partial_report_instead_of_hanging() {
    // Permanently broken single worker: the old runtime hung here; now
    // the CLI must exit with the pool-death diagnostic AND the partial
    // JSON report.
    let out = cli()
        .args([
            "serve",
            "--workers",
            "1",
            "--requests",
            "48",
            "--queue",
            "4",
            "--json",
            "--fault",
            "worker=0,kind=setup",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in ["\"requests_served\":0", "\"requests_abandoned\":48", "\"injected_faults\":"] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pool died"), "{stderr}");
    assert!(stderr.contains("48 request(s) abandoned"), "{stderr}");
}

#[test]
fn serve_rejects_bad_flags() {
    let out = cli().args(["serve", "--workers"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workers needs a number"), "{out:?}");

    let out = cli().args(["serve", "--bogus"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown serve option"), "{out:?}");

    let out = cli().args(["serve", "--workers", "0"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least one worker"), "{out:?}");

    let out = cli().args(["serve", "--fault", "worker=0,kind=frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown fault kind"), "{out:?}");

    // A fault aimed past the pool is a config error, caught before serving.
    let out = cli()
        .args(["serve", "--workers", "2", "--fault", "worker=5,kind=panic,at=1"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("fault targets worker 5"), "{out:?}");
}

#[test]
fn annotate_emits_gated_module() {
    let dir = temp_dir("annotate");
    let program = demo_program(&dir);
    let out = cli().args(["annotate"]).arg(&program).output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("gate.enter.untrusted"), "{stdout}");
    assert!(stdout.contains("__pkru_gate_clib::bump"), "{stdout}");
}

#[test]
fn serve_overload_flags_shed_and_expose_the_new_counters() {
    let out = cli()
        .args([
            "serve",
            "--workers",
            "1",
            "--requests",
            "48",
            "--queue",
            "4",
            "--seed",
            "17",
            "--deadline-ticks",
            "3",
            "--admission",
            "0",
            "--latency",
            "--json",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"deadline_ticks\":3",
        "\"admission_wait_ms\":0",
        "\"requests_expired\":",
        "\"requests_rejected\":",
        "\"latency\":{\"count\":",
        "\"p99_ms\":",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    // The extended accounting invariant, via the JSON the user sees.
    let field = |name: &str| -> u64 {
        stdout
            .split(&format!("\"{name}\":"))
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("missing {name} in {stdout}"))
    };
    assert_eq!(
        field("requests_served")
            + field("requests_abandoned")
            + field("requests_expired")
            + field("requests_rejected"),
        48,
        "{stdout}"
    );
}

#[test]
fn serve_stall_fault_is_survived_by_the_watchdog() {
    let out = cli()
        .args([
            "serve",
            "--workers",
            "1",
            "--requests",
            "10",
            "--fault",
            "worker=0,kind=stall,at=2",
            "--stall-timeout",
            "400",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("served 10 request(s)"), "{stdout}");
    assert!(stdout.contains("watchdog: 1 stall(s) condemned (deadline 400 ms)"), "{stdout}");
    assert!(stdout.contains("1 restart(s), 1 retried"), "{stdout}");
}

#[test]
fn serve_without_overload_flags_keeps_the_report_schema_unchanged() {
    // Schema 2, end to end through the CLI: a flag-free serve renders
    // every overload-era key too, each reading as "off".
    let out = cli()
        .args(["serve", "--workers", "2", "--requests", "24", "--seed", "3", "--json"])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for present in [
        "\"deadline_ticks\":0,",
        "\"admission_wait_ms\":null,",
        "\"tenant_rate\":null,",
        "\"requests_expired\":0,",
        "\"requests_rejected\":0,",
        "\"workers_stalled\":0,",
        "\"latency\":null,",
        "\"requeued\":0}",
        "\"per_tenant\":[],",
    ] {
        assert!(stdout.contains(present), "missing {present} in {stdout}");
    }
}
