//! `pkru-safe-build`: the command-line pipeline driver.
//!
//! The drop-in-toolchain face of PKRU-Safe (§4: "a drop-in replacement for
//! a normal Rust toolchain"): point it at a textual LIR program, name the
//! crates you distrust, and it runs the four-stage pipeline — or any
//! single stage, with the profile as a JSON file between stages, exactly
//! like the artifact's three-step walkthrough (E1).
//!
//! ```text
//! pkru-safe-build run       app.lir --distrust clib            # full pipeline + run
//! pkru-safe-build annotate  app.lir --distrust clib            # dump the gated build
//! pkru-safe-build profile   app.lir --distrust clib -o p.json  # stages 2–3
//! pkru-safe-build enforce   app.lir --distrust clib -p p.json  # stage 4 + run
//! pkru-safe-build analyze   app.lir --distrust clib -o s.json  # static escape analysis
//! pkru-safe-build lint      app.lir --stage1                   # gate-integrity lint
//! pkru-safe-build scan      app.lir --json                     # adversarial scan
//! pkru-safe-build check     app.lir                            # parse + verify only
//! pkru-safe-build serve     --workers 4 --requests 200         # worker-pool runtime
//! pkru-safe-build redteam   --samples 200 --seed 7             # attack generator
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use lir::{parse_module, verify_module, Module};
use pkru_provenance::json::JsonValue;
use pkru_provenance::Profile;
use pkru_safe::{run_profiling, Annotations, Pipeline, ProfileInput};
use pkru_server::{serve, Fault, MpkPolicy, ServeConfig, ServeError, TrafficShape};

struct Options {
    command: String,
    input: PathBuf,
    distrust: Vec<String>,
    profile_path: Option<PathBuf>,
    output: Option<PathBuf>,
    entry: String,
    args: Vec<i64>,
    stage1: bool,
    json: bool,
}

const USAGE: &str = "\
pkru-safe-build <command> <input.lir> [options]

commands:
  check      parse and verify the module
  annotate   run stage 1 (gates + site IDs) and print the module
  profile    run stages 2-3 and write the profile (-o profile.json)
  enforce    run stage 4 with a profile (-p profile.json) and execute
  analyze    run stage 1, then the static escape analysis; emits a
             profile-schema JSON of every site that may reach U
             (-o file), and cross-checks a dynamic profile (-p file)
  lint       gate-integrity lint (balanced gates, bracketed calls,
             no gates/hooks in U, no trusted allocs under U rights);
             lints the module as-given, or stage-1 output with --stage1
  scan       adversarial reachability scan (Garmr-style): unsanctioned
             gate gadgets, sys.* outside the allow-list or reachable
             under untrusted rights, trusted pointers published while a
             gate is open; scans the module as-given, or stage-1 output
             with --stage1; non-zero exit on any finding (--json for a
             machine-readable report with reachability witnesses)
  run        run the full pipeline (profile with --entry) and execute
  redteam    generate seeded Garmr-shaped attack modules (no input
             file) and vet each one: every attack must be rejected by
             the scan or stopped at run time (syscall filter, MPK
             fault, quarantine breaker); non-zero exit if any escapes
             (--samples <n>, --seed <n>, --json)
  serve      run the multi-threaded serving runtime (no input file):
             profile the catalog, then serve it from a worker pool with
             per-thread PKRU; fails unless the run is clean

serve options:
  --workers <n>          worker threads (default 4)
  --requests <n>         requests to generate (default 200)
  --queue <n>            queue capacity / backpressure bound (default 32)
  --seed <n>             traffic seed (default 0x5eed)
  --fault <spec>         inject a fault (repeatable):
                         worker=K,kind=setup|panic|mpk|alloc|stall[,at=N]
                         (kind=setup breaks every (re)start of worker K;
                         the others strike K's N-th request, once;
                         kind=stall wedges the worker mid-request until
                         the watchdog condemns and respawns the slot)
  --mpk-policy <p>       what an MPK violation does (default enforce):
                         enforce        deny; the defect dirties the run
                         audit          single-step past it, log it, go on
                         quarantine[:N] audit until N violations from one
                                        worker or one site, then tear the
                                        worker down and flag the site
  --profile <file>       extra profile merged before serving (typically
                         sites absorbed from a previous run's audit log)
  --no-tlb               disable the per-worker software TLB (ablation;
                         behaviour is identical, throughput is not)
  --tenants <n>          multi-tenant mode: serve a tenant-tagged request
                         mix across n isolated compartments, virtual keys
                         multiplexed onto the hardware key space (default
                         0 = classic single-compartment serving)
  --tenant-policy <p>    per-tenant violation policy (default enforce):
                         enforce|audit|quarantine[:N], as --mpk-policy
                         but scoped to one tenant's compartment
  --deadline-ticks <n>   shed a request still queued after n completed
                         requests (logical deadline clock; default 0 =
                         no deadlines)
  --admission <ms>       bounded-wait admission control: reject instead
                         of blocking once the producer has waited ms on
                         a full queue (0 = shed immediately when full;
                         default: block forever)
  --tenant-rate <burst>  per-tenant fair queueing (needs --tenants):
                         token bucket of <burst> tokens refilled at the
                         fair share, deficit-round-robin dispatch over
                         per-tenant sub-queues
  --stall-timeout <ms>   watchdog deadline: a worker whose heartbeat
                         stops this long with a request in flight is
                         condemned and respawned (default 5000)
  --traffic <shape>      request arrival shape (default uniform):
                         uniform | burst[:len] | zipf[:s_milli]
                         (burst: sticky runs of one tenant+kind;
                         zipf: tenant draw skewed by s = s_milli/1000)
  --pace <us>            microseconds between offered requests
                         (default 0 = offer as fast as possible)
  --latency              record admission-to-completion latency and
                         report p50/p90/p99/p99.9 percentiles
  --json                 emit the report as JSON on stdout

options:
  --distrust <crate>     mark a crate untrusted (repeatable)
  --entry <name>         entry function (default: main)
  --arg <n>              entry argument (repeatable)
  --stage1               lint/scan the annotated build instead of the input
  --json                 emit scan findings as JSON on stdout
  -p, --profile <file>   profile to apply (enforce) or compare (analyze)
  -o, --output <file>    where to write the profile (profile, analyze)
";

fn parse_args() -> Result<Options, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    let input = PathBuf::from(argv.next().ok_or("missing input file")?);
    let mut options = Options {
        command,
        input,
        distrust: Vec::new(),
        profile_path: None,
        output: None,
        entry: "main".to_string(),
        args: Vec::new(),
        stage1: false,
        json: false,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--stage1" => options.stage1 = true,
            "--json" => options.json = true,
            "--distrust" => {
                options.distrust.push(argv.next().ok_or("--distrust needs a crate name")?);
            }
            "--entry" => options.entry = argv.next().ok_or("--entry needs a name")?,
            "--arg" => {
                let raw = argv.next().ok_or("--arg needs a number")?;
                options.args.push(raw.parse().map_err(|_| format!("bad --arg {raw:?}"))?);
            }
            "-p" | "--profile" => {
                options.profile_path = Some(PathBuf::from(argv.next().ok_or("-p needs a file")?));
            }
            "-o" | "--output" => {
                options.output = Some(PathBuf::from(argv.next().ok_or("-o needs a file")?));
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(options)
}

fn load_module(options: &Options) -> Result<Module, String> {
    let text = std::fs::read_to_string(&options.input)
        .map_err(|e| format!("cannot read {}: {e}", options.input.display()))?;
    parse_module(&text).map_err(|e| format!("parse error: {e}"))
}

/// Parses a `--traffic` shape: `uniform`, `burst[:len]` (sticky runs,
/// default length 8), or `zipf[:s_milli]` (skewed tenant draw, default
/// s = 1.0).
fn parse_traffic(spec: &str) -> Result<TrafficShape, String> {
    let (name, param) = match spec.split_once(':') {
        Some((name, param)) => (name, Some(param)),
        None => (spec, None),
    };
    let parse = |what: &str, raw: Option<&str>, default: u32| -> Result<u32, String> {
        match raw {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("bad {what} {raw:?}")),
        }
    };
    match name {
        "uniform" => match param {
            None => Ok(TrafficShape::Uniform),
            Some(_) => Err("uniform takes no parameter".into()),
        },
        "burst" => Ok(TrafficShape::Bursty { run: parse("burst length", param, 8)? }),
        "zipf" => Ok(TrafficShape::Zipf { s_milli: parse("zipf s_milli", param, 1000)? }),
        other => Err(format!("unknown traffic shape {other:?} (uniform|burst[:len]|zipf[:s])")),
    }
}

/// Parses the `serve` flags and runs the worker-pool runtime. Unlike the
/// pipeline commands, `serve` takes no input file: the served catalog is
/// built in.
fn serve_main<I: Iterator<Item = String>>(mut argv: I) -> Result<(), String> {
    let mut config = ServeConfig::default();
    let mut json = false;
    let parse_num = |flag: &str, raw: Option<String>| -> Result<u64, String> {
        let raw = raw.ok_or(format!("{flag} needs a number"))?;
        raw.parse().map_err(|_| format!("bad {flag} {raw:?}"))
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workers" => config.workers = parse_num("--workers", argv.next())? as usize,
            "--requests" => config.requests = parse_num("--requests", argv.next())?,
            "--queue" => config.queue_capacity = parse_num("--queue", argv.next())? as usize,
            "--seed" => config.seed = parse_num("--seed", argv.next())?,
            "--fault" => {
                let spec = argv.next().ok_or("--fault needs worker=K,kind=...[,at=N]")?;
                config.faults.push(Fault::parse(&spec)?);
            }
            "--mpk-policy" => {
                let spec = argv.next().ok_or("--mpk-policy needs enforce|audit|quarantine[:N]")?;
                config.mpk_policy = MpkPolicy::parse(&spec).map_err(|e| e.to_string())?;
            }
            "--profile" => {
                let path = PathBuf::from(argv.next().ok_or("--profile needs a file")?);
                config.extra_profile = Some(Profile::load(&path).map_err(|e| e.to_string())?);
            }
            "--no-tlb" => config.tlb = false,
            "--tenants" => config.tenants = parse_num("--tenants", argv.next())? as usize,
            "--tenant-policy" => {
                let spec =
                    argv.next().ok_or("--tenant-policy needs enforce|audit|quarantine[:N]")?;
                config.tenant_policy = MpkPolicy::parse(&spec).map_err(|e| e.to_string())?;
            }
            "--deadline-ticks" => {
                config.deadline_ticks = parse_num("--deadline-ticks", argv.next())?;
            }
            "--admission" => {
                config.admission_wait_ms = Some(parse_num("--admission", argv.next())?);
            }
            "--tenant-rate" => {
                config.tenant_rate = Some(parse_num("--tenant-rate", argv.next())?);
            }
            "--stall-timeout" => {
                config.stall_timeout_ms = parse_num("--stall-timeout", argv.next())?;
            }
            "--traffic" => {
                let spec = argv.next().ok_or("--traffic needs uniform|burst[:len]|zipf[:s]")?;
                config.traffic = parse_traffic(&spec)?;
            }
            "--pace" => config.pace_us = parse_num("--pace", argv.next())?,
            "--latency" => config.record_latency = true,
            "--json" => json = true,
            other => return Err(format!("unknown serve option {other:?}")),
        }
    }

    // Pool death carries the partial report: surface it the same way a
    // successful run's report is surfaced, then fail.
    let report = match serve(config) {
        Ok(report) => report,
        Err(ServeError::Worker { worker, message, report: Some(report) }) => {
            if json {
                println!("{}", report.to_json());
            }
            return Err(format!(
                "pool died: worker {worker}: {message} ({} request(s) abandoned)",
                report.requests_abandoned
            ));
        }
        Err(error) => return Err(error.to_string()),
    };
    if json {
        println!("{}", report.to_json());
    } else {
        println!(
            "served {} request(s) on {} worker(s): {:.1} req/s, {} transition(s), \
             queue depth ≤ {} ({} backpressure wait(s))",
            report.requests_served,
            report.config.workers,
            report.throughput_rps,
            report.transitions,
            report.queue.max_depth,
            report.queue.backpressure_waits,
        );
        for w in &report.workers {
            println!(
                "  worker {}: {} request(s) ({} page-load, {} script), {} transition(s)",
                w.worker, w.requests, w.page_loads, w.scripts, w.transitions
            );
        }
        if report.workers_restarted + report.requests_retried + report.injected_faults > 0 {
            println!(
                "  supervision: {} restart(s), {} retried, {} abandoned, {} injected fault(s)",
                report.workers_restarted,
                report.requests_retried,
                report.requests_abandoned,
                report.injected_faults
            );
        }
        if report.workers_stalled > 0 {
            println!(
                "  watchdog: {} stall(s) condemned (deadline {} ms)",
                report.workers_stalled, report.config.stall_timeout_ms
            );
        }
        if report.requests_expired + report.requests_rejected > 0 {
            println!(
                "  overload: {} expired at pop, {} rejected at admission",
                report.requests_expired, report.requests_rejected
            );
        }
        if let Some(latency) = &report.latency {
            println!(
                "  latency ({} sample(s)): p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, \
                 p99.9 {:.3} ms, max {:.3} ms",
                latency.count,
                latency.p50_ms,
                latency.p90_ms,
                latency.p99_ms,
                latency.p999_ms,
                latency.max_ms
            );
        }
        if report.config.mpk_policy != MpkPolicy::Enforce {
            println!(
                "  {}: {} audited, {} quarantined, {} site(s) flagged, {} logged \
                 ({} dropped)",
                report.config.mpk_policy,
                report.violations_audited,
                report.violations_quarantined,
                report.flagged_sites.len(),
                report.audit_log.len(),
                report.audit_dropped
            );
        }
        if report.config.tenants > 0 {
            let keys = report.tenant_key_stats.unwrap_or_default();
            println!(
                "  tenants: {} over the hardware keys: {} bind(s) ({} hit, {} miss), \
                 {} eviction(s), {} page(s) re-tagged, {} revocation(s), \
                 {} deferred reuse(s), {} key(s) still quarantined",
                report.config.tenants,
                keys.binds,
                keys.hits,
                keys.misses,
                keys.evictions,
                keys.pages_retagged,
                keys.revocations,
                keys.deferred_reuses,
                keys.deferred_keys
            );
            for t in &report.per_tenant {
                let fairness = if report.config.tenant_rate.is_some() {
                    format!(" ({} offered, {} rate-limited)", t.offered, t.rate_limited)
                } else {
                    String::new()
                };
                println!(
                    "    tenant {}: {} request(s){}, {} rejected, {} bind retr{}, \
                     {} audited, {} quarantined{}",
                    t.tenant,
                    t.requests,
                    fairness,
                    t.rejected,
                    t.bind_retries,
                    if t.bind_retries == 1 { "y" } else { "ies" },
                    t.violations_audited,
                    t.violations_quarantined,
                    if t.quarantined { " [quarantined]" } else { "" }
                );
            }
        }
    }
    if report.clean() {
        Ok(())
    } else {
        Err(format!(
            "unclean serve run: {} checksum mismatch(es), {} unexpected fault(s), {} error(s), \
             {} abandoned",
            report.checksum_mismatches,
            report.unexpected_faults,
            report.errors,
            report.requests_abandoned
        ))
    }
}

fn main() -> ExitCode {
    // `serve` is the one command with no input file; dispatch it before
    // the pipeline-style argument parse. An unknown command is rejected
    // here too, so the user gets usage instead of "missing input file".
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("serve") => {
            return match serve_main(argv) {
                Ok(()) => ExitCode::SUCCESS,
                Err(message) => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("redteam") => {
            return match redteam_main(argv) {
                Ok(()) => ExitCode::SUCCESS,
                Err(message) => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
            };
        }
        Some(
            "check" | "annotate" | "profile" | "enforce" | "analyze" | "lint" | "scan" | "run",
        )
        | None => {}
        Some(other) => {
            eprintln!("error: unknown command {other:?}");
            eprintln!("\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    // Usage is only helpful when the command line itself was wrong;
    // build/lint/run diagnostics stand alone.
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match real_main(options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn real_main(options: Options) -> Result<(), String> {
    let module = load_module(&options)?;
    let annotations = Annotations::distrusting(&options.distrust);
    let input = ProfileInput::new(&options.entry, &options.args);

    match options.command.as_str() {
        "check" => {
            verify(&module)?;
            println!("ok: {} function(s), verified", module.functions.len());
            Ok(())
        }
        "annotate" => {
            let pipeline = Pipeline::new(module, annotations);
            let annotated = pipeline.annotated_build().map_err(|e| e.to_string())?;
            print!("{}", annotated.dump());
            Ok(())
        }
        "profile" => {
            let pipeline = Pipeline::new(module, annotations);
            let profiling = pipeline.profiling_build().map_err(|e| e.to_string())?;
            let profile = run_profiling(&profiling, &[input]).map_err(|e| e.to_string())?;
            eprintln!(
                "profiled: {} shared site(s), {} fault(s) observed",
                profile.len(),
                profile.faults_observed
            );
            match &options.output {
                Some(path) => profile.save(path).map_err(|e| e.to_string())?,
                None => println!("{}", profile.to_json()),
            }
            Ok(())
        }
        "enforce" => {
            let profile = match &options.profile_path {
                Some(path) => Profile::load(path).map_err(|e| e.to_string())?,
                None => Profile::new(),
            };
            let pipeline = Pipeline::new(module, annotations);
            let mut enforced = pipeline.annotated_build().map_err(|e| e.to_string())?;
            let moved = pkru_safe::passes::apply_profile(&mut enforced, &profile);
            eprintln!("applied profile: {moved} site(s) moved to M_U");
            execute(&enforced, &options)
        }
        "analyze" => {
            let pipeline = Pipeline::new(module, annotations);
            let analysis = pipeline.static_analysis().map_err(|e| e.to_string())?;
            let static_profile = analysis.static_profile();
            eprintln!(
                "static: {} of {} site(s) may escape to U; {} function(s) may run untrusted",
                static_profile.len(),
                analysis.total_sites,
                analysis.may_run_untrusted.len()
            );
            match &options.output {
                Some(path) => static_profile.save(path).map_err(|e| e.to_string())?,
                None => println!("{}", static_profile.to_json()),
            }
            if let Some(path) = &options.profile_path {
                let dynamic = Profile::load(path).map_err(|e| e.to_string())?;
                pkru_analysis::check_profile_soundness(&static_profile, &dynamic).map_err(
                    |missing| {
                        let sites: Vec<String> = missing.iter().map(|s| s.to_string()).collect();
                        format!(
                            "soundness violation: dynamically-observed site(s) missing from \
                             the static may-escape set: {}",
                            sites.join(", ")
                        )
                    },
                )?;
                eprintln!("soundness: dynamic profile is covered by the static analysis");
            }
            Ok(())
        }
        "lint" => {
            let linted = if options.stage1 {
                Pipeline::new(module, annotations).annotated_build().map_err(|e| e.to_string())?
            } else {
                verify(&module)?;
                module
            };
            pkru_analysis::lint_module(&linted).map_err(|errs| {
                errs.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("; ")
            })?;
            println!("ok: gate integrity verified ({} function(s))", linted.functions.len());
            Ok(())
        }
        "scan" => {
            let scanned = if options.stage1 {
                Pipeline::new(module, annotations).annotated_build().map_err(|e| e.to_string())?
            } else {
                verify(&module)?;
                module
            };
            let findings = pkru_analysis::scan_module(&scanned);
            if options.json {
                println!("{}", scan_report_json(&findings));
            }
            if findings.is_empty() {
                if !options.json {
                    println!(
                        "ok: adversarial scan clean ({} function(s))",
                        scanned.functions.len()
                    );
                }
                Ok(())
            } else {
                if !options.json {
                    for finding in &findings {
                        eprintln!("{finding}");
                    }
                }
                Err(format!("adversarial scan found {} finding(s)", findings.len()))
            }
        }
        "run" => {
            let app = Pipeline::new(module, annotations)
                .with_input(input)
                .with_static_checks()
                .build()
                .map_err(|e| e.to_string())?;
            eprintln!("census: {}", app.census);
            execute(&app.module, &options)
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

/// Generates and vets the red-team corpus: every sampled attack must be
/// rejected by the adversarial scan or stopped at run time.
fn redteam_main<I: Iterator<Item = String>>(mut argv: I) -> Result<(), String> {
    let mut samples: u64 = 32;
    let mut seed: u64 = 0x5eed;
    let mut json = false;
    while let Some(flag) = argv.next() {
        let parse_num = |flag: &str, raw: Option<String>| -> Result<u64, String> {
            let raw = raw.ok_or(format!("{flag} needs a number"))?;
            raw.parse().map_err(|_| format!("bad {flag} {raw:?}"))
        };
        match flag.as_str() {
            "--samples" => samples = parse_num("--samples", argv.next())?,
            "--seed" => seed = parse_num("--seed", argv.next())?,
            "--json" => json = true,
            other => return Err(format!("unknown redteam option {other:?}")),
        }
    }

    use pkru_analysis::redteam::{generate_any, vet, Catch};
    let (mut caught_static, mut caught_dynamic, mut uncaught) = (0u64, 0u64, 0u64);
    let mut results = Vec::new();
    for i in 0..samples {
        let attack = generate_any(seed.wrapping_add(i));
        let (layer, detail) = match vet(&attack.module()) {
            Catch::Static(findings) => {
                caught_static += 1;
                ("static", findings[0].to_string())
            }
            Catch::Dynamic(cause) => {
                caught_dynamic += 1;
                ("dynamic", cause)
            }
            Catch::Uncaught => {
                uncaught += 1;
                ("uncaught", String::new())
            }
        };
        if layer == "uncaught" && !json {
            eprintln!("UNCAUGHT {} (seed {}):\n{}", attack.kind.label(), attack.seed, attack.text);
        }
        results.push(JsonValue::object([
            ("kind", attack.kind.label().into()),
            ("seed", attack.seed.into()),
            ("caught", layer.into()),
            ("detail", detail.into()),
        ]));
    }
    if json {
        let report = JsonValue::object([
            ("samples", samples.into()),
            ("caught_static", caught_static.into()),
            ("caught_dynamic", caught_dynamic.into()),
            ("uncaught", uncaught.into()),
            ("results", JsonValue::Array(results)),
        ]);
        println!("{report}");
    } else {
        println!(
            "red team: {samples} attack(s): {caught_static} caught statically, \
             {caught_dynamic} dynamically, {uncaught} uncaught"
        );
    }
    if uncaught == 0 {
        Ok(())
    } else {
        Err(format!("{uncaught} attack(s) escaped both the scan and the runtime"))
    }
}

/// The `scan --json` report: one object per finding, with the reachability
/// witness as an array of function names (untrusted entry first).
fn scan_report_json(findings: &[pkru_analysis::ScanFinding]) -> JsonValue {
    let findings = findings.iter().map(|f| {
        JsonValue::object([
            ("code", f.kind.code().into()),
            ("func", f.func.as_str().into()),
            ("block", f.block.into()),
            ("index", f.index.into()),
            ("witness", f.witness.iter().map(String::as_str).collect()),
            ("message", f.to_string().into()),
        ])
    });
    JsonValue::object([("findings", findings.collect())])
}

/// Structural verification plus the def-before-use dataflow check.
fn verify(module: &Module) -> Result<(), String> {
    let render =
        |errs: Vec<lir::VerifyError>| errs.iter().map(|e| e.to_string()).collect::<Vec<_>>();
    let mut errors = verify_module(module).err().map(render).unwrap_or_default();
    errors.extend(lir::verify_def_use(module).err().map(render).unwrap_or_default());
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

fn execute(module: &Module, options: &Options) -> Result<(), String> {
    let mut machine = lir::Machine::split(lir::FaultPolicy::Crash).map_err(|e| e.to_string())?;
    let result = lir::Interp::new(module, &mut machine).run(&options.entry, &options.args);
    for line in &machine.output {
        println!("{line}");
    }
    match result {
        Ok(value) => {
            eprintln!(
                "exit: {:?} ({} transitions, {} instructions)",
                value,
                machine.gates.transitions(),
                machine.instret
            );
            Ok(())
        }
        Err(trap) => Err(format!("program crashed: {trap}")),
    }
}
