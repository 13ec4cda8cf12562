//! The four-stage build pipeline (Figure 1).

use core::fmt;

use lir::{verify_module, FaultPolicy, Interp, Machine, Module, Trap, VerifyError};
use pkru_analysis::{EscapeAnalysis, LintError, ScanFinding};
use pkru_provenance::{AllocId, Profile};

use crate::annotations::Annotations;
use crate::census::SiteCensus;
use crate::passes;

/// One profiling run: an entry point and its arguments.
///
/// The developer's profiling corpus is a list of these — the stand-in for
/// "browse a selection of common web pages" (§5.3). Profiling inputs are
/// assumed benign (§2).
#[derive(Clone, Debug)]
pub struct ProfileInput {
    /// Entry function name.
    pub entry: String,
    /// Arguments passed to the entry.
    pub args: Vec<i64>,
}

impl ProfileInput {
    /// Creates a profiling input.
    pub fn new(entry: &str, args: &[i64]) -> ProfileInput {
        ProfileInput { entry: entry.to_string(), args: args.to_vec() }
    }
}

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    /// The input or transformed module is structurally invalid.
    Verify(Vec<VerifyError>),
    /// A profiling run crashed (profiling inputs must be benign and
    /// complete; a non-MPK fault here is a real program bug).
    ProfilingRun {
        /// The input that crashed.
        entry: String,
        /// The trap raised.
        trap: Trap,
    },
    /// Machine construction failed.
    Machine(Trap),
    /// The gate-integrity lint rejected the annotated build (a compiler
    /// pass emitted unbalanced or misplaced gates).
    Lint(Vec<LintError>),
    /// The adversarial scan rejected the annotated build: an unsanctioned
    /// gate gadget, an out-of-policy syscall, or a gate-region pointer
    /// publication is reachable.
    Scan(Vec<ScanFinding>),
    /// The dynamic profile observed sites the static escape analysis did
    /// not predict — one of the two analyses is unsound.
    UnsoundProfile {
        /// Dynamically-recorded sites missing from the static
        /// may-escape set.
        missing: Vec<AllocId>,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Verify(errs) => {
                write!(f, "module verification failed: ")?;
                for e in errs {
                    write!(f, "[{e}] ")?;
                }
                Ok(())
            }
            PipelineError::ProfilingRun { entry, trap } => {
                write!(f, "profiling run @{entry} crashed: {trap}")
            }
            PipelineError::Machine(t) => write!(f, "machine setup failed: {t}"),
            PipelineError::Lint(errs) => {
                write!(f, "gate-integrity lint failed: ")?;
                for e in errs {
                    write!(f, "[{e}] ")?;
                }
                Ok(())
            }
            PipelineError::Scan(findings) => {
                write!(f, "adversarial scan failed: ")?;
                for finding in findings {
                    write!(f, "[{finding}] ")?;
                }
                Ok(())
            }
            PipelineError::UnsoundProfile { missing } => {
                write!(f, "dynamic profile is not covered by the static may-escape set; missing:")?;
                for site in missing {
                    write!(f, " {site}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// The fully built, enforcement-ready application (stage 5 of Figure 1).
#[derive(Debug)]
pub struct PkruApp {
    /// The enforcement build: gated, profile-applied, no provenance hooks.
    pub module: Module,
    /// The merged profile that drove the build.
    pub profile: Profile,
    /// The allocation-site census (§5.3's "274 of 12088").
    pub census: SiteCensus,
}

impl PkruApp {
    /// Runs the enforcement build on a fresh machine, returning the result
    /// and the machine for inspection (output, transition counts, stats).
    pub fn run(&self, entry: &str, args: &[i64]) -> (Result<Option<i64>, Trap>, Machine) {
        // A fresh split machine always constructs.
        let mut machine = Machine::split(FaultPolicy::Crash).expect("machine constructs");
        let result = Interp::new(&self.module, &mut machine).run(entry, args);
        (result, machine)
    }
}

/// Runs the profiling corpus against an instrumented build, merging the
/// recorded profiles (stage 3 of Figure 1).
///
/// Each input runs on a fresh machine in [`FaultPolicy::Profile`] mode: all
/// trusted heap data still lives in `M_T`, so every cross-compartment
/// access faults, is recorded, and is resumed by single-stepping.
pub fn run_profiling(module: &Module, inputs: &[ProfileInput]) -> Result<Profile, PipelineError> {
    let mut merged = Profile::new();
    for input in inputs {
        let mut machine = Machine::split(FaultPolicy::Profile).map_err(PipelineError::Machine)?;
        Interp::new(module, &mut machine)
            .run(&input.entry, &input.args)
            .map_err(|trap| PipelineError::ProfilingRun { entry: input.entry.clone(), trap })?;
        merged.merge(&machine.profiler.profile);
    }
    Ok(merged)
}

/// Drives the four-stage pipeline end to end.
///
/// ```
/// use lir::parse_module;
/// use pkru_safe::{Annotations, Pipeline, ProfileInput};
///
/// let source = parse_module(
///     "
/// fn @clib::peek(1) {
/// bb0:
///   %1 = load %0, 0
///   ret %1
/// }
/// fn @main(0) {
/// bb0:
///   %0 = alloc 8
///   store %0, 0, 1337
///   %1 = call @clib::peek(%0)
///   print %1
///   ret %1
/// }
/// ",
/// )
/// .unwrap();
/// let app = Pipeline::new(source, Annotations::distrusting(["clib"]))
///     .with_input(ProfileInput::new("main", &[]))
///     .build()
///     .unwrap();
/// assert_eq!(app.census.shared_sites, 1);
/// let (result, machine) = app.run("main", &[]);
/// assert_eq!(result.unwrap(), Some(1337));
/// assert!(machine.gates.transitions() >= 2);
/// ```
pub struct Pipeline {
    source: Module,
    annotations: Annotations,
    inputs: Vec<ProfileInput>,
    static_checks: bool,
}

impl Pipeline {
    /// Creates a pipeline over `source` with the developer's annotations.
    pub fn new(source: Module, annotations: Annotations) -> Pipeline {
        Pipeline { source, annotations, inputs: Vec::new(), static_checks: false }
    }

    /// Adds a profiling input (stage 3 corpus).
    pub fn with_input(mut self, input: ProfileInput) -> Pipeline {
        self.inputs.push(input);
        self
    }

    /// Enables the static checks: before profiling, [`Pipeline::build`]
    /// runs the adversarial scan ([`pkru_analysis::scan_module`]) and then
    /// the gate-integrity lint over the annotated build, refusing to
    /// proceed on any finding, and afterwards cross-checks the dynamic
    /// profile against the static may-escape set (every observed site
    /// must have been statically predicted).
    pub fn with_static_checks(mut self) -> Pipeline {
        self.static_checks = true;
        self
    }

    /// Runs the gate-integrity lint over the annotated build.
    pub fn lint(&self) -> Result<(), PipelineError> {
        lint(&self.annotated_build()?)
    }

    /// Runs the adversarial scan over the annotated build.
    pub fn scan(&self) -> Result<(), PipelineError> {
        scan(&self.annotated_build()?)
    }

    /// Runs the static escape analysis over the annotated build.
    pub fn static_analysis(&self) -> Result<EscapeAnalysis, PipelineError> {
        Ok(pkru_analysis::analyze(&self.annotated_build()?))
    }

    /// Stage 1: annotation expansion, gate insertion, site labeling.
    ///
    /// This is the common ancestor of the profiling and enforcement
    /// builds.
    pub fn annotated_build(&self) -> Result<Module, PipelineError> {
        verify_module(&self.source).map_err(PipelineError::Verify)?;
        let mut module = self.source.clone();
        passes::expand_annotations(&mut module, &self.annotations);
        passes::instrument_trusted_entries(&mut module);
        passes::assign_alloc_ids(&mut module);
        verify_module(&module).map_err(PipelineError::Verify)?;
        Ok(module)
    }

    /// Stage 2: the profiling build (annotated + provenance callbacks).
    pub fn profiling_build(&self) -> Result<Module, PipelineError> {
        profiling_build(self.annotated_build()?)
    }

    /// Stages 1–4: produce the enforcement-ready application.
    ///
    /// Stage 1 runs once; the static checks (with
    /// [`Pipeline::with_static_checks`]), the profiling build and the
    /// enforcement rewrite all start from its output.
    pub fn build(self) -> Result<PkruApp, PipelineError> {
        let mut module = self.annotated_build()?;
        let static_profile = if self.static_checks {
            scan(&module)?;
            lint(&module)?;
            Some(pkru_analysis::analyze(&module).static_profile())
        } else {
            None
        };
        let profile = run_profiling(&profiling_build(module.clone())?, &self.inputs)?;
        if let Some(static_profile) = &static_profile {
            pkru_analysis::check_profile_soundness(static_profile, &profile)
                .map_err(|missing| PipelineError::UnsoundProfile { missing })?;
        }
        let total_sites = count_sites(&module);
        let shared_sites = passes::apply_profile(&mut module, &profile);
        verify_module(&module).map_err(PipelineError::Verify)?;
        Ok(PkruApp { module, profile, census: SiteCensus { total_sites, shared_sites } })
    }
}

fn lint(annotated: &Module) -> Result<(), PipelineError> {
    pkru_analysis::lint_module(annotated).map_err(PipelineError::Lint)
}

fn scan(annotated: &Module) -> Result<(), PipelineError> {
    let findings = pkru_analysis::scan_module(annotated);
    if findings.is_empty() {
        Ok(())
    } else {
        Err(PipelineError::Scan(findings))
    }
}

fn profiling_build(mut annotated: Module) -> Result<Module, PipelineError> {
    passes::insert_provenance_instrumentation(&mut annotated);
    verify_module(&annotated).map_err(PipelineError::Verify)?;
    Ok(annotated)
}

fn count_sites(module: &Module) -> usize {
    module
        .functions
        .iter()
        .filter(|f| !f.attrs.untrusted)
        .flat_map(|f| &f.blocks)
        .flat_map(|b| &b.instrs)
        .filter(|i| matches!(i, lir::Instr::Alloc { id: Some(_), .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse_module;

    /// The artifact's E1 walkthrough program: main allocates two objects;
    /// the untrusted library reads one of them and never sees the other.
    const E1: &str = r#"
untrusted fn @clib::process(1) {
bb0:
  %1 = load %0, 0
  %2 = add %1, 1
  store %0, 0, %2
  ret %2
}
fn @main(0) {
bb0:
  %0 = alloc 64      ; shared with clib
  %1 = alloc 64      ; private
  store %0, 0, 1336
  store %1, 0, 41
  %2 = call @clib::process(%0)
  %3 = load %1, 0
  print %2
  print %3
  ret %2
}
"#;

    fn pipeline() -> Pipeline {
        let source = parse_module(E1).unwrap();
        Pipeline::new(source, Annotations::new()).with_input(ProfileInput::new("main", &[]))
    }

    #[test]
    fn e1_step1_enforcement_without_profile_faults() {
        // Build with an empty profile: the shared allocation stays in M_T
        // and the untrusted read crashes — experiment E1, step 1.
        let p = pipeline();
        let mut module = p.annotated_build().unwrap();
        assert_eq!(passes::apply_profile(&mut module, &Profile::new()), 0);
        let mut machine = Machine::split(FaultPolicy::Crash).unwrap();
        let err = Interp::new(&module, &mut machine).run("main", &[]).unwrap_err();
        match err {
            Trap::Fault(f) => assert!(f.is_pkey_violation()),
            other => panic!("expected pkey fault, got {other:?}"),
        }
    }

    #[test]
    fn e1_step2_profiling_records_exactly_the_shared_site() {
        let p = pipeline();
        let profiling = p.profiling_build().unwrap();
        let profile = run_profiling(&profiling, &[ProfileInput::new("main", &[])]).unwrap();
        assert_eq!(profile.len(), 1, "only the shared site crosses the boundary");
    }

    #[test]
    fn e1_step3_final_build_works_and_stays_isolated() {
        let app = pipeline().build().unwrap();
        assert_eq!(app.census.total_sites, 2);
        assert_eq!(app.census.shared_sites, 1);
        let (result, machine) = app.run("main", &[]);
        assert_eq!(result.unwrap(), Some(1337));
        assert_eq!(machine.output, vec![1337, 41]);
        // The gated FFI call produced compartment transitions.
        assert!(machine.gates.transitions() >= 2, "{}", machine.gates.transitions());
    }

    #[test]
    fn static_checks_pass_on_e1() {
        // The static may-escape set must cover everything profiling
        // observes, and the pass-emitted gates must lint clean.
        let source = parse_module(E1).unwrap();
        let app = Pipeline::new(source, Annotations::new())
            .with_input(ProfileInput::new("main", &[]))
            .with_static_checks()
            .build()
            .unwrap();
        assert_eq!(app.census.shared_sites, 1);
    }

    #[test]
    fn static_analysis_covers_dynamic_profile() {
        let p = pipeline();
        let analysis = p.static_analysis().unwrap();
        let static_profile = analysis.static_profile();
        let profiling = p.profiling_build().unwrap();
        let dynamic = run_profiling(&profiling, &[ProfileInput::new("main", &[])]).unwrap();
        pkru_analysis::check_profile_soundness(&static_profile, &dynamic).unwrap();
        // And on E1 the static answer is exact: one site escapes.
        assert_eq!(static_profile.len(), 1);
    }

    #[test]
    fn lint_rejects_hand_broken_gates() {
        // Un-exit-ed gate smuggled into otherwise valid source.
        let source = parse_module(
            "
fn @main(0) {
bb0:
  gate.enter.untrusted
  ret
}
",
        )
        .unwrap();
        let err = Pipeline::new(source, Annotations::new()).lint().unwrap_err();
        assert!(matches!(err, PipelineError::Lint(_)), "{err}");
    }

    #[test]
    fn adversarial_scan_accepts_e1_and_rejects_smuggled_gadget() {
        // The pass-emitted wrappers are sanctioned shapes, so E1 builds
        // clean with the static checks (scan first) enabled...
        let source = parse_module(E1).unwrap();
        Pipeline::new(source, Annotations::new())
            .with_input(ProfileInput::new("main", &[]))
            .with_static_checks()
            .build()
            .unwrap();
        // ...but an untrusted function carrying its own gate gadget is
        // refused before anything runs.
        let source = parse_module(
            "
untrusted fn @clib::evil(1) {
bb0:
  gate.exit.untrusted
  %1 = load %0, 0
  ret %1
}
fn @main(0) {
bb0:
  %0 = alloc 8
  %1 = call @clib::evil(%0)
  ret %1
}
",
        )
        .unwrap();
        let err =
            Pipeline::new(source, Annotations::new()).with_static_checks().build().unwrap_err();
        match err {
            PipelineError::Scan(findings) => {
                assert!(findings.iter().any(|f| f.kind.code() == "SCAN001"), "{findings:?}");
            }
            other => panic!("expected a scan rejection, got {other}"),
        }
    }

    #[test]
    fn profiling_input_crash_is_reported() {
        let source = parse_module(
            "
fn @main(0) {
bb0:
  %0 = load 0, 16
  ret
}
",
        )
        .unwrap();
        let err = Pipeline::new(source, Annotations::new())
            .with_input(ProfileInput::new("main", &[]))
            .build()
            .unwrap_err();
        assert!(matches!(err, PipelineError::ProfilingRun { .. }), "{err}");
    }

    #[test]
    fn invalid_source_rejected_up_front() {
        let mut module = Module::new();
        let mut f = lir::Function::new("main", 0);
        f.blocks[0].instrs.clear();
        module.add_function(f);
        let err = Pipeline::new(module, Annotations::new()).build().unwrap_err();
        assert!(matches!(err, PipelineError::Verify(_)));
    }
}
