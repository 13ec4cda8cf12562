//! Static analyses over LIR modules (the paper's road-not-taken, §4.3).
//!
//! PKRU-Safe chose *dynamic* profiling to discover which trusted
//! allocation sites leak into the untrusted compartment because
//! whole-program static pointer analysis over LLVM IR was judged too
//! imprecise. The repo's LIR is small enough to analyze soundly, so this
//! crate builds the static counterpart and lets each side check the other:
//!
//! - [`escape::analyze`] — an interprocedural, flow-insensitive,
//!   Andersen-style points-to/taint analysis computing the *may-escape*
//!   set: every labeled allocation site whose objects may be dereferenced
//!   while the untrusted compartment's rights are in force. The result is
//!   a [`StaticProfile`] in the same JSON schema as the dynamic
//!   [`pkru_provenance::Profile`], so the enforcement build can consume
//!   either.
//! - [`check_profile_soundness`] — the two-sided check: every
//!   dynamically-observed site must appear in the static may-escape set;
//!   a violation is a soundness bug in one of the two analyses.
//! - [`gatelint::lint_module`] — a path-sensitive gate-integrity lint in
//!   the spirit of ERIM/Garmr: gates balanced on every path, untrusted
//!   calls bracketed, no gate or provenance hooks reachable inside the
//!   untrusted compartment, and no trusted-pool allocation while the
//!   untrusted compartment is active.
//! - [`scan::scan_module`] — the whole-module adversarial complement to
//!   the lint: treats untrusted functions as attacker-controlled and walks
//!   the callgraph for unsanctioned gate gadgets, out-of-policy `sys.*`
//!   primitives, and gate-region pointer-publication hazards, each finding
//!   carrying a reachability witness path.
//! - [`redteam`] — a seeded generator of Garmr-shaped attack modules plus
//!   a harness asserting every attack is rejected statically by the scan
//!   or caught dynamically under the quarantine policy.
//!
//! The escape analysis and the scan ask the same question — which rights
//! may be in force at each instruction — and share one answer: the
//! crate-private `rights` module computes a per-block may-rights mask for
//! every function in one interprocedural fixpoint (gates collapse the mask,
//! calls under untrusted rights enter their callees untrusted unless the
//! callee begins with `gate.enter.trusted`, indirect calls reach every
//! arity-matched address-taken function, and a call after a gate in a
//! block no path reaches still counts). The lint reuses its trusted-entry
//! test and the [`CallGraph`]'s indirect-call resolution but keeps its own
//! path-sensitive gate-depth state: it is a must-analysis, not a may one.

mod callgraph;
mod diag;
mod escape;
mod gatelint;
pub mod redteam;
mod rights;
mod scan;

pub use callgraph::CallGraph;
pub use diag::{LintError, LintErrorKind};
pub use escape::{analyze, check_profile_soundness, EscapeAnalysis, StaticProfile};
pub use gatelint::lint_module;
pub use scan::{scan_module, ScanFinding, ScanFindingKind};
