//! `pkru-handler`: policy-driven MPK violation handling.
//!
//! PKRU-Safe's enforcement story is all-or-nothing: a pkey violation is a
//! SIGSEGV and the process dies. But §4.3.2 of the paper already describes
//! a fault handler that single-steps past faulting accesses during
//! profiling — machinery the [`pkru_mpk::Cpu`] trap flag and
//! [`pkru_vmem::FaultKind::PkeyViolation`] model. This crate reuses that
//! machinery at *serve* time, under an explicit [`MpkPolicy`]:
//!
//! - **enforce** — the classic behaviour: the fault kills the request and
//!   counts as a defect.
//! - **audit** — emulate the paper's single-step recovery: grant the
//!   faulting page's key for exactly one retired access, log
//!   `{addr, pkey, pkru, access, alloc_site}` to a bounded audit log, and
//!   continue. An under-approximate profile degrades to logged slowdowns
//!   instead of outages, and the log feeds back into the dynamic profile
//!   ([`pkru_provenance::Profile::absorb_audit`]).
//! - **quarantine** — a circuit breaker: violations are audited until the
//!   N-th from one worker incarnation or one allocation site, at which
//!   point the access is denied, the site is flagged, and the handler
//!   reports itself *tripped* so the host can tear the worker down through
//!   its supervision path.
//!
//! One [`ViolationHandler`] pairs with one worker thread (like the PKRU
//! register it polices); it is shared via `Arc` between the machine's
//! fault-resolution path, the call-gate runtime (which refuses compartment
//! entry once the breaker has tripped), and the supervisor that reads the
//! counters and the audit log afterwards.

mod audit;
mod handler;
mod policy;

pub use audit::{AuditRecord, AUDIT_LOG_CAP};
pub use handler::{ViolationCounters, ViolationHandler};
pub use policy::{MpkPolicy, DEFAULT_QUARANTINE_THRESHOLD};

use pkru_mpk::Pkru;

/// What the handler decided about one MPK violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The access is denied: the fault propagates and kills the request
    /// (enforce, or a quarantine breaker that just tripped).
    Deny,
    /// The access retires once under `grant` rights (the §4.3.2 trap-flag
    /// dance), then the compartment's own rights are restored.
    SingleStep {
        /// The PKRU value to install for exactly one access: the faulting
        /// compartment's rights plus the faulting page's key.
        grant: Pkru,
    },
}
