//! Whole-module adversarial reachability scan (the Garmr attack taxonomy).
//!
//! `gatelint` asks "did the compiler passes emit balanced gates?" per
//! function. This scanner asks the adversarial question instead: treating
//! every `untrusted` function as attacker-controlled, what can that code
//! actually reach? It walks the interprocedural callgraph (indirect calls
//! resolved conservatively) from every untrusted entry point and reports
//! three finding classes, one per Garmr attack family:
//!
//! - **SCAN001 — unsanctioned gate.** A rights-changing instruction outside
//!   the exact single-block wrapper shapes the compiler passes synthesize:
//!   the IR analogue of a stray WRPKRU gadget in the binary. Reachability
//!   from an untrusted entry is attached as a witness call path; an
//!   unreachable gadget is still flagged, because a mis-trained indirect
//!   branch or another thread's sanctioned sequence can expose it.
//! - **SCAN002 — syscall outside policy.** A `sys.*` primitive that may
//!   execute while untrusted rights are in force (no allow-list entry
//!   sanctions remapping page protections from below), or whose kind is
//!   missing from the module's `allow sys.*` list — the static half of the
//!   syscall-filter layer that [`lir::Machine::syscall`] enforces at run
//!   time.
//! - **SCAN003 — gate-region re-entry hazard.** A trusted-pool pointer
//!   stored to memory while untrusted rights may be in force: the gate-open
//!   window in which another thread (or the sandbox itself, after the gate
//!   closes) can observe an `M_T` address and replay it. This is the static
//!   over-approximation of Garmr's race attacks, keyed on
//!   [`lir::SiteDomain`] and the callgraph.
//!
//! The scan is sound for the stage-1 pipeline output by construction: the
//! synthesized wrappers are recognized structurally (shape, not the
//! forgeable `synthetic_gate` attribute), sanctioned trusted entries begin
//! with `gate.enter.trusted`, and legitimate modules neither publish `M_T`
//! pointers under dropped rights nor issue undeclared syscalls.

use core::fmt;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use lir::{BlockId, FuncId, Function, Instr, Module, Operand, Reg, SiteDomain, SysKind};

use crate::callgraph::CallGraph;
use crate::rights::{step, Rights, U};

/// What a [`ScanFinding`] is about. Each variant carries a stable
/// diagnostic code ([`ScanFindingKind::code`]) used by the corpus tests and
/// the CLI JSON report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScanFindingKind {
    /// SCAN001: a gate instruction outside a sanctioned wrapper shape.
    UnsanctionedGate {
        /// The rendered mnemonic of the offending gate instruction.
        gate: &'static str,
    },
    /// SCAN002: a `sys.*` primitive outside the syscall policy.
    SyscallOutsidePolicy {
        /// The offending primitive.
        kind: SysKind,
        /// Whether the instruction may execute with untrusted rights in
        /// force (flagged even when the kind is allow-listed); `false`
        /// means the kind is simply missing from the module allow-list.
        untrusted_rights: bool,
    },
    /// SCAN003: a trusted-pool pointer stored while untrusted rights may
    /// be in force.
    GateReentryHazard {
        /// The register holding the published `M_T` pointer.
        reg: Reg,
    },
}

impl ScanFindingKind {
    /// The stable diagnostic code for this finding class.
    pub fn code(&self) -> &'static str {
        match self {
            ScanFindingKind::UnsanctionedGate { .. } => "SCAN001",
            ScanFindingKind::SyscallOutsidePolicy { .. } => "SCAN002",
            ScanFindingKind::GateReentryHazard { .. } => "SCAN003",
        }
    }
}

/// One adversarial-scan finding, located like a [`crate::LintError`], plus
/// the reachability witness: the call chain from an untrusted entry point
/// to the offending function (entry first, offender last). Empty when the
/// function is not reachable from any untrusted entry — the finding then
/// describes a latent, cross-thread-exposable gadget.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScanFinding {
    /// Function name.
    pub func: String,
    /// Offending block.
    pub block: BlockId,
    /// Instruction index within the block.
    pub index: usize,
    /// What went wrong.
    pub kind: ScanFindingKind,
    /// Call chain from an untrusted entry to `func`, if one exists.
    pub witness: Vec<String>,
}

impl fmt::Display for ScanFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ScanFinding { func, block, index, kind, witness } = self;
        write!(f, "{} @{func} bb{block}: ", kind.code())?;
        match kind {
            ScanFindingKind::UnsanctionedGate { gate } => {
                write!(f, "unsanctioned {gate} at index {index}")?;
            }
            ScanFindingKind::SyscallOutsidePolicy { kind, untrusted_rights: true } => {
                write!(f, "{} at index {index} may run with untrusted rights", kind.mnemonic())?;
            }
            ScanFindingKind::SyscallOutsidePolicy { kind, untrusted_rights: false } => {
                write!(f, "{} at index {index} not on the module allow-list", kind.mnemonic())?;
            }
            ScanFindingKind::GateReentryHazard { reg } => {
                write!(
                    f,
                    "trusted-pool pointer %{reg} stored at index {index} while untrusted \
                     rights may be in force"
                )?;
            }
        }
        if !witness.is_empty() {
            write!(f, " [reachable: ")?;
            for (i, hop) in witness.iter().enumerate() {
                if i > 0 {
                    write!(f, " -> ")?;
                }
                write!(f, "@{hop}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

impl std::error::Error for ScanFinding {}

/// Whether `func` is one of the two exact wrapper shapes the compiler
/// passes synthesize — recognized structurally, never via the (forgeable)
/// `synthetic_gate` attribute:
///
/// - T→U gate: `gate.enter.untrusted; call @u; gate.exit.untrusted; ret`
///   with `@u` untrusted (`expand_annotations`);
/// - trusted entry: `gate.enter.trusted; call @impl; gate.exit.trusted;
///   ret` with `@impl` trusted (`instrument_trusted_entries`).
fn is_sanctioned_wrapper(module: &Module, func: &Function) -> bool {
    if func.attrs.untrusted || func.blocks.len() != 1 {
        return false;
    }
    let instrs = &func.blocks[0].instrs;
    if instrs.len() != 4 || !matches!(instrs[3], Instr::Ret { .. }) {
        return false;
    }
    let callee_untrusted =
        |callee: &str| module.find(callee).is_some_and(|id| module.function(id).attrs.untrusted);
    match (&instrs[0], &instrs[1], &instrs[2]) {
        (Instr::GateEnterUntrusted, Instr::Call { callee, .. }, Instr::GateExitUntrusted) => {
            callee_untrusted(callee)
        }
        (Instr::GateEnterTrusted, Instr::Call { callee, .. }, Instr::GateExitTrusted) => {
            !callee_untrusted(callee)
        }
        _ => false,
    }
}

/// Registers of `func` that may hold a trusted-pool pointer: destinations
/// of `alloc` (trusted-domain) sites, closed under pointer arithmetic and
/// `realloc`. Flow-insensitive by design — register reuse over-taints,
/// which is the right direction for an adversarial scan.
fn trusted_ptr_regs(func: &Function) -> BTreeSet<Reg> {
    let mut tainted = BTreeSet::new();
    loop {
        let before = tainted.len();
        for block in &func.blocks {
            for instr in &block.instrs {
                let holds = |op: &Operand| matches!(op, Operand::Reg(r) if tainted.contains(r));
                match instr {
                    Instr::Alloc { dst, domain: SiteDomain::Trusted, .. } => {
                        tainted.insert(*dst);
                    }
                    Instr::Bin { dst, lhs, rhs, .. } if holds(lhs) || holds(rhs) => {
                        tainted.insert(*dst);
                    }
                    Instr::Realloc { dst, ptr, .. } if holds(ptr) => {
                        tainted.insert(*dst);
                    }
                    _ => {}
                }
            }
        }
        if tainted.len() == before {
            return tainted;
        }
    }
}

/// BFS witness paths from the untrusted entry points: for every function
/// reachable from some `untrusted` function, the shortest call chain
/// (entry first). Unreachable functions are absent.
fn witness_paths(module: &Module, cg: &CallGraph) -> BTreeMap<FuncId, Vec<String>> {
    let mut parent: BTreeMap<FuncId, Option<FuncId>> = BTreeMap::new();
    let mut queue: VecDeque<FuncId> = VecDeque::new();
    for (fi, func) in module.functions.iter().enumerate() {
        if func.attrs.untrusted {
            parent.insert(fi as FuncId, None);
            queue.push_back(fi as FuncId);
        }
    }
    while let Some(f) = queue.pop_front() {
        for callee in cg.callees(f) {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(callee) {
                e.insert(Some(f));
                queue.push_back(callee);
            }
        }
    }
    parent
        .keys()
        .map(|&f| {
            let mut path = Vec::new();
            let mut cur = Some(f);
            while let Some(c) = cur {
                path.push(module.function(c).name.clone());
                cur = parent.get(&c).copied().flatten();
            }
            path.reverse();
            (f, path)
        })
        .collect()
}

/// Runs the adversarial scan over `module`, returning every finding.
///
/// An empty result means: no rights-changing instruction exists outside
/// the sanctioned wrapper shapes, every `sys.*` use is declared and
/// confined to trusted rights, and no `M_T` pointer is published while a
/// gate is open — for the module as written *and* for everything untrusted
/// entry points can reach through direct or indirect calls.
pub fn scan_module(module: &Module) -> Vec<ScanFinding> {
    let cg = CallGraph::build(module);
    let witnesses = witness_paths(module, &cg);
    let rights = Rights::compute(module, &cg);
    let mut findings = Vec::new();

    for (fi, func) in module.functions.iter().enumerate() {
        let sanctioned = is_sanctioned_wrapper(module, func);
        let tainted = trusted_ptr_regs(func);
        let witness = witnesses.get(&(fi as FuncId)).cloned().unwrap_or_default();
        let mut push = |block: usize, index: usize, kind: ScanFindingKind| {
            findings.push(ScanFinding {
                func: func.name.clone(),
                block: block as BlockId,
                index,
                kind,
                witness: witness.clone(),
            });
        };

        for (bi, block) in func.blocks.iter().enumerate() {
            let mut mask = rights.block_entry[fi][bi];
            for (ii, instr) in block.instrs.iter().enumerate() {
                match instr {
                    Instr::GateEnterUntrusted
                    | Instr::GateExitUntrusted
                    | Instr::GateEnterTrusted
                    | Instr::GateExitTrusted
                        if !sanctioned =>
                    {
                        let gate = match instr {
                            Instr::GateEnterUntrusted => "gate.enter.untrusted",
                            Instr::GateExitUntrusted => "gate.exit.untrusted",
                            Instr::GateEnterTrusted => "gate.enter.trusted",
                            _ => "gate.exit.trusted",
                        };
                        push(bi, ii, ScanFindingKind::UnsanctionedGate { gate });
                    }
                    Instr::Sys { kind, .. } => {
                        if mask & U != 0 {
                            push(
                                bi,
                                ii,
                                ScanFindingKind::SyscallOutsidePolicy {
                                    kind: *kind,
                                    untrusted_rights: true,
                                },
                            );
                        } else if !module.allowed_syscalls.contains(kind) {
                            push(
                                bi,
                                ii,
                                ScanFindingKind::SyscallOutsidePolicy {
                                    kind: *kind,
                                    untrusted_rights: false,
                                },
                            );
                        }
                    }
                    Instr::Store { value: Operand::Reg(r), .. }
                        if mask & U != 0 && tainted.contains(r) =>
                    {
                        push(bi, ii, ScanFindingKind::GateReentryHazard { reg: *r });
                    }
                    _ => {}
                }
                mask = step(mask, instr);
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse_module;

    fn scan_text(text: &str) -> Vec<ScanFinding> {
        scan_module(&parse_module(text).unwrap())
    }

    #[test]
    fn stage1_shapes_scan_clean() {
        // The exact output shapes of expand_annotations and
        // instrument_trusted_entries: both wrapper forms, an impl, a main.
        let findings = scan_text(
            "
untrusted fn @u::f(1) {
bb0:
  %1 = load %0, 0
  ret %1
}
fn @__pkru_gate_u::f(1) {
bb0:
  gate.enter.untrusted
  %1 = call @u::f(%0)
  gate.exit.untrusted
  ret %1
}
fn @__pkru_impl_cb(0) {
bb0:
  ret
}
fn @cb(0) {
bb0:
  gate.enter.trusted
  %0 = call @__pkru_impl_cb()
  gate.exit.trusted
  ret %0
}
fn @main(0) {
bb0:
  %0 = alloc 8
  %1 = call @__pkru_gate_u::f(%0)
  ret %1
}
",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn gadget_in_untrusted_function_flagged_with_witness() {
        // Garmr gadget reuse: the sandbox carries its own rights-restoring
        // gate instruction.
        let findings = scan_text(
            "
untrusted fn @u::evil(1) {
bb0:
  gate.exit.untrusted
  %1 = load %0, 0
  ret %1
}
",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].kind.code(), "SCAN001");
        assert_eq!(findings[0].witness, vec!["u::evil"]);
    }

    #[test]
    fn gadget_reached_through_indirect_call_flagged() {
        // gatelint's per-function walk never sees this: the gadget sits in
        // a trusted helper only reachable through an icall.
        let findings = scan_text(
            "
fn @gadget(1) {
bb0:
  gate.exit.untrusted
  ret %0
}
untrusted fn @u::entry(1) {
bb0:
  %1 = icall %0(7)
  ret %1
}
fn @main(0) {
bb0:
  %0 = addr @gadget
  ret
}
",
        );
        assert!(
            findings.iter().any(|f| f.kind.code() == "SCAN001"
                && f.func == "gadget"
                && f.witness == vec!["u::entry", "gadget"]),
            "{findings:?}"
        );
    }

    #[test]
    fn undeclared_syscall_flagged_and_declared_trusted_use_accepted() {
        let findings = scan_text(
            "
allow sys.map
fn @main(0) {
bb0:
  %0 = sys.map 4096, 3
  sys.mprotect %0, 4096, 1
  ret %0
}
",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(matches!(
            &findings[0].kind,
            ScanFindingKind::SyscallOutsidePolicy {
                kind: SysKind::Mprotect,
                untrusted_rights: false
            }
        ));
    }

    #[test]
    fn allow_listed_syscall_under_untrusted_rights_still_flagged() {
        // Allow-list widening: declaring the kind must not sanction its use
        // from the sandbox.
        let findings = scan_text(
            "
allow sys.mprotect
untrusted fn @u::evil(1) {
bb0:
  sys.mprotect %0, 4096, 3
  ret
}
",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(matches!(
            &findings[0].kind,
            ScanFindingKind::SyscallOutsidePolicy {
                kind: SysKind::Mprotect,
                untrusted_rights: true
            }
        ));
    }

    #[test]
    fn trusted_pointer_published_in_gate_region_flagged() {
        let findings = scan_text(
            "
untrusted fn @u::f(1) {
bb0:
  ret
}
fn @main(0) {
bb0:
  %0 = alloc 64
  %1 = ualloc 64
  gate.enter.untrusted
  store %1, 0, %0
  %2 = call @u::f(%1)
  gate.exit.untrusted
  ret %2
}
",
        );
        assert!(
            findings
                .iter()
                .any(|f| matches!(f.kind, ScanFindingKind::GateReentryHazard { reg: 0 })),
            "{findings:?}"
        );
        // The raw gates in @main are themselves unsanctioned.
        assert!(findings.iter().any(|f| f.kind.code() == "SCAN001"), "{findings:?}");
    }

    #[test]
    fn callee_of_gate_open_region_inherits_untrusted_rights() {
        // The publication hides one call deep: @leak has no gates of its
        // own but may be entered with untrusted rights in force.
        let findings = scan_text(
            "
untrusted fn @u::f(1) {
bb0:
  ret
}
fn @leak(1) {
bb0:
  %1 = alloc 8
  store %0, 0, %1
  ret
}
fn @main(0) {
bb0:
  %0 = ualloc 64
  gate.enter.untrusted
  call @leak(%0)
  %1 = call @u::f(%0)
  gate.exit.untrusted
  ret %1
}
",
        );
        assert!(
            findings.iter().any(|f| f.func == "leak" && f.kind.code() == "SCAN003"),
            "{findings:?}"
        );
    }

    #[test]
    fn trusted_pointer_as_gated_call_argument_not_flagged() {
        // E1's legitimate shape: the trusted pointer crosses as a register
        // argument to a sanctioned wrapper, never through memory.
        let findings = scan_text(
            "
untrusted fn @clib::process(1) {
bb0:
  %1 = load %0, 0
  ret %1
}
fn @__pkru_gate_clib::process(1) {
bb0:
  gate.enter.untrusted
  %1 = call @clib::process(%0)
  gate.exit.untrusted
  ret %1
}
fn @main(0) {
bb0:
  %0 = alloc 64
  store %0, 0, 1336
  %1 = call @__pkru_gate_clib::process(%0)
  ret %1
}
",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn finding_display_includes_code_and_witness() {
        let f = ScanFinding {
            func: "gadget".into(),
            block: 0,
            index: 2,
            kind: ScanFindingKind::UnsanctionedGate { gate: "gate.exit.untrusted" },
            witness: vec!["u::entry".into(), "gadget".into()],
        };
        assert_eq!(
            f.to_string(),
            "SCAN001 @gadget bb0: unsanctioned gate.exit.untrusted at index 2 \
             [reachable: @u::entry -> @gadget]"
        );
    }
}
