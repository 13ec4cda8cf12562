//! Path-sensitive gate-integrity lint.
//!
//! The compiler passes are supposed to leave gates perfectly balanced and
//! every compartment crossing bracketed; this lint re-derives that from the
//! instruction stream alone, so it catches both pass bugs and hand-edited
//! modules. Per function it walks the CFG tracking the open-gate state
//! `(untrusted depth, trusted depth, current rights)` along each path:
//!
//! - every `gate.exit.*` must close a matching `gate.enter.*`;
//! - no path may return with a gate region still open;
//! - joins must agree on the gate state (the discipline is
//!   path-independent by construction, so disagreement is a bug);
//! - direct trusted→untrusted calls must happen with untrusted rights in
//!   force (i.e. inside a T→U gate region);
//! - indirect calls are resolved conservatively (arity-matched
//!   address-taken functions): with trusted rights they must not be able to
//!   reach an untrusted function, and with untrusted rights they must not
//!   be able to reach a trusted function lacking a `gate.enter.trusted`
//!   prologue;
//! - untrusted functions contain no gate or provenance instructions;
//! - no trusted-pool allocation may execute while the untrusted
//!   compartment is active.

use std::collections::HashMap;

use lir::{BlockId, Function, Instr, Module, SiteDomain};

use crate::callgraph::CallGraph;
use crate::diag::{LintError, LintErrorKind};
use crate::rights::enters_trusted;

/// Rights in force at a program point, tracked alongside the depths so
/// nested `enter.trusted` inside a T→U region is modeled correctly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CurRights {
    Trusted,
    Untrusted,
}

/// The path state: open gate depths plus current rights.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct GateState {
    untrusted_depth: u32,
    trusted_depth: u32,
    rights: CurRights,
}

impl GateState {
    fn entry() -> GateState {
        GateState { untrusted_depth: 0, trusted_depth: 0, rights: CurRights::Trusted }
    }
}

/// Lints `module`, returning every gate-integrity defect found.
pub fn lint_module(module: &Module) -> Result<(), Vec<LintError>> {
    let mut errors = Vec::new();
    let graph = CallGraph::build(module);
    for func in &module.functions {
        if func.attrs.untrusted {
            lint_untrusted_function(func, &mut errors);
        } else {
            lint_trusted_function(module, func, &graph, &mut errors);
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Untrusted code must contain neither gates nor provenance hooks; with
/// those ruled out there is no gate state to track.
fn lint_untrusted_function(func: &Function, errors: &mut Vec<LintError>) {
    for (bi, block) in func.blocks.iter().enumerate() {
        for (ii, instr) in block.instrs.iter().enumerate() {
            let kind = match instr {
                Instr::GateEnterUntrusted
                | Instr::GateExitUntrusted
                | Instr::GateEnterTrusted
                | Instr::GateExitTrusted => Some(LintErrorKind::GateInUntrustedFunction),
                Instr::ProvLogAlloc { .. }
                | Instr::ProvLogRealloc { .. }
                | Instr::ProvLogDealloc { .. } => Some(LintErrorKind::ProvHookInUntrustedFunction),
                _ => None,
            };
            if let Some(kind) = kind {
                errors.push(LintError {
                    func: func.name.clone(),
                    block: bi as BlockId,
                    index: ii,
                    kind,
                });
            }
        }
    }
}

fn lint_trusted_function(
    module: &Module,
    func: &Function,
    graph: &CallGraph,
    errors: &mut Vec<LintError>,
) {
    if func.blocks.is_empty() {
        return;
    }
    let error = |errors: &mut Vec<LintError>, block: BlockId, index: usize, kind| {
        errors.push(LintError { func: func.name.clone(), block, index, kind });
    };

    // DFS over blocks carrying the path state. The gate discipline must be
    // path-independent, so each block has exactly one legal entry state;
    // a second, different one is reported once and not explored (which
    // also bounds the walk — every block is entered at most twice).
    let mut seen: HashMap<BlockId, GateState> = HashMap::new();
    let mut inconsistent_reported: Vec<BlockId> = Vec::new();
    let mut work: Vec<(BlockId, GateState)> = vec![(0, GateState::entry())];

    while let Some((bi, entry_state)) = work.pop() {
        match seen.get(&bi) {
            Some(previous) if *previous == entry_state => continue,
            Some(_) => {
                if !inconsistent_reported.contains(&bi) {
                    inconsistent_reported.push(bi);
                    error(errors, bi, 0, LintErrorKind::InconsistentGateState);
                }
                continue;
            }
            None => {
                seen.insert(bi, entry_state);
            }
        }

        let mut state = entry_state;
        let block = &func.blocks[bi as usize];
        for (ii, instr) in block.instrs.iter().enumerate() {
            match instr {
                Instr::GateEnterUntrusted => {
                    state.untrusted_depth += 1;
                    state.rights = CurRights::Untrusted;
                }
                Instr::GateExitUntrusted => {
                    if state.untrusted_depth == 0 {
                        error(
                            errors,
                            bi,
                            ii,
                            LintErrorKind::UnbalancedGateExit { gate: "gate.exit.untrusted" },
                        );
                    } else {
                        state.untrusted_depth -= 1;
                    }
                    state.rights = CurRights::Trusted;
                }
                Instr::GateEnterTrusted => {
                    state.trusted_depth += 1;
                    state.rights = CurRights::Trusted;
                }
                Instr::GateExitTrusted => {
                    if state.trusted_depth == 0 {
                        error(
                            errors,
                            bi,
                            ii,
                            LintErrorKind::UnbalancedGateExit { gate: "gate.exit.trusted" },
                        );
                    } else {
                        state.trusted_depth -= 1;
                    }
                    state.rights = CurRights::Untrusted;
                }
                Instr::Call { callee, .. } => {
                    let untrusted_callee =
                        module.find(callee).is_some_and(|id| module.function(id).attrs.untrusted);
                    if untrusted_callee && state.rights == CurRights::Trusted {
                        error(
                            errors,
                            bi,
                            ii,
                            LintErrorKind::UngatedUntrustedCall { callee: callee.clone() },
                        );
                    }
                }
                Instr::CallIndirect { args, .. } => {
                    // Report each hazardous may-target of the callgraph's
                    // conservative resolution. A trusted function without
                    // the trusted-entry prologue must never be reached
                    // while untrusted rights are in force.
                    for target in graph.indirect_targets(module, args.len() as u32) {
                        let tf = module.function(target);
                        if tf.attrs.untrusted && state.rights == CurRights::Trusted {
                            error(
                                errors,
                                bi,
                                ii,
                                LintErrorKind::UngatedUntrustedIndirectCall {
                                    callee: tf.name.clone(),
                                },
                            );
                        } else if !tf.attrs.untrusted
                            && state.rights == CurRights::Untrusted
                            && !enters_trusted(tf)
                        {
                            error(
                                errors,
                                bi,
                                ii,
                                LintErrorKind::IndirectCallToUngatedTrusted {
                                    callee: tf.name.clone(),
                                },
                            );
                        }
                    }
                }
                Instr::Alloc { domain: SiteDomain::Trusted, .. }
                    if state.rights == CurRights::Untrusted =>
                {
                    error(errors, bi, ii, LintErrorKind::TrustedAllocInUntrustedRegion);
                }
                Instr::Ret { .. } if state.untrusted_depth != 0 || state.trusted_depth != 0 => {
                    error(
                        errors,
                        bi,
                        ii,
                        LintErrorKind::UnmatchedGateAtReturn {
                            untrusted_depth: state.untrusted_depth,
                            trusted_depth: state.trusted_depth,
                        },
                    );
                }
                _ => {}
            }
        }
        for succ in func.successors(bi) {
            if (succ as usize) < func.blocks.len() {
                work.push((succ, state));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse_module;

    fn lint_text(text: &str) -> Result<(), Vec<LintError>> {
        lint_module(&parse_module(text).unwrap())
    }

    #[test]
    fn well_gated_module_is_clean() {
        // The shape the passes emit: untrusted body, T→U wrapper,
        // trusted-entry wrapper around an impl.
        lint_text(
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
        )
        .unwrap();
    }

    #[test]
    fn unbalanced_exit_flagged() {
        let errs = lint_text("fn @f(0) {\nbb0:\n  gate.exit.untrusted\n  ret\n}").unwrap_err();
        assert!(
            matches!(
                &errs[0].kind,
                LintErrorKind::UnbalancedGateExit { gate: "gate.exit.untrusted" }
            ),
            "{errs:?}"
        );
    }

    #[test]
    fn open_gate_at_return_flagged() {
        let errs = lint_text("fn @f(0) {\nbb0:\n  gate.enter.untrusted\n  ret\n}").unwrap_err();
        assert!(
            matches!(
                &errs[0].kind,
                LintErrorKind::UnmatchedGateAtReturn { untrusted_depth: 1, trusted_depth: 0 }
            ),
            "{errs:?}"
        );
    }

    #[test]
    fn ungated_untrusted_call_flagged() {
        let errs = lint_text(
            "
untrusted fn @u::f(0) {
bb0:
  ret
}
fn @main(0) {
bb0:
  %0 = call @u::f()
  ret %0
}
",
        )
        .unwrap_err();
        assert!(
            matches!(&errs[0].kind, LintErrorKind::UngatedUntrustedCall { callee } if callee == "u::f"),
            "{errs:?}"
        );
    }

    #[test]
    fn ungated_indirect_untrusted_call_flagged() {
        // Regression: the icall may reach @u::f (address-taken, arity 1)
        // with trusted rights in force; this used to pass silently.
        let errs = lint_text(
            "
untrusted fn @u::f(1) {
bb0:
  ret %0
}
fn @main(0) {
bb0:
  %0 = addr @u::f
  %1 = icall %0(7)
  ret %1
}
",
        )
        .unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(
            matches!(&errs[0].kind, LintErrorKind::UngatedUntrustedIndirectCall { callee } if callee == "u::f"),
            "{errs:?}"
        );
        assert_eq!(
            errs[0].to_string(),
            "@main bb0: ungated indirect call at index 1 may target untrusted @u::f"
        );
    }

    #[test]
    fn indirect_call_in_gate_region_to_ungated_trusted_flagged() {
        // Inside the T→U region an icall may land on @helper, trusted code
        // with no trusted-entry prologue — it would run with the sandbox's
        // PKRU.
        let errs = lint_text(
            "
fn @helper(1) {
bb0:
  %1 = alloc 8
  ret %1
}
fn @main(0) {
bb0:
  %0 = addr @helper
  gate.enter.untrusted
  %1 = icall %0(7)
  gate.exit.untrusted
  ret %1
}
",
        )
        .unwrap_err();
        assert!(
            errs.iter().any(|e| matches!(
                &e.kind,
                LintErrorKind::IndirectCallToUngatedTrusted { callee } if callee == "helper"
            )),
            "{errs:?}"
        );
    }

    #[test]
    fn indirect_call_to_gated_trusted_entry_accepted() {
        // The instrumented shape: the address-taken trusted entry starts
        // with gate.enter.trusted, so reaching it from a gate-open region
        // is sanctioned.
        lint_text(
            "
fn @__pkru_impl_cb(1) {
bb0:
  ret %0
}
fn @cb(1) {
bb0:
  gate.enter.trusted
  %1 = call @__pkru_impl_cb(%0)
  gate.exit.trusted
  ret %1
}
untrusted fn @u::f(0) {
bb0:
  ret
}
fn @main(0) {
bb0:
  %0 = addr @cb
  gate.enter.untrusted
  %1 = icall %0(7)
  gate.exit.untrusted
  ret %1
}
",
        )
        .unwrap();
    }

    #[test]
    fn trusted_alloc_in_untrusted_region_flagged() {
        let errs = lint_text(
            "
untrusted fn @u::f(0) {
bb0:
  ret
}
fn @main(0) {
bb0:
  gate.enter.untrusted
  %0 = call @u::f()
  %1 = alloc 8
  gate.exit.untrusted
  ret %1
}
",
        )
        .unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(matches!(&errs[0].kind, LintErrorKind::TrustedAllocInUntrustedRegion));
        assert_eq!(
            errs[0].to_string(),
            "@main bb0: trusted-pool alloc at index 2 while the untrusted compartment is active"
        );
    }

    #[test]
    fn untrusted_alloc_in_untrusted_region_allowed() {
        lint_text(
            "
untrusted fn @u::f(0) {
bb0:
  ret
}
fn @main(0) {
bb0:
  gate.enter.untrusted
  %0 = call @u::f()
  %1 = ualloc 8
  gate.exit.untrusted
  ret %1
}
",
        )
        .unwrap();
    }

    #[test]
    fn gates_and_prov_hooks_in_untrusted_code_flagged() {
        let errs = lint_text(
            "
untrusted fn @u::f(0) {
bb0:
  gate.exit.untrusted
  %0 = alloc 8
  prov.log_alloc %0, 8, f0.b0.s0
  ret
}
",
        )
        .unwrap_err();
        assert!(errs.iter().any(|e| matches!(e.kind, LintErrorKind::GateInUntrustedFunction)));
        assert!(
            errs.iter().any(|e| matches!(e.kind, LintErrorKind::ProvHookInUntrustedFunction)),
            "{errs:?}"
        );
    }

    #[test]
    fn inconsistent_join_flagged() {
        // bb2 is reachable with the gate both open and closed.
        let errs = lint_text(
            "
fn @f(1) {
bb0:
  brif %0, bb1, bb2
bb1:
  gate.enter.untrusted
  br bb2
bb2:
  ret
}
",
        )
        .unwrap_err();
        assert!(
            errs.iter().any(|e| matches!(e.kind, LintErrorKind::InconsistentGateState)),
            "{errs:?}"
        );
    }

    #[test]
    fn balanced_gates_across_blocks_accepted() {
        lint_text(
            "
untrusted fn @u::f(0) {
bb0:
  ret
}
fn @f(1) {
bb0:
  gate.enter.untrusted
  brif %0, bb1, bb2
bb1:
  %1 = call @u::f()
  br bb3
bb2:
  %1 = call @u::f()
  br bb3
bb3:
  gate.exit.untrusted
  ret %1
}
",
        )
        .unwrap();
    }

    #[test]
    fn loops_terminate_and_stay_consistent() {
        lint_text(
            "
fn @loop(1) {
bb0:
  %1 = const 0
  br bb1
bb1:
  %1 = add %1, 1
  %2 = lt %1, %0
  brif %2, bb1, bb2
bb2:
  ret %1
}
",
        )
        .unwrap();
    }
}
