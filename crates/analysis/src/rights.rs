//! The may-rights analysis shared by the escape analysis and the scan.
//!
//! For every block of every function it computes which compartment's
//! rights may be in force on entry, as a two-bit mask ([`T`], [`U`]) — a
//! may-analysis, so both bits can be set at a join. Three rules decide it:
//!
//! - a gate instruction collapses the mask to the rights it establishes
//!   ([`step`]); everything else preserves it;
//! - an `untrusted` function is entered with [`U`], a trusted one with
//!   [`T`], plus [`U`] when some call that may run with untrusted rights
//!   may reach it — unless it begins with `gate.enter.trusted`
//!   ([`enters_trusted`]), which re-establishes trusted rights first;
//! - an indirect call may reach every arity-matched address-taken function
//!   ([`CallGraph::call_targets`]).
//!
//! A block no path reaches is entered with the empty mask, but the
//! instructions after a gate inside it still run under that gate's rights,
//! so a call there marks its callee as entered untrusted. That keeps the
//! scan's latent-gadget stance: code the CFG cannot reach today is still
//! code an attacker may jump into.

use lir::{Function, Instr, Module};

use crate::callgraph::CallGraph;

/// Rights mask bit: trusted rights may be in force.
pub(crate) const T: u8 = 1;
/// Rights mask bit: untrusted rights may be in force.
pub(crate) const U: u8 = 2;

/// The rights mask after `instr` executes under `mask`: the gates follow
/// the runtime (enter-untrusted and exit-trusted drop to `U`, their mirrors
/// restore `T`), and unbalanced nesting is the lint's concern, not this
/// approximation's.
pub(crate) fn step(mask: u8, instr: &Instr) -> u8 {
    match instr {
        Instr::GateEnterUntrusted | Instr::GateExitTrusted => U,
        Instr::GateExitUntrusted | Instr::GateEnterTrusted => T,
        _ => mask,
    }
}

/// Whether `func` re-enters the trusted compartment before anything else
/// (the wrapper `instrument_trusted_entries` synthesizes), which sanctions
/// calls that arrive with untrusted rights.
pub(crate) fn enters_trusted(func: &Function) -> bool {
    matches!(func.blocks.first().and_then(|b| b.instrs.first()), Some(Instr::GateEnterTrusted))
}

/// Per-block entry masks for every function of a module.
pub(crate) struct Rights {
    /// `block_entry[f][b]`: the rights that may be in force on entry to
    /// block `b` of function `f`; 0 for a block no path reaches.
    pub(crate) block_entry: Vec<Vec<u8>>,
}

impl Rights {
    /// Computes the interprocedural fixpoint over `module`.
    ///
    /// A function's entry mask only ever grows from `T` to `T|U`, so each
    /// function is walked at most twice.
    pub(crate) fn compute(module: &Module, graph: &CallGraph) -> Rights {
        let mut entry: Vec<u8> =
            module.functions.iter().map(|f| if f.attrs.untrusted { U } else { T }).collect();
        let mut block_entry = vec![Vec::new(); module.functions.len()];
        let mut work: Vec<usize> = (0..module.functions.len()).collect();
        while let Some(fi) = work.pop() {
            let func = &module.functions[fi];
            block_entry[fi] = block_masks(func, entry[fi]);
            for (block, &at_entry) in func.blocks.iter().zip(&block_entry[fi]) {
                let mut mask = at_entry;
                for instr in &block.instrs {
                    if mask & U != 0 {
                        for callee in graph.call_targets(module, instr) {
                            let ci = callee as usize;
                            if entry[ci] & U == 0 && !enters_trusted(module.function(callee)) {
                                entry[ci] |= U;
                                work.push(ci);
                            }
                        }
                    }
                    mask = step(mask, instr);
                }
            }
        }
        Rights { block_entry }
    }
}

/// The per-block entry masks of `func` entered with `entry`, iterated to
/// fixpoint over the CFG (join = bit union). Empty for a blockless
/// function.
fn block_masks(func: &Function, entry: u8) -> Vec<u8> {
    let mut at_entry = vec![0u8; func.blocks.len()];
    let Some(first) = at_entry.first_mut() else { return at_entry };
    *first = entry;
    let mut work = vec![0];
    while let Some(bi) = work.pop() {
        let mask = func.blocks[bi as usize].instrs.iter().fold(at_entry[bi as usize], step);
        for succ in func.successors(bi) {
            let Some(slot) = at_entry.get_mut(succ as usize) else { continue };
            if *slot | mask != *slot {
                *slot |= mask;
                work.push(succ);
            }
        }
    }
    at_entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse_module;

    /// The per-block entry masks of every function, by name.
    fn masks(text: &str) -> impl Fn(&str) -> Vec<u8> {
        let module = parse_module(text).unwrap();
        let rights = Rights::compute(&module, &CallGraph::build(&module));
        move |name| rights.block_entry[module.find(name).unwrap() as usize].clone()
    }

    #[test]
    fn gate_region_spans_blocks() {
        let of = masks(
            "
fn @main(0) {
bb0:
  gate.enter.untrusted
  br bb1
bb1:
  gate.exit.untrusted
  br bb2
bb2:
  ret
}
",
        );
        assert_eq!(of("main"), vec![T, U, T]);
    }

    #[test]
    fn trusted_entry_nested_inside_untrusted_region() {
        // Inside the T→U region a trusted-entry pair restores T for one
        // block; the call from the U part reaches the ungated @helper but
        // not the gated @cb, which re-enters trusted code first.
        let of = masks(
            "
fn @helper(0) {
bb0:
  ret
}
fn @cb(0) {
bb0:
  gate.enter.trusted
  call @helper()
  gate.exit.trusted
  ret
}
fn @main(0) {
bb0:
  gate.enter.untrusted
  br bb1
bb1:
  gate.enter.trusted
  br bb2
bb2:
  gate.exit.trusted
  call @cb()
  call @helper()
  br bb3
bb3:
  gate.exit.untrusted
  ret
}
",
        );
        assert_eq!(of("main"), vec![T, U, T, U]);
        assert_eq!(of("cb"), vec![T]);
        assert_eq!(of("helper"), vec![T | U]);
    }

    #[test]
    fn indirect_callback_reaches_ungated_trusted_function() {
        // The untrusted icall may land on any address-taken function of
        // matching arity: the ungated @cb inherits U, the gated @safe and
        // the arity-2 @other do not.
        let of = masks(
            "
fn @cb(1) {
bb0:
  ret %0
}
fn @__pkru_impl_safe(1) {
bb0:
  ret %0
}
fn @safe(1) {
bb0:
  gate.enter.trusted
  %1 = call @__pkru_impl_safe(%0)
  gate.exit.trusted
  ret %1
}
fn @other(2) {
bb0:
  ret %0
}
untrusted fn @u::invoke(2) {
bb0:
  %2 = icall %0(%1)
  ret %2
}
fn @main(0) {
bb0:
  %0 = addr @cb
  %1 = addr @safe
  %2 = addr @other
  ret
}
",
        );
        assert_eq!(of("u::invoke"), vec![U]);
        assert_eq!(of("cb"), vec![T | U]);
        assert_eq!(of("safe"), vec![T]);
        assert_eq!(of("__pkru_impl_safe"), vec![T]);
        assert_eq!(of("other"), vec![T]);
    }

    #[test]
    fn loop_join_unions_the_back_edge() {
        // The back edge from the gate-opening body joins U into the loop
        // header, and from there into both of its successors.
        let of = masks(
            "
fn @main(1) {
bb0:
  br bb1
bb1:
  brif %0, bb2, bb3
bb2:
  gate.enter.untrusted
  br bb1
bb3:
  ret
}
",
        );
        assert_eq!(of("main"), vec![T, T | U, T | U, T | U]);
    }

    #[test]
    fn call_after_gate_in_unreachable_block_enters_callee_untrusted() {
        // bb1 has no predecessor, so it is entered with the empty mask,
        // but the call after its gate still runs with untrusted rights.
        let of = masks(
            "
fn @helper(0) {
bb0:
  ret
}
fn @main(0) {
bb0:
  ret
bb1:
  gate.enter.untrusted
  call @helper()
  gate.exit.untrusted
  ret
}
",
        );
        assert_eq!(of("main"), vec![T, 0]);
        assert_eq!(of("helper"), vec![T | U]);
    }

    #[test]
    fn blockless_function_is_skipped_by_every_analysis() {
        // The parser accepts a function with no blocks; the verifier
        // rejects it, but the analyses must still return on it.
        let module = parse_module("fn @f(0) {\n}").unwrap();
        assert!(module.functions[0].blocks.is_empty());
        let rights = Rights::compute(&module, &CallGraph::build(&module));
        assert_eq!(rights.block_entry, vec![Vec::<u8>::new()]);
        assert!(crate::analyze(&module).may_run_untrusted.is_empty());
        assert!(crate::lint_module(&module).is_ok());
        assert!(crate::scan_module(&module).is_empty());
    }
}
