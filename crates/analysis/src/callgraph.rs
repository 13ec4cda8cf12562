//! The module call graph, with indirect calls resolved conservatively.

use std::collections::BTreeSet;

use lir::{address_taken, FuncId, Instr, Module};

/// A call graph over a [`Module`].
///
/// Direct edges come from `call @f` instructions. Indirect calls cannot be
/// resolved exactly, so each `icall` is given an edge to *every*
/// address-taken function whose parameter count matches the call — the
/// same conservative assumption PKRU-Safe's trusted-entry pass makes when
/// it gates all exported and address-taken functions (§3.3).
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// `callees[f]` = everything `f` may call (direct ∪ resolved indirect).
    callees: Vec<BTreeSet<FuncId>>,
    /// Functions whose address is taken anywhere in the module.
    address_taken: BTreeSet<FuncId>,
}

impl CallGraph {
    /// Builds the call graph for `module`.
    ///
    /// Calls to names not present in the module (a verifier error) are
    /// ignored rather than panicking.
    pub fn build(module: &Module) -> CallGraph {
        let mut graph = CallGraph { callees: Vec::new(), address_taken: address_taken(module) };
        graph.callees = module
            .functions
            .iter()
            .map(|func| {
                let instrs = func.blocks.iter().flat_map(|b| &b.instrs);
                instrs.flat_map(|instr| graph.call_targets(module, instr)).collect()
            })
            .collect();
        graph
    }

    /// Everything `func` may call.
    pub fn callees(&self, func: FuncId) -> impl Iterator<Item = FuncId> + '_ {
        self.callees.get(func as usize).into_iter().flatten().copied()
    }

    /// The set of possible targets of an indirect call with `arity`
    /// arguments: arity-matched address-taken functions.
    pub fn indirect_targets<'a>(
        &'a self,
        module: &'a Module,
        arity: u32,
    ) -> impl Iterator<Item = FuncId> + 'a {
        self.address_taken.iter().copied().filter(move |t| module.function(*t).params == arity)
    }

    /// What `instr` may call: the callee of a direct call (if the module
    /// defines it), the [`CallGraph::indirect_targets`] of an indirect
    /// one, nothing for any other instruction.
    pub(crate) fn call_targets(&self, module: &Module, instr: &Instr) -> Vec<FuncId> {
        match instr {
            Instr::Call { callee, .. } => module.find(callee).into_iter().collect(),
            Instr::CallIndirect { args, .. } => {
                self.indirect_targets(module, args.len() as u32).collect()
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse_module;

    #[test]
    fn direct_and_indirect_edges() {
        let m = parse_module(
            "
fn @leaf(1) {
bb0:
  ret %0
}
fn @other(2) {
bb0:
  ret
}
fn @mid(1) {
bb0:
  %1 = icall %0(5)
  ret %1
}
fn @main(0) {
bb0:
  %0 = addr @leaf
  %1 = call @mid(%0)
  ret %1
}
",
        )
        .unwrap();
        let cg = CallGraph::build(&m);
        let (leaf, mid, main) =
            (m.find("leaf").unwrap(), m.find("mid").unwrap(), m.find("main").unwrap());
        // main calls mid directly; mid's icall resolves to the arity-1
        // address-taken function only (not @other, arity 2, never taken).
        assert_eq!(cg.callees(main).collect::<Vec<_>>(), vec![mid]);
        assert_eq!(cg.callees(mid).collect::<Vec<_>>(), vec![leaf]);
        assert_eq!(cg.indirect_targets(&m, 1).collect::<Vec<_>>(), vec![leaf]);
        assert_eq!(cg.indirect_targets(&m, 2).count(), 0);
    }
}
