//! Interprocedural escape analysis: which allocation sites may leak to `U`.
//!
//! The dynamic profiler records a site when untrusted code *dereferences*
//! one of its objects (only loads and stores are rights-checked). The
//! static counterpart must therefore over-approximate exactly that event:
//!
//! > site `s` may-escape ⇔ some `load`/`store` that may execute with
//! > untrusted rights may dereference a pointer into an object of `s`.
//!
//! Two fixpoints compose the answer:
//!
//! 1. **Points-to** — a flow- and field-insensitive Andersen-style
//!    propagation. Abstract objects are the labeled allocation sites
//!    ([`AllocId`]); pointer values flow through moves, arithmetic,
//!    loads/stores (via one summary cell per site), direct calls, returns,
//!    and indirect calls resolved against arity-matched address-taken
//!    functions.
//! 2. **Rights** — which instructions may execute while the untrusted
//!    compartment's PKRU is in force: the may-rights fixpoint the scan
//!    shares (the crate's `rights` module), which covers untrusted
//!    functions, gate regions, and functions transitively callable from
//!    them without crossing a `gate.enter.trusted` entry wrapper.
//!
//! Both are monotone over finite lattices, so the fixpoints exist and the
//! result is a sound over-approximation of the dynamic profile — the
//! property [`check_profile_soundness`] enforces.

use std::collections::BTreeSet;
use std::path::Path;

use lir::{FuncId, Instr, Module, Operand, Reg};
use pkru_provenance::{AllocId, Profile, ProfileError};

use crate::callgraph::CallGraph;
use crate::rights::{step, Rights, U};

/// The result of [`analyze`].
#[derive(Clone, Debug)]
pub struct EscapeAnalysis {
    /// Sites whose objects may be dereferenced by the untrusted
    /// compartment — the static analogue of the dynamic profile.
    pub may_escape: BTreeSet<AllocId>,
    /// Functions any part of which may execute with untrusted rights.
    pub may_run_untrusted: BTreeSet<FuncId>,
    /// Total labeled allocation sites in the module (the census
    /// denominator).
    pub total_sites: usize,
}

impl EscapeAnalysis {
    /// Packages the may-escape set as a profile-schema artifact.
    pub fn static_profile(&self) -> StaticProfile {
        let mut profile = Profile::new();
        for site in &self.may_escape {
            profile.record(*site);
        }
        StaticProfile { profile }
    }
}

/// A statically computed profile, interchangeable with the dynamic one.
///
/// Serializes to the exact JSON schema of [`pkru_provenance::Profile`]
/// (with `faults_observed` fixed at 0, since nothing ran), so
/// `apply_profile` and the `enforce` CLI stage consume either artifact
/// without knowing which kind of analysis produced it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StaticProfile {
    /// The underlying profile; `shared_sites` is the may-escape set.
    pub profile: Profile,
}

impl StaticProfile {
    /// Whether `id` is in the static may-escape set.
    pub fn contains(&self, id: AllocId) -> bool {
        self.profile.contains(id)
    }

    /// Number of may-escape sites.
    pub fn len(&self) -> usize {
        self.profile.len()
    }

    /// Whether no site may escape.
    pub fn is_empty(&self) -> bool {
        self.profile.is_empty()
    }

    /// Serializes in the shared profile schema.
    pub fn to_json(&self) -> String {
        self.profile.to_json()
    }

    /// Writes the profile JSON to `path`.
    pub fn save(&self, path: &Path) -> Result<(), ProfileError> {
        self.profile.save(path)
    }
}

/// Checks that the static may-escape set covers the dynamic profile.
///
/// Every dynamically-observed shared site must be statically predicted;
/// a site that faulted at runtime but is absent from `static_profile`
/// means one of the two analyses is wrong (the static one missed a flow,
/// or the dynamic one recorded garbage). Returns the missing sites.
pub fn check_profile_soundness(
    static_profile: &StaticProfile,
    dynamic: &Profile,
) -> Result<(), Vec<AllocId>> {
    let missing: Vec<AllocId> = dynamic.sites().filter(|s| !static_profile.contains(*s)).collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(missing)
    }
}

/// Runs the escape analysis over `module`.
///
/// The module is expected to be the *annotated build* (gates inserted,
/// sites labeled); running it earlier is harmless but finds no labeled
/// sites to report.
pub fn analyze(module: &Module) -> EscapeAnalysis {
    let graph = CallGraph::build(module);
    let points_to = points_to_fixpoint(module, &graph);
    let rights = Rights::compute(module, &graph);

    // A site escapes when a load/store that may run untrusted may
    // dereference it; a function may run untrusted when any of its
    // instructions may.
    let mut may_escape = BTreeSet::new();
    let mut may_run_untrusted = BTreeSet::new();
    for (fi, func) in module.functions.iter().enumerate() {
        let mut seen = 0;
        for (block, &at_entry) in func.blocks.iter().zip(&rights.block_entry[fi]) {
            let mut mask = at_entry;
            seen |= mask;
            for instr in &block.instrs {
                match instr {
                    Instr::Load { addr, .. } | Instr::Store { addr, .. } if mask & U != 0 => {
                        may_escape.extend(points_to.of_operand(fi, *addr).iter().copied());
                    }
                    _ => {}
                }
                mask = step(mask, instr);
                seen |= mask;
            }
        }
        if seen & U != 0 {
            may_run_untrusted.insert(fi as FuncId);
        }
    }

    let total_sites = module
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .flat_map(|b| &b.instrs)
        .filter(|i| matches!(i, Instr::Alloc { id: Some(_), .. }))
        .count();

    EscapeAnalysis { may_escape, may_run_untrusted, total_sites }
}

// ---------------------------------------------------------------------------
// Points-to fixpoint
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PointsTo {
    /// `regs[f][r]` — sites register `r` of function `f` may point into.
    regs: Vec<Vec<BTreeSet<AllocId>>>,
    /// One field-insensitive summary cell per site: what pointers may be
    /// stored inside its objects.
    heap: std::collections::BTreeMap<AllocId, BTreeSet<AllocId>>,
    /// `rets[f]` — sites function `f` may return pointers into.
    rets: Vec<BTreeSet<AllocId>>,
}

impl PointsTo {
    fn of_operand(&self, func: usize, op: Operand) -> &BTreeSet<AllocId> {
        static EMPTY: BTreeSet<AllocId> = BTreeSet::new();
        match op {
            Operand::Reg(r) => self.regs[func].get(r as usize).unwrap_or(&EMPTY),
            Operand::Imm(_) => &EMPTY,
        }
    }

    /// Union `sites` into `regs[func][reg]`; true if anything was new.
    fn add(&mut self, func: usize, reg: Reg, sites: &BTreeSet<AllocId>) -> bool {
        let Some(slot) = self.regs[func].get_mut(reg as usize) else {
            return false;
        };
        let before = slot.len();
        slot.extend(sites.iter().copied());
        slot.len() != before
    }
}

fn points_to_fixpoint(module: &Module, graph: &CallGraph) -> PointsTo {
    let mut pt = PointsTo {
        regs: module
            .functions
            .iter()
            .map(|f| vec![BTreeSet::new(); f.num_regs.max(f.params) as usize])
            .collect(),
        heap: Default::default(),
        rets: vec![BTreeSet::new(); module.functions.len()],
    };

    let mut changed = true;
    while changed {
        changed = false;
        for (fi, func) in module.functions.iter().enumerate() {
            for block in &func.blocks {
                for instr in &block.instrs {
                    changed |= transfer(module, graph, &mut pt, fi, instr);
                }
            }
        }
    }
    pt
}

/// One flow-insensitive transfer step; returns whether any set grew.
fn transfer(
    module: &Module,
    graph: &CallGraph,
    pt: &mut PointsTo,
    fi: usize,
    instr: &Instr,
) -> bool {
    let mut changed = false;
    match instr {
        Instr::Alloc { dst, id: Some(id), .. } => {
            let site = BTreeSet::from([*id]);
            changed |= pt.add(fi, *dst, &site);
        }
        // Unlabeled allocations have no identity to track.
        Instr::Alloc { id: None, .. } => {}
        Instr::Realloc { dst, ptr, .. } => {
            // The object may move but keeps its allocation site.
            let sites = pt.of_operand(fi, *ptr).clone();
            changed |= pt.add(fi, *dst, &sites);
        }
        Instr::Bin { dst, lhs, rhs, .. } => {
            // Pointer arithmetic: the result may point wherever either
            // operand did.
            let mut sites = pt.of_operand(fi, *lhs).clone();
            sites.extend(pt.of_operand(fi, *rhs).iter().copied());
            changed |= pt.add(fi, *dst, &sites);
        }
        Instr::Load { dst, addr, .. } => {
            let objects = pt.of_operand(fi, *addr).clone();
            let mut loaded = BTreeSet::new();
            for o in &objects {
                if let Some(cell) = pt.heap.get(o) {
                    loaded.extend(cell.iter().copied());
                }
            }
            changed |= pt.add(fi, *dst, &loaded);
        }
        Instr::Store { addr, value, .. } => {
            let objects = pt.of_operand(fi, *addr).clone();
            let stored = pt.of_operand(fi, *value).clone();
            for o in objects {
                let cell = pt.heap.entry(o).or_default();
                let before = cell.len();
                cell.extend(stored.iter().copied());
                changed |= cell.len() != before;
            }
        }
        Instr::Call { dst, args, .. } | Instr::CallIndirect { dst, args, .. } => {
            for target in graph.call_targets(module, instr) {
                changed |= bind_call(pt, fi, target, dst, args);
            }
        }
        Instr::Ret { value: Some(v) } => {
            let sites = pt.of_operand(fi, *v).clone();
            let before = pt.rets[fi].len();
            pt.rets[fi].extend(sites);
            changed |= pt.rets[fi].len() != before;
        }
        _ => {}
    }
    changed
}

/// Flows argument pointers into callee parameters and the callee's return
/// set back into the destination register.
fn bind_call(
    pt: &mut PointsTo,
    caller: usize,
    callee: FuncId,
    dst: &Option<Reg>,
    args: &[Operand],
) -> bool {
    let callee = callee as usize;
    let mut changed = false;
    for (i, arg) in args.iter().enumerate() {
        let sites = pt.of_operand(caller, *arg).clone();
        if !sites.is_empty() && i < pt.regs[callee].len() {
            changed |= pt.add(callee, i as Reg, &sites);
        }
    }
    if let Some(d) = dst {
        let rets = pt.rets[callee].clone();
        changed |= pt.add(caller, *d, &rets);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse_module;

    /// The E1 program after (hand-applied) annotation expansion and site
    /// labeling: @main's first alloc is passed to the gated untrusted
    /// library, the second stays private.
    const GATED_E1: &str = "
untrusted fn @clib::process(1) {
bb0:
  %1 = load %0, 0
  %2 = add %1, 1
  store %0, 0, %2
  ret %2
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
  %1 = alloc 64
  store %0, 0, 1336
  store %1, 0, 41
  %2 = call @__pkru_gate_clib::process(%0)
  %3 = load %1, 0
  ret %2
}
";

    fn label_sites(module: &mut lir::Module) {
        // Mirror of the compiler pass: (func, block, in-block index).
        for (fi, func) in module.functions.iter_mut().enumerate() {
            if func.attrs.untrusted {
                continue;
            }
            for (bi, block) in func.blocks.iter_mut().enumerate() {
                let mut site = 0;
                for instr in &mut block.instrs {
                    if let Instr::Alloc { id, .. } = instr {
                        *id = Some(AllocId::new(fi as u32, bi as u32, site));
                        site += 1;
                    }
                }
            }
        }
    }

    fn analyzed(text: &str) -> (lir::Module, EscapeAnalysis) {
        let mut m = parse_module(text).unwrap();
        label_sites(&mut m);
        let a = analyze(&m);
        (m, a)
    }

    #[test]
    fn shared_site_escapes_private_stays() {
        let (m, a) = analyzed(GATED_E1);
        let main = m.find("main").unwrap();
        assert!(a.may_escape.contains(&AllocId::new(main, 0, 0)), "{:?}", a.may_escape);
        assert!(!a.may_escape.contains(&AllocId::new(main, 0, 1)), "{:?}", a.may_escape);
        assert_eq!(a.total_sites, 2);
        // The untrusted function runs untrusted; main never does.
        assert!(a.may_run_untrusted.contains(&m.find("clib::process").unwrap()));
        assert!(!a.may_run_untrusted.contains(&main));
    }

    #[test]
    fn escape_through_heap_indirection() {
        // main stores the payload pointer *inside* a shared carrier
        // object; the untrusted side loads it out and dereferences.
        let text = "
untrusted fn @u::deref(1) {
bb0:
  %1 = load %0, 0
  %2 = load %1, 0
  ret %2
}
fn @__pkru_gate_u::deref(1) {
bb0:
  gate.enter.untrusted
  %1 = call @u::deref(%0)
  gate.exit.untrusted
  ret %1
}
fn @main(0) {
bb0:
  %0 = alloc 16
  %1 = alloc 16
  store %0, 0, %1
  %2 = call @__pkru_gate_u::deref(%0)
  ret %2
}
";
        let (m, a) = analyzed(text);
        let main = m.find("main").unwrap();
        assert!(a.may_escape.contains(&AllocId::new(main, 0, 0)), "carrier escapes");
        assert!(a.may_escape.contains(&AllocId::new(main, 0, 1)), "payload escapes via load");
    }

    #[test]
    fn pointer_arithmetic_tracked() {
        let text = "
untrusted fn @u::read(1) {
bb0:
  %1 = load %0, 0
  ret %1
}
fn @__pkru_gate_u::read(1) {
bb0:
  gate.enter.untrusted
  %1 = call @u::read(%0)
  gate.exit.untrusted
  ret %1
}
fn @main(0) {
bb0:
  %0 = alloc 64
  %1 = add %0, 8
  %2 = call @__pkru_gate_u::read(%1)
  ret %2
}
";
        let (m, a) = analyzed(text);
        assert!(a.may_escape.contains(&AllocId::new(m.find("main").unwrap(), 0, 0)));
    }

    #[test]
    fn indirect_calls_resolve_to_address_taken() {
        // The untrusted side invokes a callback pointer; the callback
        // dereferences its argument without an entry gate, so the argument
        // escapes.
        let text = "
fn @cb(1) {
bb0:
  %1 = load %0, 0
  ret %1
}
untrusted fn @u::invoke(2) {
bb0:
  %2 = icall %0(%1)
  ret %2
}
fn @__pkru_gate_u::invoke(2) {
bb0:
  gate.enter.untrusted
  %2 = call @u::invoke(%0, %1)
  gate.exit.untrusted
  ret %2
}
fn @main(0) {
bb0:
  %0 = addr @cb
  %1 = alloc 8
  %2 = call @__pkru_gate_u::invoke(%0, %1)
  ret %2
}
";
        let (m, a) = analyzed(text);
        assert!(a.may_escape.contains(&AllocId::new(m.find("main").unwrap(), 0, 0)));
        // The ungated callback inherits untrusted rights.
        assert!(a.may_run_untrusted.contains(&m.find("cb").unwrap()));
    }

    #[test]
    fn trusted_entry_gate_stops_untrusted_propagation() {
        // Same shape, but the callback is fronted by a trusted-entry
        // gate: the impl runs trusted, so nothing escapes.
        let text = "
fn @__pkru_impl_cb(1) {
bb0:
  %1 = load %0, 0
  ret %1
}
fn @cb(1) {
bb0:
  gate.enter.trusted
  %1 = call @__pkru_impl_cb(%0)
  gate.exit.trusted
  ret %1
}
untrusted fn @u::invoke(2) {
bb0:
  %2 = icall %0(%1)
  ret %2
}
fn @__pkru_gate_u::invoke(2) {
bb0:
  gate.enter.untrusted
  %2 = call @u::invoke(%0, %1)
  gate.exit.untrusted
  ret %2
}
fn @main(0) {
bb0:
  %0 = addr @cb
  %1 = alloc 8
  %2 = call @__pkru_gate_u::invoke(%0, %1)
  ret %2
}
";
        let (m, a) = analyzed(text);
        assert!(a.may_escape.is_empty(), "{:?}", a.may_escape);
        assert!(!a.may_run_untrusted.contains(&m.find("__pkru_impl_cb").unwrap()));
    }

    #[test]
    fn call_after_gate_in_unreachable_block_runs_callee_untrusted() {
        // bb1 of @main has no predecessor, but the call after its gate
        // still runs with untrusted rights, so @helper's load may
        // dereference main's site under U. Before the escape analysis and
        // the scan shared one rights fixpoint, this analysis skipped
        // unreachable blocks when marking callees, and neither @helper nor
        // the site was reported.
        let text = "
fn @helper(1) {
bb0:
  %1 = load %0, 0
  ret %1
}
fn @main(0) {
bb0:
  %0 = alloc 8
  ret
bb1:
  gate.enter.untrusted
  %1 = call @helper(%0)
  gate.exit.untrusted
  ret
}
";
        let (m, a) = analyzed(text);
        assert!(a.may_run_untrusted.contains(&m.find("helper").unwrap()));
        assert!(a.may_escape.contains(&AllocId::new(m.find("main").unwrap(), 0, 0)));
    }

    #[test]
    fn static_profile_schema_roundtrips() {
        let (_, a) = analyzed(GATED_E1);
        let sp = a.static_profile();
        assert_eq!(sp.len(), 1);
        assert!(!sp.is_empty());
        let reparsed = Profile::from_json(&sp.to_json()).unwrap();
        assert_eq!(reparsed, sp.profile);
    }

    #[test]
    fn soundness_comparator_reports_missing_sites() {
        let (_, a) = analyzed(GATED_E1);
        let sp = a.static_profile();
        let mut dynamic = Profile::new();
        // A dynamic subset passes.
        assert!(check_profile_soundness(&sp, &dynamic).is_ok());
        for s in sp.profile.sites() {
            dynamic.record(s);
        }
        assert!(check_profile_soundness(&sp, &dynamic).is_ok());
        // A site the static analysis never predicted fails.
        dynamic.record(AllocId::new(99, 0, 0));
        let missing = check_profile_soundness(&sp, &dynamic).unwrap_err();
        assert_eq!(missing, vec![AllocId::new(99, 0, 0)]);
    }

    #[test]
    fn returned_pointer_dereferenced_by_u_escapes() {
        // A trusted helper returns a fresh object; main hands it to U.
        let text = "
fn @make(0) {
bb0:
  %0 = alloc 32
  ret %0
}
untrusted fn @u::read(1) {
bb0:
  %1 = load %0, 0
  ret %1
}
fn @__pkru_gate_u::read(1) {
bb0:
  gate.enter.untrusted
  %1 = call @u::read(%0)
  gate.exit.untrusted
  ret %1
}
fn @main(0) {
bb0:
  %0 = call @make()
  %1 = call @__pkru_gate_u::read(%0)
  ret %1
}
";
        let (m, a) = analyzed(text);
        assert!(a.may_escape.contains(&AllocId::new(m.find("make").unwrap(), 0, 0)));
    }
}
