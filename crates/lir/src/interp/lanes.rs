//! The threaded op stream pinned against the legacy match loop.
//!
//! Every test runs the same module through [`Interp`] and [`Legacy`] on
//! fresh machines and requires bit-identical results, traps, `instret`,
//! fuel, output and fault counts: decoding changes *when* work happens,
//! never *what* happens. The random-module proptest is deliberately
//! unhygienic (missing blocks and callees, garbage pointers, runaway
//! loops bounded by fuel, recursion bounded by `MAX_DEPTH`), because the
//! lanes must agree on traps exactly as much as on values.

use proptest::prelude::*;

use super::{Interp, Legacy};
use crate::ir::{BinOp, Block, Function, Instr, Module, Operand, SiteDomain};
use crate::machine::{FaultPolicy, Machine};
use crate::parse::parse_module;
use crate::threaded::ThreadedModule;
use crate::trap::Trap;

/// Everything a lane's run observably produced.
#[derive(Debug, PartialEq)]
struct Observation {
    result: Result<Option<i64>, Trap>,
    instret: u64,
    /// The step budget left.
    fuel: u64,
    output: Vec<i64>,
    pkey_faults: u64,
}

/// One lane: a run of `entry` from a fresh machine with a 20,000-step
/// budget (random modules may loop forever). Returns what the run
/// produced and the superinstructions it executed.
fn lane(module: &Module, entry: &str, args: &[i64], threaded: bool) -> (Observation, u64) {
    let mut machine = Machine::split(FaultPolicy::Crash).unwrap();
    machine.fuel = 20_000;
    let result = if threaded {
        Interp::new(module, &mut machine).run(entry, args)
    } else {
        Legacy::new(module, &mut machine).run(entry, args)
    };
    let observation = Observation {
        result,
        instret: machine.instret,
        fuel: machine.fuel,
        output: std::mem::take(&mut machine.output),
        pkey_faults: machine.space.stats().pkey_faults,
    };
    (observation, machine.fused_ops)
}

/// Runs `entry` through both lanes, asserts lane equality, and returns
/// the shared result plus the threaded lane's superinstruction count.
fn run_both(module: &Module, entry: &str, args: &[i64]) -> (Result<Option<i64>, Trap>, u64) {
    let (legacy, legacy_fused) = lane(module, entry, args, false);
    let (threaded, fused) = lane(module, entry, args, true);
    assert_eq!(legacy, threaded, "lanes diverge");
    assert_eq!(legacy_fused, 0, "legacy lane must not fuse");
    (threaded.result, fused)
}

#[test]
fn undefined_callee_still_traps_with_the_same_message() {
    // Resolution moved to decode time; the trap must stay lazy (only if
    // the call executes) and carry the identical by-name message.
    let module =
        parse_module("fn @f(0) {\nbb0:\n  print 7\n  %0 = call @missing()\n  ret %0\n}").unwrap();
    let (result, _) = run_both(&module, "f", &[]);
    assert_eq!(result, Err(Trap::UndefinedFunction("missing".to_string())));
}

#[test]
fn undefined_func_addr_still_traps_with_the_same_message() {
    let module = parse_module("fn @f(0) {\nbb0:\n  %0 = addr @nowhere\n  ret %0\n}").unwrap();
    let (result, _) = run_both(&module, "f", &[]);
    assert_eq!(result, Err(Trap::UndefinedFunction("nowhere".to_string())));
}

#[test]
fn undefined_callee_on_untaken_path_never_traps() {
    // The bad call sits on the not-taken branch: decode must not turn a
    // lazy runtime trap into an eager decode failure.
    let module = parse_module(
        "fn @f(1) {\nbb0:\n  brif %0, bb1, bb2\nbb1:\n  %1 = call @missing()\n  ret %1\nbb2:\n  ret 11\n}",
    )
    .unwrap();
    let (result, _) = run_both(&module, "f", &[0]);
    assert_eq!(result, Ok(Some(11)));
    let (result, _) = run_both(&module, "f", &[1]);
    assert_eq!(result, Err(Trap::UndefinedFunction("missing".to_string())));
}

#[test]
fn max_depth_unchanged_by_frame_arena() {
    // MAX_DEPTH is 200: a 200-deep chain (entry at depth 0) completes,
    // one deeper overflows — in both lanes, at the same instret.
    let module = parse_module(
        "fn @f(1) {\nbb0:\n  %1 = eq %0, 0\n  brif %1, bb1, bb2\nbb1:\n  ret 0\nbb2:\n  %2 = sub %0, 1\n  %3 = call @f(%2)\n  ret %3\n}",
    )
    .unwrap();
    let (ok, _) = run_both(&module, "f", &[200]);
    assert_eq!(ok, Ok(Some(0)));
    let (overflow, _) = run_both(&module, "f", &[201]);
    assert_eq!(overflow, Err(Trap::StackOverflow));
}

#[test]
fn compare_branch_pairs_fuse_and_stay_bit_identical() {
    // sum 1..=10: the loop back-edge is a `le` feeding `brif` — a fused
    // superinstruction in the threaded lane.
    let module = parse_module(
        "fn @f(0) {\nbb0:\n  %0 = const 0\n  %1 = const 1\n  br bb1\nbb1:\n  %0 = add %0, %1\n  %1 = add %1, 1\n  %2 = le %1, 10\n  brif %2, bb1, bb2\nbb2:\n  ret %0\n}",
    )
    .unwrap();
    assert!(ThreadedModule::decode(&module).fused_sites() >= 1, "back-edge must fuse");
    let (result, fused_ops) = run_both(&module, "f", &[]);
    assert_eq!(result, Ok(Some(55)));
    assert_eq!(fused_ops, 10, "one fused execution per loop iteration");
}

#[test]
fn fused_division_by_zero_traps_at_the_same_instruction() {
    // The Bin half of a fused pair can trap; the trap must land after
    // the Bin's own tick, exactly as the unfused lane sequences it.
    let module =
        parse_module("fn @f(1) {\nbb0:\n  %1 = div 10, %0\n  brif %1, bb1, bb1\nbb1:\n  ret %1\n}")
            .unwrap();
    let (result, _) = run_both(&module, "f", &[0]);
    assert_eq!(result, Err(Trap::DivisionByZero));
    let (result, _) = run_both(&module, "f", &[5]);
    assert_eq!(result, Ok(Some(2)));
}

#[test]
fn bad_block_target_parity() {
    // A branch to a block the function does not have: the legacy loop
    // faults on `blocks.get` *before* ticking the next instruction.
    let mut module = Module::new();
    let mut f = Function::new("f", 0);
    f.blocks[0].instrs.push(Instr::Br { target: 5 });
    module.add_function(f);
    let (result, _) = run_both(&module, "f", &[]);
    assert_eq!(result, Err(Trap::BadBlock(5)));
}

#[test]
fn missing_terminator_parity() {
    let mut module = Module::new();
    let mut f = Function::new("f", 0);
    f.num_regs = 1;
    f.blocks[0].instrs.push(Instr::Const { dst: 0, value: 3 });
    module.add_function(f);
    let (result, _) = run_both(&module, "f", &[]);
    assert_eq!(result, Err(Trap::MissingTerminator));

    // An entirely empty entry block trips the same trap at instret 0.
    let mut module = Module::new();
    module.add_function(Function::new("g", 0));
    let (result, _) = run_both(&module, "g", &[]);
    assert_eq!(result, Err(Trap::MissingTerminator));
}

#[test]
fn gates_and_callbacks_match_across_lanes() {
    // Indirect calls through pre-resolved addresses plus gate pairs:
    // transition counts and PKRU round-trips must agree.
    let src = "
fn @double(1) {
bb0:
  %1 = mul %0, 2
  ret %1
}
fn @apply(2) {
bb0:
  %2 = icall %0(%1)
  ret %2
}
fn @main(0) {
bb0:
  %0 = addr @double
  %1 = call @apply(%0, 21)
  ret %1
}
";
    let module = parse_module(src).unwrap();
    let (result, _) = run_both(&module, "main", &[]);
    assert_eq!(result, Ok(Some(42)));
}

#[test]
fn operand_immediates_round_trip_through_fused_ops() {
    // Imm/Reg operand mixes through the fused compare (regression net
    // for the operand-copy in decode).
    let module = parse_module(
        "fn @f(2) {\nbb0:\n  %2 = lt %0, %1\n  brif %2, bb1, bb2\nbb1:\n  ret 1\nbb2:\n  ret 0\n}",
    )
    .unwrap();
    for (a, b, want) in [(1, 2, 1), (2, 1, 0), (-5, 0, 1), (i64::MAX, i64::MIN, 0)] {
        let (result, _) = run_both(&module, "f", &[a, b]);
        assert_eq!(result, Ok(Some(want)), "{a} < {b}");
    }
}

/// The profiling build (`Pipeline::profiling_build`, dumped) of a
/// program whose untrusted `clib::read2` loads two words of a trusted
/// allocation: gate wrappers around the call and provenance logging at
/// the allocation site.
const PROFILING_BUILD: &str = "
untrusted fn @clib::read2(1) {
bb0:
  %1 = load %0, 0
  %2 = load %0, 8
  %3 = add %1, %2
  ret %3
}
fn @main(0) {
bb0:
  %0 = alloc 16  ; site f1.b0.s0
  prov.log_alloc %0, 16, f1.b0.s0
  store %0, 0, 30
  store %0, 8, 12
  %1 = call @__pkru_gate_clib::read2(%0)
  ret %1
}
fn @__pkru_gate_clib::read2(1) {
bb0:
  gate.enter.untrusted
  %1 = call @clib::read2(%0)
  gate.exit.untrusted
  ret %1
}
";

#[test]
fn profiling_fault_accounting_matches_across_lanes() {
    // Faulting accesses resolved by the profiler (single-step + record)
    // must count identically: same profile, same faults_observed.
    let app = parse_module(PROFILING_BUILD).unwrap();
    let mut legacy = Machine::split(FaultPolicy::Profile).unwrap();
    let r_legacy = Legacy::new(&app, &mut legacy).run("main", &[]);
    let mut threaded = Machine::split(FaultPolicy::Profile).unwrap();
    let r_threaded = Interp::new(&app, &mut threaded).run("main", &[]);
    assert_eq!(r_legacy, r_threaded);
    assert_eq!(r_threaded, Ok(Some(42)));
    assert_eq!(legacy.instret, threaded.instret);
    assert_eq!(legacy.profiler.profile.len(), threaded.profiler.profile.len());
    assert_eq!(legacy.profiler.profile.faults_observed, threaded.profiler.profile.faults_observed);
    assert!(threaded.profiler.profile.faults_observed > 0, "the untrusted loads must fault");
}

// ---------------------------------------------------------------------------
// Random modules.
// ---------------------------------------------------------------------------

/// Deterministic op-stream generator (xorshift64*), so each proptest
/// seed maps to exactly one module in both lanes.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

const BIN_OPS: [BinOp; 16] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

fn operand(rng: &mut XorShift) -> Operand {
    if rng.below(10) < 7 {
        Operand::Reg(rng.below(8) as u32)
    } else {
        Operand::Imm(rng.below(16) as i64 - 4)
    }
}

/// A random module: up to three functions of up to three blocks each.
fn random_module(seed: u64) -> Module {
    let mut rng = XorShift(seed | 1);
    let nfuncs = 1 + rng.below(3);
    let params: Vec<u32> = (0..nfuncs).map(|_| rng.below(3) as u32).collect();
    let mut module = Module::new();
    for f in 0..nfuncs {
        let mut func = Function::new(format!("f{f}"), params[f as usize]);
        func.num_regs = 8;
        let nblocks = 1 + rng.below(3);
        func.blocks = vec![Block::default(); nblocks as usize];
        for b in 0..nblocks {
            let mut instrs = Vec::new();
            for _ in 0..rng.below(5) {
                let instr = match rng.below(10) {
                    0 | 1 => {
                        Instr::Const { dst: rng.below(8) as u32, value: rng.below(64) as i64 - 8 }
                    }
                    2..=4 => {
                        let op = BIN_OPS[rng.below(16) as usize];
                        Instr::Bin {
                            dst: rng.below(8) as u32,
                            op,
                            lhs: operand(&mut rng),
                            rhs: operand(&mut rng),
                        }
                    }
                    5 => Instr::Print { value: operand(&mut rng) },
                    6 => Instr::Alloc {
                        dst: rng.below(8) as u32,
                        size: Operand::Imm(8 + rng.below(56) as i64),
                        domain: SiteDomain::Trusted,
                        id: None,
                    },
                    7 => Instr::Load {
                        dst: rng.below(8) as u32,
                        addr: Operand::Reg(rng.below(8) as u32),
                        offset: rng.below(6) as i64 * 8,
                    },
                    8 => Instr::Store {
                        addr: Operand::Reg(rng.below(8) as u32),
                        offset: rng.below(6) as i64 * 8,
                        value: operand(&mut rng),
                    },
                    _ => {
                        // A call: usually a defined sibling (recursion
                        // included), sometimes an undefined name so lazy
                        // trap parity stays covered.
                        let target = rng.below(nfuncs + 1);
                        if target == nfuncs {
                            Instr::Call {
                                dst: Some(rng.below(8) as u32),
                                callee: "missing".to_string(),
                                args: Vec::new(),
                            }
                        } else {
                            let args =
                                (0..params[target as usize]).map(|_| operand(&mut rng)).collect();
                            Instr::Call {
                                dst: Some(rng.below(8) as u32),
                                callee: format!("f{target}"),
                                args,
                            }
                        }
                    }
                };
                instrs.push(instr);
            }
            // Every block gets a terminator (missing-terminator parity is
            // pinned above); branch targets include one block past the
            // end, so BadBlock parity is exercised.
            let term = match rng.below(6) {
                0 => Instr::Ret { value: Some(operand(&mut rng)) },
                1 => Instr::Ret { value: None },
                2 | 3 => Instr::Br { target: rng.below(nblocks + 1) as u32 },
                _ => Instr::BrIf {
                    cond: operand(&mut rng),
                    then_bb: rng.below(nblocks + 1) as u32,
                    else_bb: rng.below(nblocks + 1) as u32,
                },
            };
            instrs.push(term);
            func.blocks[b as usize].instrs = instrs;
        }
        module.add_function(func);
    }
    module
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random modules: the threaded lane and the legacy match loop agree
    /// on results, traps, instret, fuel, output, and faults.
    #[test]
    fn threaded_and_legacy_lanes_are_observably_identical(
        seed in 1u64..u64::MAX,
        a0 in -8i64..8,
        a1 in -8i64..8,
    ) {
        let module = random_module(seed);
        let args_full = [a0, a1];
        let args = &args_full[..module.functions[0].params as usize];
        let (threaded, _) = lane(&module, "f0", args, true);
        let (legacy, legacy_fused) = lane(&module, "f0", args, false);
        prop_assert_eq!(&threaded, &legacy, "lanes diverge for seed {:#x}", seed);
        prop_assert_eq!(legacy_fused, 0, "legacy lane fused for seed {:#x}", seed);
    }
}
