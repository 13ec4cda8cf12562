//! Direct-threaded dispatch: pre-decoded functions for the interpreter.
//!
//! The legacy match loop (kept in `interp.rs` as a test oracle) walks
//! the nested `Vec<Block>` structure instruction by instruction: every
//! step pays a block bounds check, an iterator advance, and — for
//! `Call`/`FuncAddr` — a by-name `HashMap` walk over the module. [`ThreadedModule::decode`]
//! does all of that work once at module-load time:
//!
//! - each function's blocks are **flattened into one linear op stream**;
//!   `Br`/`BrIf` carry pre-computed instruction indices instead of block
//!   ids, so dispatch is `ops[ip]` with no bounds walk;
//! - `Call`/`FuncAddr` callee names are **resolved to [`FuncId`]s at
//!   decode time**. An undefined callee decodes to a trapping op, so the
//!   trap still fires lazily — only if the instruction executes — with
//!   the same [`Trap::UndefinedFunction`] message as the legacy loop;
//! - the hot compare-then-branch pair (a `Bin` feeding the immediately
//!   following `BrIf` on the same register) is **fused into one
//!   superinstruction** ([`Op::BinBr`]), halving dispatch on loop
//!   back-edges. Fused ops still tick the machine once per *original*
//!   instruction, so fuel accounting, `instret`, and trap points are
//!   bit-identical to the legacy lane;
//! - per-call `Vec<i64>` register/argument allocations are replaced by a
//!   **frame arena** indexed by call depth: argument operands are read
//!   from the caller frame and written straight into the callee frame,
//!   no intermediate collection.
//!
//! Decoding changes *when* work happens, never *what* happens: the
//! `interp` unit tests pin the op stream and the legacy loop to
//! bit-identical outputs, traps, instruction counts, and violation
//! accounting.

use pkru_provenance::AllocId;

use crate::interp::{decode_func_addr, encode_func_addr, eval_bin, MAX_DEPTH};
use crate::ir::{BinOp, BlockId, FuncId, Instr, Module, Operand, Reg, SiteDomain, SysKind};
use crate::machine::Machine;
use crate::trap::Trap;

/// One pre-decoded instruction. Jump targets are instruction indices
/// into the owning function's op stream.
#[derive(Clone, Debug)]
enum Op {
    Const {
        dst: Reg,
        value: i64,
    },
    Bin {
        dst: Reg,
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// Fused `Bin` + `BrIf` superinstruction: computes `dst`, then
    /// branches on the result. Ticks twice (one per fused instruction).
    BinBr {
        dst: Reg,
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
        then_ip: u32,
        else_ip: u32,
    },
    Load {
        dst: Reg,
        addr: Operand,
        offset: i64,
    },
    Store {
        addr: Operand,
        offset: i64,
        value: Operand,
    },
    Alloc {
        dst: Reg,
        size: Operand,
        domain: SiteDomain,
    },
    Realloc {
        dst: Reg,
        ptr: Operand,
        new_size: Operand,
    },
    Dealloc {
        ptr: Operand,
    },
    /// Callee resolved at decode time.
    Call {
        dst: Option<Reg>,
        callee: FuncId,
        args: Box<[Operand]>,
    },
    /// The callee name did not resolve at decode time; traps lazily with
    /// the same message the legacy by-name lookup produces.
    CallUndefined {
        name: Box<str>,
    },
    CallIndirect {
        dst: Option<Reg>,
        target: Operand,
        args: Box<[Operand]>,
    },
    FuncAddr {
        dst: Reg,
        callee: FuncId,
    },
    FuncAddrUndefined {
        name: Box<str>,
    },
    Sys {
        dst: Option<Reg>,
        kind: SysKind,
        args: Box<[Operand]>,
    },
    Print {
        value: Operand,
    },
    GateEnterUntrusted,
    GateExitUntrusted,
    GateEnterTrusted,
    GateExitTrusted,
    ProvLogAlloc {
        ptr: Operand,
        size: Operand,
        id: AllocId,
    },
    ProvLogRealloc {
        old: Operand,
        new: Operand,
        size: Operand,
    },
    ProvLogDealloc {
        ptr: Operand,
    },
    Br {
        ip: u32,
    },
    BrIf {
        cond: Operand,
        then_ip: u32,
        else_ip: u32,
    },
    Ret {
        value: Option<Operand>,
    },
    /// A jump led to a block id the function does not have (the legacy
    /// loop faults on `blocks.get`, before ticking).
    TrapBadBlock(BlockId),
    /// Control fell off the end of a block without a terminator.
    TrapMissingTerminator,
}

/// One pre-decoded function: a linear op stream.
#[derive(Clone, Debug)]
struct ThreadedFunction {
    ops: Vec<Op>,
    frame_size: usize,
}

/// A module pre-decoded for direct-threaded dispatch.
///
/// Decode once at load, run many times. `run` must be handed the same
/// [`Module`] the threaded form was decoded from — the decoded streams
/// index straight into its function table.
#[derive(Clone, Debug)]
pub struct ThreadedModule {
    funcs: Vec<ThreadedFunction>,
    fused_sites: u64,
}

impl ThreadedModule {
    /// Pre-decodes every function in `module`.
    pub fn decode(module: &Module) -> ThreadedModule {
        let mut fused_sites = 0;
        let funcs =
            module.functions.iter().map(|f| decode_function(module, f, &mut fused_sites)).collect();
        ThreadedModule { funcs, fused_sites }
    }

    /// Superinstruction sites fused at decode time across the module.
    pub fn fused_sites(&self) -> u64 {
        self.fused_sites
    }

    /// Runs `entry` with `args` over `machine`.
    pub fn run(
        &self,
        module: &Module,
        machine: &mut Machine,
        entry: &str,
        args: &[i64],
    ) -> Result<Option<i64>, Trap> {
        let id = module.find(entry).ok_or_else(|| Trap::UndefinedFunction(entry.to_string()))?;
        let func = module.function(id);
        if args.len() as u32 != func.params {
            return Err(Trap::ArityMismatch {
                callee: func.name.clone(),
                expected: func.params,
                got: args.len() as u32,
            });
        }
        let mut arena = FrameArena::default();
        let frame = arena.frame_for(0, self.funcs[id as usize].frame_size);
        frame[..args.len()].copy_from_slice(args);
        let mut exec = ThreadedExec { threaded: self, module, machine, arena: &mut arena };
        exec.call(id, 0)
    }
}

/// Reusable per-depth register frames: one growth per high-water depth,
/// zero allocations on the steady-state call path.
#[derive(Default)]
struct FrameArena {
    frames: Vec<Vec<i64>>,
}

impl FrameArena {
    /// The (zeroed) frame for a call at `depth`, sized to `len`.
    fn frame_for(&mut self, depth: usize, len: usize) -> &mut [i64] {
        while self.frames.len() <= depth {
            self.frames.push(Vec::new());
        }
        let frame = &mut self.frames[depth];
        frame.clear();
        frame.resize(len, 0);
        frame
    }

    /// Caller frame at `depth` and a fresh zeroed callee frame at
    /// `depth + 1`, borrowed disjointly.
    fn split_for_call(&mut self, depth: usize, callee_len: usize) -> (&[i64], &mut [i64]) {
        while self.frames.len() <= depth + 1 {
            self.frames.push(Vec::new());
        }
        let (lo, hi) = self.frames.split_at_mut(depth + 1);
        let callee = &mut hi[0];
        callee.clear();
        callee.resize(callee_len, 0);
        (lo[depth].as_slice(), callee.as_mut_slice())
    }
}

struct ThreadedExec<'a> {
    threaded: &'a ThreadedModule,
    module: &'a Module,
    machine: &'a mut Machine,
    arena: &'a mut FrameArena,
}

impl<'a> ThreadedExec<'a> {
    /// Executes function `id` whose frame at `depth` is already seeded
    /// with its arguments.
    fn call(&mut self, id: FuncId, depth: usize) -> Result<Option<i64>, Trap> {
        let func = &self.threaded.funcs[id as usize];
        let mut ip = 0usize;
        loop {
            // Decode guarantees every control path ends in `Ret` or a
            // trapping op, so `ip` stays in bounds.
            let op = &func.ops[ip];
            // Trap ops fire where the legacy loop faults *before* ticking
            // (`blocks.get` / the missing-terminator fallthrough).
            match op {
                Op::TrapBadBlock(bb) => return Err(Trap::BadBlock(*bb)),
                Op::TrapMissingTerminator => return Err(Trap::MissingTerminator),
                _ => {}
            }
            self.machine.tick()?;
            match op {
                Op::Const { dst, value } => {
                    self.arena.frames[depth][*dst as usize] = *value;
                }
                Op::Bin { dst, op, lhs, rhs } => {
                    let regs = &mut self.arena.frames[depth];
                    let a = read(regs, *lhs);
                    let b = read(regs, *rhs);
                    regs[*dst as usize] = eval_bin(*op, a, b)?;
                }
                Op::BinBr { dst, op, lhs, rhs, then_ip, else_ip } => {
                    let regs = &mut self.arena.frames[depth];
                    let a = read(regs, *lhs);
                    let b = read(regs, *rhs);
                    let v = eval_bin(*op, a, b)?;
                    regs[*dst as usize] = v;
                    // The second fused instruction's tick (the `BrIf`).
                    self.machine.tick()?;
                    self.machine.fused_ops += 1;
                    ip = if v != 0 { *then_ip as usize } else { *else_ip as usize };
                    continue;
                }
                Op::Load { dst, addr, offset } => {
                    let base = read(&self.arena.frames[depth], *addr) as u64;
                    let a = base.wrapping_add(*offset as u64);
                    let v = self.machine.mem_read(a)? as i64;
                    self.arena.frames[depth][*dst as usize] = v;
                }
                Op::Store { addr, offset, value } => {
                    let regs = &self.arena.frames[depth];
                    let base = read(regs, *addr) as u64;
                    let a = base.wrapping_add(*offset as u64);
                    let v = read(regs, *value) as u64;
                    self.machine.mem_write(a, v)?;
                }
                Op::Alloc { dst, size, domain } => {
                    let n = read(&self.arena.frames[depth], *size);
                    if n <= 0 {
                        return Err(Trap::BadAllocSize(n));
                    }
                    let ptr = match domain {
                        SiteDomain::Trusted => self.machine.alloc.alloc(n as u64)?,
                        SiteDomain::Untrusted => self.machine.alloc.untrusted_alloc(n as u64)?,
                    };
                    self.arena.frames[depth][*dst as usize] = ptr as i64;
                }
                Op::Realloc { dst, ptr, new_size } => {
                    let regs = &self.arena.frames[depth];
                    let p = read(regs, *ptr) as u64;
                    let n = read(regs, *new_size);
                    if n <= 0 {
                        return Err(Trap::BadAllocSize(n));
                    }
                    let q = self.machine.alloc.realloc(p, n as u64)?;
                    self.arena.frames[depth][*dst as usize] = q as i64;
                }
                Op::Dealloc { ptr } => {
                    let p = read(&self.arena.frames[depth], *ptr) as u64;
                    self.machine.alloc.dealloc(p)?;
                }
                Op::Call { dst, callee, args } => {
                    let result = self.dispatch_call(*callee, args, depth)?;
                    if let Some(d) = dst {
                        self.arena.frames[depth][*d as usize] = result.unwrap_or(0);
                    }
                }
                Op::CallUndefined { name } => {
                    return Err(Trap::UndefinedFunction(name.to_string()));
                }
                Op::CallIndirect { dst, target, args } => {
                    let raw = read(&self.arena.frames[depth], *target);
                    let callee = decode_func_addr(raw, self.module)?;
                    let result = self.dispatch_call(callee, args, depth)?;
                    if let Some(d) = dst {
                        self.arena.frames[depth][*d as usize] = result.unwrap_or(0);
                    }
                }
                Op::FuncAddr { dst, callee } => {
                    self.arena.frames[depth][*dst as usize] = encode_func_addr(*callee);
                }
                Op::FuncAddrUndefined { name } => {
                    return Err(Trap::UndefinedFunction(name.to_string()));
                }
                Op::Sys { dst, kind, args } => {
                    // Syscall arity is small and bounded ([`SysKind::arity`]
                    // tops out at 4); a fixed buffer keeps this path
                    // allocation-free. Longer operand lists (rejected by the
                    // machine's arity check anyway) take the boxed path so
                    // the machine still sees the full argument count.
                    let regs = &self.arena.frames[depth];
                    let result = if args.len() <= 8 {
                        let mut buf = [0i64; 8];
                        for (slot, a) in buf.iter_mut().zip(args.iter()) {
                            *slot = read(regs, *a);
                        }
                        self.machine.syscall(*kind, &buf[..args.len()])?
                    } else {
                        let vals: Vec<i64> = args.iter().map(|a| read(regs, *a)).collect();
                        self.machine.syscall(*kind, &vals)?
                    };
                    if let Some(d) = dst {
                        self.arena.frames[depth][*d as usize] = result;
                    }
                }
                Op::Print { value } => {
                    let v = read(&self.arena.frames[depth], *value);
                    self.machine.output.push(v);
                }
                Op::GateEnterUntrusted => {
                    self.machine.gates.enter_untrusted(&mut self.machine.cpu)?;
                }
                Op::GateExitUntrusted => {
                    self.machine.gates.exit_untrusted(&mut self.machine.cpu)?;
                }
                Op::GateEnterTrusted => {
                    self.machine.gates.enter_trusted(&mut self.machine.cpu)?;
                }
                Op::GateExitTrusted => {
                    self.machine.gates.exit_trusted(&mut self.machine.cpu)?;
                }
                Op::ProvLogAlloc { ptr, size, id } => {
                    let regs = &self.arena.frames[depth];
                    let p = read(regs, *ptr) as u64;
                    let n = read(regs, *size) as u64;
                    self.machine.profiler.metadata.log_alloc(p, n, *id);
                }
                Op::ProvLogRealloc { old, new, size } => {
                    let regs = &self.arena.frames[depth];
                    let o = read(regs, *old) as u64;
                    let p = read(regs, *new) as u64;
                    let n = read(regs, *size) as u64;
                    self.machine.profiler.metadata.log_realloc(o, p, n);
                }
                Op::ProvLogDealloc { ptr } => {
                    let p = read(&self.arena.frames[depth], *ptr) as u64;
                    self.machine.profiler.metadata.log_dealloc(p);
                }
                Op::Br { ip: target } => {
                    ip = *target as usize;
                    continue;
                }
                Op::BrIf { cond, then_ip, else_ip } => {
                    let taken = read(&self.arena.frames[depth], *cond) != 0;
                    ip = if taken { *then_ip as usize } else { *else_ip as usize };
                    continue;
                }
                Op::Ret { value } => {
                    return Ok(value.map(|v| read(&self.arena.frames[depth], v)));
                }
                Op::TrapBadBlock(_) | Op::TrapMissingTerminator => unreachable!("handled above"),
            }
            ip += 1;
        }
    }

    /// Seeds the callee frame straight from caller operands (no argument
    /// `Vec`) and recurses.
    fn dispatch_call(
        &mut self,
        callee: FuncId,
        args: &[Operand],
        depth: usize,
    ) -> Result<Option<i64>, Trap> {
        if depth + 1 > MAX_DEPTH {
            return Err(Trap::StackOverflow);
        }
        let func = self.module.function(callee);
        if args.len() as u32 != func.params {
            return Err(Trap::ArityMismatch {
                callee: func.name.clone(),
                expected: func.params,
                got: args.len() as u32,
            });
        }
        let frame_size = self.threaded.funcs[callee as usize].frame_size;
        let (caller, callee_frame) = self.arena.split_for_call(depth, frame_size);
        for (slot, a) in callee_frame.iter_mut().zip(args.iter()) {
            *slot = read(caller, *a);
        }
        self.call(callee, depth + 1)
    }
}

#[inline]
fn read(regs: &[i64], op: Operand) -> i64 {
    match op {
        Operand::Reg(r) => regs[r as usize],
        Operand::Imm(v) => v,
    }
}

/// Flattens one function's blocks into a linear op stream with resolved
/// callees and instruction-index jump targets.
fn decode_function(
    module: &Module,
    func: &crate::ir::Function,
    fused_sites: &mut u64,
) -> ThreadedFunction {
    // First pass: emit ops with *block ids* as jump targets, recording
    // each block's start ip; a patch pass then rewrites ids to ips.
    let mut ops: Vec<Op> = Vec::new();
    let mut block_ip = Vec::with_capacity(func.blocks.len());

    for block in &func.blocks {
        block_ip.push(ops.len() as u32);
        let mut terminated = false;
        let mut i = 0;
        while i < block.instrs.len() {
            let instr = &block.instrs[i];
            // Superinstruction fusion: a Bin whose result feeds the
            // immediately following BrIf collapses into one op.
            if let Instr::Bin { dst, op, lhs, rhs } = instr {
                if let Some(Instr::BrIf { cond, then_bb, else_bb }) = block.instrs.get(i + 1) {
                    if *cond == Operand::Reg(*dst) {
                        ops.push(Op::BinBr {
                            dst: *dst,
                            op: *op,
                            lhs: *lhs,
                            rhs: *rhs,
                            then_ip: *then_bb,
                            else_ip: *else_bb,
                        });
                        *fused_sites += 1;
                        terminated = true;
                        break;
                    }
                }
            }
            match instr {
                Instr::Const { dst, value } => ops.push(Op::Const { dst: *dst, value: *value }),
                Instr::Bin { dst, op, lhs, rhs } => {
                    ops.push(Op::Bin { dst: *dst, op: *op, lhs: *lhs, rhs: *rhs })
                }
                Instr::Load { dst, addr, offset } => {
                    ops.push(Op::Load { dst: *dst, addr: *addr, offset: *offset })
                }
                Instr::Store { addr, offset, value } => {
                    ops.push(Op::Store { addr: *addr, offset: *offset, value: *value })
                }
                Instr::Alloc { dst, size, domain, id: _ } => {
                    ops.push(Op::Alloc { dst: *dst, size: *size, domain: *domain })
                }
                Instr::Realloc { dst, ptr, new_size } => {
                    ops.push(Op::Realloc { dst: *dst, ptr: *ptr, new_size: *new_size })
                }
                Instr::Dealloc { ptr } => ops.push(Op::Dealloc { ptr: *ptr }),
                Instr::Call { dst, callee, args } => match module.find(callee) {
                    Some(id) => ops.push(Op::Call {
                        dst: *dst,
                        callee: id,
                        args: args.clone().into_boxed_slice(),
                    }),
                    None => ops.push(Op::CallUndefined { name: callee.clone().into_boxed_str() }),
                },
                Instr::CallIndirect { dst, target, args } => ops.push(Op::CallIndirect {
                    dst: *dst,
                    target: *target,
                    args: args.clone().into_boxed_slice(),
                }),
                Instr::FuncAddr { dst, callee } => match module.find(callee) {
                    Some(id) => ops.push(Op::FuncAddr { dst: *dst, callee: id }),
                    None => {
                        ops.push(Op::FuncAddrUndefined { name: callee.clone().into_boxed_str() })
                    }
                },
                Instr::Sys { dst, kind, args } => ops.push(Op::Sys {
                    dst: *dst,
                    kind: *kind,
                    args: args.clone().into_boxed_slice(),
                }),
                Instr::Print { value } => ops.push(Op::Print { value: *value }),
                Instr::GateEnterUntrusted => ops.push(Op::GateEnterUntrusted),
                Instr::GateExitUntrusted => ops.push(Op::GateExitUntrusted),
                Instr::GateEnterTrusted => ops.push(Op::GateEnterTrusted),
                Instr::GateExitTrusted => ops.push(Op::GateExitTrusted),
                Instr::ProvLogAlloc { ptr, size, id } => {
                    ops.push(Op::ProvLogAlloc { ptr: *ptr, size: *size, id: *id })
                }
                Instr::ProvLogRealloc { old, new, size } => {
                    ops.push(Op::ProvLogRealloc { old: *old, new: *new, size: *size })
                }
                Instr::ProvLogDealloc { ptr } => ops.push(Op::ProvLogDealloc { ptr: *ptr }),
                Instr::Br { target } => {
                    ops.push(Op::Br { ip: *target });
                    terminated = true;
                }
                Instr::BrIf { cond, then_bb, else_bb } => {
                    ops.push(Op::BrIf { cond: *cond, then_ip: *then_bb, else_ip: *else_bb });
                    terminated = true;
                }
                Instr::Ret { value } => {
                    ops.push(Op::Ret { value: *value });
                    terminated = true;
                }
            }
            if terminated {
                // Anything after a terminator is unreachable in the legacy
                // loop too (it breaks out of the block); drop it.
                break;
            }
            i += 1;
        }
        if !terminated {
            ops.push(Op::TrapMissingTerminator);
        }
    }

    // A function with no blocks faults on entry exactly like the legacy
    // `blocks.get(0)` miss.
    if func.blocks.is_empty() {
        ops.push(Op::TrapBadBlock(0));
    }

    // Jumps to nonexistent blocks resolve to synthesized trapping ops
    // appended after the stream, one per distinct bad target.
    let mut bad: Vec<BlockId> = Vec::new();
    for op in &ops {
        let mut note = |bb: BlockId| {
            if bb as usize >= block_ip.len() && !bad.contains(&bb) {
                bad.push(bb);
            }
        };
        match op {
            Op::Br { ip } => note(*ip),
            Op::BrIf { then_ip, else_ip, .. } | Op::BinBr { then_ip, else_ip, .. } => {
                note(*then_ip);
                note(*else_ip);
            }
            _ => {}
        }
    }

    // Patch pass: rewrite block-id jump targets to instruction indices.
    let base = ops.len() as u32;
    let resolve = |bb: BlockId| -> u32 {
        match block_ip.get(bb as usize) {
            Some(&ip) => ip,
            None => base + bad.iter().position(|b| *b == bb).expect("noted above") as u32,
        }
    };
    for op in &mut ops {
        match op {
            Op::Br { ip } => *ip = resolve(*ip),
            Op::BrIf { then_ip, else_ip, .. } | Op::BinBr { then_ip, else_ip, .. } => {
                *then_ip = resolve(*then_ip);
                *else_ip = resolve(*else_ip);
            }
            _ => {}
        }
    }
    for bb in bad {
        ops.push(Op::TrapBadBlock(bb));
    }

    ThreadedFunction { ops, frame_size: func.num_regs.max(func.params) as usize }
}
