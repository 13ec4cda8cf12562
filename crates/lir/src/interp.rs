//! The LIR interpreter.
//!
//! [`Interp`] runs modules on the direct-threaded op stream
//! ([`crate::threaded::ThreadedModule`]: pre-decoded op streams with
//! resolved callees and fused superinstructions), decoded once when the
//! interpreter is built. The match-per-instruction loop it replaced is
//! kept below, compiled for tests only, as the oracle the op stream is
//! pinned against: outputs, traps, `instret`, fuel and violation
//! accounting must be bit-identical (the `lanes` tests).

use crate::ir::{BinOp, FuncId, Module};
#[cfg(test)]
use crate::ir::{Instr, Operand, SiteDomain};
use crate::machine::Machine;
use crate::threaded::ThreadedModule;
use crate::trap::Trap;

#[cfg(test)]
mod lanes;

/// Maximum call depth (the dom suites nest compartment callbacks deeply,
/// but anything past this is a runaway recursion).
pub(crate) const MAX_DEPTH: usize = 200;

/// Interpreter binding a [`Module`] to a [`Machine`].
pub struct Interp<'a> {
    module: &'a Module,
    machine: &'a mut Machine,
    threaded: ThreadedModule,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter for `module` over `machine` (the module is
    /// pre-decoded here, once).
    pub fn new(module: &'a Module, machine: &'a mut Machine) -> Interp<'a> {
        Interp { module, machine, threaded: ThreadedModule::decode(module) }
    }

    /// Runs the named entry function with `args`, returning its result.
    pub fn run(&mut self, entry: &str, args: &[i64]) -> Result<Option<i64>, Trap> {
        self.threaded.run(self.module, self.machine, entry, args)
    }
}

/// The reference match-per-instruction loop: walks the nested blocks,
/// resolves callees by name and allocates a register file per call.
#[cfg(test)]
pub(crate) struct Legacy<'a> {
    module: &'a Module,
    machine: &'a mut Machine,
}

#[cfg(test)]
impl<'a> Legacy<'a> {
    pub(crate) fn new(module: &'a Module, machine: &'a mut Machine) -> Legacy<'a> {
        Legacy { module, machine }
    }

    pub(crate) fn run(&mut self, entry: &str, args: &[i64]) -> Result<Option<i64>, Trap> {
        let id =
            self.module.find(entry).ok_or_else(|| Trap::UndefinedFunction(entry.to_string()))?;
        self.call(id, args, 0)
    }

    fn call(&mut self, id: FuncId, args: &[i64], depth: usize) -> Result<Option<i64>, Trap> {
        if depth > MAX_DEPTH {
            return Err(Trap::StackOverflow);
        }
        let func = self.module.function(id);
        if args.len() as u32 != func.params {
            return Err(Trap::ArityMismatch {
                callee: func.name.clone(),
                expected: func.params,
                got: args.len() as u32,
            });
        }
        let mut regs = vec![0i64; func.num_regs.max(func.params) as usize];
        regs[..args.len()].copy_from_slice(args);

        let mut bb = 0usize;
        loop {
            let block = func.blocks.get(bb).ok_or(Trap::BadBlock(bb as u32))?;
            let mut jumped = false;
            for instr in &block.instrs {
                self.machine.tick()?;
                match instr {
                    Instr::Const { dst, value } => regs[*dst as usize] = *value,
                    Instr::Bin { dst, op, lhs, rhs } => {
                        let a = read(&regs, *lhs);
                        let b = read(&regs, *rhs);
                        regs[*dst as usize] = eval_bin(*op, a, b)?;
                    }
                    Instr::Load { dst, addr, offset } => {
                        let base = read(&regs, *addr) as u64;
                        let a = base.wrapping_add(*offset as u64);
                        regs[*dst as usize] = self.machine.mem_read(a)? as i64;
                    }
                    Instr::Store { addr, offset, value } => {
                        let base = read(&regs, *addr) as u64;
                        let a = base.wrapping_add(*offset as u64);
                        let v = read(&regs, *value) as u64;
                        self.machine.mem_write(a, v)?;
                    }
                    Instr::Alloc { dst, size, domain, id: _ } => {
                        let n = read(&regs, *size);
                        if n <= 0 {
                            return Err(Trap::BadAllocSize(n));
                        }
                        let ptr = match domain {
                            SiteDomain::Trusted => self.machine.alloc.alloc(n as u64)?,
                            SiteDomain::Untrusted => {
                                self.machine.alloc.untrusted_alloc(n as u64)?
                            }
                        };
                        regs[*dst as usize] = ptr as i64;
                    }
                    Instr::Realloc { dst, ptr, new_size } => {
                        let p = read(&regs, *ptr) as u64;
                        let n = read(&regs, *new_size);
                        if n <= 0 {
                            return Err(Trap::BadAllocSize(n));
                        }
                        let q = self.machine.alloc.realloc(p, n as u64)?;
                        regs[*dst as usize] = q as i64;
                    }
                    Instr::Dealloc { ptr } => {
                        let p = read(&regs, *ptr) as u64;
                        self.machine.alloc.dealloc(p)?;
                    }
                    Instr::Call { dst, callee, args: call_args } => {
                        let callee_id = self
                            .module
                            .find(callee)
                            .ok_or_else(|| Trap::UndefinedFunction(callee.clone()))?;
                        let vals: Vec<i64> = call_args.iter().map(|a| read(&regs, *a)).collect();
                        let result = self.call(callee_id, &vals, depth + 1)?;
                        if let Some(d) = dst {
                            regs[*d as usize] = result.unwrap_or(0);
                        }
                    }
                    Instr::CallIndirect { dst, target, args: call_args } => {
                        let raw = read(&regs, *target);
                        let callee_id = decode_func_addr(raw, self.module)?;
                        let vals: Vec<i64> = call_args.iter().map(|a| read(&regs, *a)).collect();
                        let result = self.call(callee_id, &vals, depth + 1)?;
                        if let Some(d) = dst {
                            regs[*d as usize] = result.unwrap_or(0);
                        }
                    }
                    Instr::FuncAddr { dst, callee } => {
                        let callee_id = self
                            .module
                            .find(callee)
                            .ok_or_else(|| Trap::UndefinedFunction(callee.clone()))?;
                        regs[*dst as usize] = encode_func_addr(callee_id);
                    }
                    Instr::Sys { dst, kind, args: sys_args } => {
                        let vals: Vec<i64> = sys_args.iter().map(|a| read(&regs, *a)).collect();
                        let result = self.machine.syscall(*kind, &vals)?;
                        if let Some(d) = dst {
                            regs[*d as usize] = result;
                        }
                    }
                    Instr::Print { value } => {
                        let v = read(&regs, *value);
                        self.machine.output.push(v);
                    }
                    Instr::GateEnterUntrusted => {
                        self.machine.gates.enter_untrusted(&mut self.machine.cpu)?;
                    }
                    Instr::GateExitUntrusted => {
                        self.machine.gates.exit_untrusted(&mut self.machine.cpu)?;
                    }
                    Instr::GateEnterTrusted => {
                        self.machine.gates.enter_trusted(&mut self.machine.cpu)?;
                    }
                    Instr::GateExitTrusted => {
                        self.machine.gates.exit_trusted(&mut self.machine.cpu)?;
                    }
                    Instr::ProvLogAlloc { ptr, size, id } => {
                        let p = read(&regs, *ptr) as u64;
                        let n = read(&regs, *size) as u64;
                        self.machine.profiler.metadata.log_alloc(p, n, *id);
                    }
                    Instr::ProvLogRealloc { old, new, size } => {
                        let o = read(&regs, *old) as u64;
                        let p = read(&regs, *new) as u64;
                        let n = read(&regs, *size) as u64;
                        self.machine.profiler.metadata.log_realloc(o, p, n);
                    }
                    Instr::ProvLogDealloc { ptr } => {
                        let p = read(&regs, *ptr) as u64;
                        self.machine.profiler.metadata.log_dealloc(p);
                    }
                    Instr::Br { target } => {
                        bb = *target as usize;
                        jumped = true;
                        break;
                    }
                    Instr::BrIf { cond, then_bb, else_bb } => {
                        bb = if read(&regs, *cond) != 0 {
                            *then_bb as usize
                        } else {
                            *else_bb as usize
                        };
                        jumped = true;
                        break;
                    }
                    Instr::Ret { value } => {
                        return Ok(value.map(|v| read(&regs, v)));
                    }
                }
            }
            if !jumped {
                return Err(Trap::MissingTerminator);
            }
        }
    }
}

#[cfg(test)]
fn read(regs: &[i64], op: Operand) -> i64 {
    match op {
        Operand::Reg(r) => regs[r as usize],
        Operand::Imm(v) => v,
    }
}

pub(crate) fn eval_bin(op: BinOp, a: i64, b: i64) -> Result<i64, Trap> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(Trap::DivisionByZero);
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(Trap::DivisionByZero);
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => a.wrapping_shr(b as u32),
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
    })
}

/// Function addresses are encoded as `id + 1`, so zero stays "null".
pub(crate) fn encode_func_addr(id: FuncId) -> i64 {
    i64::from(id) + 1
}

pub(crate) fn decode_func_addr(raw: i64, module: &Module) -> Result<FuncId, Trap> {
    if raw <= 0 || raw as usize > module.functions.len() {
        return Err(Trap::BadFunctionAddress(raw));
    }
    Ok((raw - 1) as FuncId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::machine::FaultPolicy;

    #[test]
    fn arithmetic_and_branches() {
        // sum 1..=10 with a loop.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("main", 0);
        let acc = f.reg();
        let i = f.reg();
        let cond = f.reg();
        let body = f.new_block();
        let done = f.new_block();
        f.entry().const_(acc, 0).const_(i, 1).br(body);
        {
            let mut b = f.block(body);
            b.bin(acc, BinOp::Add, Operand::Reg(acc), Operand::Reg(i));
            b.bin(i, BinOp::Add, Operand::Reg(i), Operand::Imm(1));
            b.bin(cond, BinOp::Le, Operand::Reg(i), Operand::Imm(10));
            b.brif(Operand::Reg(cond), body, done);
        }
        f.block(done).ret(Some(Operand::Reg(acc)));
        f.finish();
        let module = mb.build();

        let mut m = Machine::split(FaultPolicy::Crash).unwrap();
        let result = Interp::new(&module, &mut m).run("main", &[]).unwrap();
        assert_eq!(result, Some(55));
    }

    #[test]
    fn heap_roundtrip_and_free() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("main", 0);
        let p = f.reg();
        let v = f.reg();
        {
            let mut e = f.entry();
            e.alloc(p, Operand::Imm(64));
            e.store(Operand::Reg(p), 8, Operand::Imm(777));
            e.load(v, Operand::Reg(p), 8);
            e.dealloc(Operand::Reg(p));
            e.ret(Some(Operand::Reg(v)));
        }
        f.finish();
        let module = mb.build();
        let mut m = Machine::split(FaultPolicy::Crash).unwrap();
        assert_eq!(Interp::new(&module, &mut m).run("main", &[]).unwrap(), Some(777));
    }

    #[test]
    fn calls_and_callbacks() {
        let mut mb = ModuleBuilder::new();
        {
            let mut f = mb.function("double", 1);
            let out = f.reg();
            let mut e = f.entry();
            e.bin(out, BinOp::Mul, Operand::Reg(0), Operand::Imm(2));
            e.ret(Some(Operand::Reg(out)));
            f.finish();
        }
        {
            let mut f = mb.function("apply", 2); // (fnaddr, x)
            let out = f.reg();
            let mut e = f.entry();
            e.icall(Some(out), Operand::Reg(0), vec![Operand::Reg(1)]);
            e.ret(Some(Operand::Reg(out)));
            f.finish();
        }
        {
            let mut f = mb.function("main", 0);
            let addr = f.reg();
            let out = f.reg();
            let mut e = f.entry();
            e.func_addr(addr, "double");
            e.call(Some(out), "apply", vec![Operand::Reg(addr), Operand::Imm(21)]);
            e.ret(Some(Operand::Reg(out)));
            f.finish();
        }
        let module = mb.build();
        let mut m = Machine::split(FaultPolicy::Crash).unwrap();
        assert_eq!(Interp::new(&module, &mut m).run("main", &[]).unwrap(), Some(42));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("main", 0);
        let out = f.reg();
        let mut e = f.entry();
        e.bin(out, BinOp::Div, Operand::Imm(1), Operand::Imm(0));
        e.ret(None);
        f.finish();
        let module = mb.build();
        let mut m = Machine::split(FaultPolicy::Crash).unwrap();
        assert_eq!(Interp::new(&module, &mut m).run("main", &[]), Err(Trap::DivisionByZero));
    }

    #[test]
    fn runaway_recursion_traps() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("main", 0);
        let mut e = f.entry();
        e.call(None, "main", vec![]);
        e.ret(None);
        f.finish();
        let module = mb.build();
        let mut m = Machine::split(FaultPolicy::Crash).unwrap();
        assert_eq!(Interp::new(&module, &mut m).run("main", &[]), Err(Trap::StackOverflow));
    }

    #[test]
    fn print_collects_output() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.function("main", 0);
        let mut e = f.entry();
        e.print(Operand::Imm(1));
        e.print(Operand::Imm(2));
        e.ret(None);
        f.finish();
        let module = mb.build();
        let mut m = Machine::split(FaultPolicy::Crash).unwrap();
        Interp::new(&module, &mut m).run("main", &[]).unwrap();
        assert_eq!(m.output, vec![1, 2]);
    }
}
