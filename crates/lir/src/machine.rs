//! The simulated machine a LIR program executes on.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pkalloc::{BaselineAlloc, CompartmentAlloc, PkAlloc, PkAllocConfig};
use pkru_gates::Gates;
use pkru_handler::{Verdict, ViolationHandler};
use pkru_mpk::{AccessKind, Cpu, Pkey, PkeyPool, SharedPkeyPool};
use pkru_provenance::{single_step_access, FaultResolution, ProfilingRuntime};
use pkru_vmem::{AddressSpace, Fault, Prot, SharedSpace, Tlb, VirtAddr};

use crate::ir::{Module, SysKind};
use crate::trap::Trap;

/// The machine-boundary half of the syscall-filter layer.
///
/// A module declares the vmem primitives it needs (`allow sys.<kind>`);
/// everything else is refused before it reaches the mapping layer, the
/// runtime analogue of a seccomp filter. `analysis::scan` checks the same
/// list statically. The default filter denies everything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyscallFilter {
    allowed: BTreeSet<SysKind>,
}

impl SyscallFilter {
    /// A filter that refuses every syscall kind (the default).
    pub fn deny_all() -> SyscallFilter {
        SyscallFilter::default()
    }

    /// The filter matching a module's declared allow-list.
    pub fn from_module(module: &Module) -> SyscallFilter {
        SyscallFilter { allowed: module.allowed_syscalls.clone() }
    }

    /// Adds `kind` to the allow-list.
    pub fn allow(&mut self, kind: SysKind) -> &mut SyscallFilter {
        self.allowed.insert(kind);
        self
    }

    /// Whether `kind` is on the allow-list.
    pub fn permits(&self, kind: SysKind) -> bool {
        self.allowed.contains(&kind)
    }
}

/// What happens when an access raises an MPK violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultPolicy {
    /// The fault terminates the program (the enforcement build and any
    /// build with no profiling runtime registered).
    Crash,
    /// The profiling runtime records the faulting allocation site and
    /// resumes by single-stepping under raised rights (§4.3.2).
    Profile,
}

/// Machine construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Use the split allocator (`pkalloc`); otherwise the baseline
    /// single-pool allocator.
    pub split_allocator: bool,
    /// Serve both pools from `M_T` (§5.3 allocator ablation; requires
    /// `split_allocator`).
    pub unified_pools: bool,
    /// The fault policy in force.
    pub fault_policy: FaultPolicy,
    /// Instruction budget; `u64::MAX` means effectively unlimited.
    pub fuel: u64,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            split_allocator: true,
            unified_pools: false,
            fault_policy: FaultPolicy::Crash,
            fuel: u64::MAX,
        }
    }
}

/// Process-wide state shared by every worker thread's [`Machine`].
///
/// The paper's enforcement is per-thread only where the hardware is:
/// PKRU lives in each thread's register file. Everything else — the page
/// tables, the protection-key allocator, the single trusted key guarding
/// `M_T` — is process state. `SharedHost` bundles exactly that process
/// state so a multi-threaded host (one `Machine` per worker) shares one
/// address space and one key allocator while every worker keeps its own
/// [`Cpu`] and [`Gates`].
#[derive(Clone, Debug)]
pub struct SharedHost {
    space: SharedSpace,
    pool: SharedPkeyPool,
    trusted_pkey: Pkey,
    next_worker: Arc<AtomicUsize>,
}

impl SharedHost {
    /// Creates a fresh shared host: empty space, fresh key pool, and one
    /// trusted key allocated for `M_T`.
    pub fn new() -> SharedHost {
        let pool = SharedPkeyPool::new();
        // Key allocation cannot fail on a fresh pool.
        let trusted_pkey = pool.alloc().expect("fresh key pool");
        SharedHost {
            space: SharedSpace::new(),
            pool,
            trusted_pkey,
            next_worker: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The shared address space.
    pub fn space(&self) -> &SharedSpace {
        &self.space
    }

    /// The shared protection-key allocator.
    pub fn pkey_pool(&self) -> &SharedPkeyPool {
        &self.pool
    }

    /// The key protecting `M_T` for every worker on this host.
    pub fn trusted_pkey(&self) -> Pkey {
        self.trusted_pkey
    }

    /// Claims the next free worker slot (allocator carve-out index).
    pub fn take_worker_slot(&self) -> usize {
        self.next_worker.fetch_add(1, Ordering::Relaxed)
    }

    /// Worker slots handed out so far.
    pub fn workers_started(&self) -> usize {
        self.next_worker.load(Ordering::Relaxed)
    }
}

impl Default for SharedHost {
    fn default() -> SharedHost {
        SharedHost::new()
    }
}

/// The per-program execution environment: address space, allocator, CPU,
/// call gates, and the profiling runtime.
pub struct Machine {
    /// The simulated address space.
    pub space: SharedSpace,
    /// The heap allocator behind the `alloc`/`ualloc` instructions.
    pub alloc: Box<dyn CompartmentAlloc>,
    /// The executing thread's CPU state (PKRU lives here).
    pub cpu: Cpu,
    /// This thread's software TLB over `space`. Like the hardware TLB it
    /// models, it is per-thread state alongside the PKRU: translations are
    /// cached, rights verdicts are not, so gate transitions (`cpu.pkru()`
    /// flips) need no flush.
    pub tlb: Tlb,
    /// The call-gate runtime.
    pub gates: Gates,
    /// The profiling runtime (consulted only under
    /// [`FaultPolicy::Profile`]).
    pub profiler: ProfilingRuntime,
    /// The fault policy in force.
    pub fault_policy: FaultPolicy,
    /// Values produced by `print` instructions.
    pub output: Vec<i64>,
    /// Instructions retired so far.
    pub instret: u64,
    /// Remaining instruction budget.
    pub fuel: u64,
    /// Superinstructions executed: fused compare-and-branch ops in the
    /// threaded interpreter plus bulk page-run memory ops taken by
    /// [`Machine::mem_read_bytes`]/[`Machine::mem_write_bytes`].
    pub fused_ops: u64,
    /// Whether bulk memory superinstructions are taken (the legacy
    /// ablation lane turns them off so it measures the true per-byte
    /// dispatch cost).
    fused: bool,
    /// The key protecting the trusted pool.
    trusted_pkey: Pkey,
    /// The serve-time MPK violation handler, consulted for pkey faults
    /// under [`FaultPolicy::Crash`] when installed.
    handler: Option<Arc<ViolationHandler>>,
    /// The syscall filter guarding the `sys.*` boundary (deny-all until a
    /// module's allow-list is installed).
    syscall_filter: SyscallFilter,
}

impl Machine {
    /// Builds a machine per `config`, with a fresh address space.
    pub fn new(config: MachineConfig) -> Result<Machine, Trap> {
        let space = SharedSpace::new();
        let mut pool = PkeyPool::new();
        // Key allocation cannot fail on a fresh pool.
        let trusted_pkey = pool.alloc().expect("fresh key pool");
        let alloc: Box<dyn CompartmentAlloc> = if config.split_allocator {
            let pk_config =
                PkAllocConfig { unified_pools: config.unified_pools, ..PkAllocConfig::default() };
            Box::new(PkAlloc::with_config(space.clone(), trusted_pkey, pk_config)?)
        } else {
            Box::new(BaselineAlloc::new(space.clone())?)
        };
        Ok(Machine {
            space,
            alloc,
            cpu: Cpu::new(),
            tlb: Tlb::new(),
            gates: Gates::new(trusted_pkey),
            profiler: ProfilingRuntime::new(),
            fault_policy: config.fault_policy,
            output: Vec::new(),
            instret: 0,
            fuel: config.fuel,
            fused_ops: 0,
            fused: true,
            trusted_pkey,
            handler: None,
            syscall_filter: SyscallFilter::deny_all(),
        })
    }

    /// Builds a worker machine on a [`SharedHost`]: the address space, key
    /// pool, and trusted key come from the host, while the CPU (and with
    /// it the PKRU register) and the call-gate runtime are fresh,
    /// per-thread state.
    ///
    /// The worker always uses the split allocator over its own disjoint
    /// carve-out of the shared `M_T`/`M_U` reservations
    /// ([`PkAllocConfig::for_worker`]); `config.split_allocator` and
    /// `config.unified_pools` are ignored — a shared baseline heap would
    /// put every worker's objects on the same untagged pages and has no
    /// compartment story to preserve.
    pub fn on_host(config: MachineConfig, host: &SharedHost) -> Result<Machine, Trap> {
        let worker = host.take_worker_slot();
        let alloc = PkAlloc::with_config(
            host.space().clone(),
            host.trusted_pkey(),
            PkAllocConfig::for_worker(worker),
        )?;
        Ok(Machine {
            space: host.space().clone(),
            alloc: Box::new(alloc),
            cpu: Cpu::new(),
            tlb: Tlb::new(),
            gates: Gates::new(host.trusted_pkey()),
            profiler: ProfilingRuntime::new(),
            fault_policy: config.fault_policy,
            output: Vec::new(),
            instret: 0,
            fuel: config.fuel,
            fused_ops: 0,
            fused: true,
            trusted_pkey: host.trusted_pkey(),
            handler: None,
            syscall_filter: SyscallFilter::deny_all(),
        })
    }

    /// A baseline machine: single-pool allocator, crash on fault.
    pub fn baseline() -> Result<Machine, Trap> {
        Machine::new(MachineConfig { split_allocator: false, ..MachineConfig::default() })
    }

    /// A split-allocator machine with the given fault policy.
    pub fn split(fault_policy: FaultPolicy) -> Result<Machine, Trap> {
        Machine::new(MachineConfig { fault_policy, ..MachineConfig::default() })
    }

    /// The key protecting `M_T`.
    pub fn trusted_pkey(&self) -> Pkey {
        self.trusted_pkey
    }

    /// Installs a serve-time violation handler.
    ///
    /// Pkey faults raised under [`FaultPolicy::Crash`] are routed to the
    /// handler (with the faulting address resolved to its allocation site)
    /// instead of trapping unconditionally; the call gates consult the same
    /// handler so a tripped quarantine breaker also refuses compartment
    /// transitions.
    pub fn set_violation_handler(&mut self, handler: Arc<ViolationHandler>) {
        self.gates.set_violation_handler(Arc::clone(&handler));
        self.handler = Some(handler);
    }

    /// The installed serve-time violation handler, if any.
    pub fn violation_handler(&self) -> Option<&Arc<ViolationHandler>> {
        self.handler.as_ref()
    }

    /// Detaches the violation handler from the machine and its gates
    /// (tenant multiplexing swaps handlers per request; a worker with no
    /// ambient handler restores to this).
    pub fn clear_violation_handler(&mut self) {
        self.gates.clear_violation_handler();
        self.handler = None;
    }

    /// Installs the syscall filter consulted by [`Machine::syscall`].
    pub fn install_syscall_filter(&mut self, filter: SyscallFilter) {
        self.syscall_filter = filter;
    }

    /// The syscall filter in force.
    pub fn syscall_filter(&self) -> &SyscallFilter {
        &self.syscall_filter
    }

    /// Executes one `sys.*` primitive against the address space, enforcing
    /// the syscall-filter layer.
    ///
    /// Two checks precede the mapping layer, in order: the request must not
    /// arrive with untrusted rights in force (a compartment that dropped
    /// access to `M_T` remapping page protections is exactly Garmr's
    /// rewrite-from-below attack, and no allow-list entry can sanction it),
    /// and the kind must be on the installed allow-list.
    pub fn syscall(&mut self, kind: SysKind, args: &[i64]) -> Result<i64, Trap> {
        if args.len() != kind.arity() {
            return Err(Trap::ArityMismatch {
                callee: kind.mnemonic().to_string(),
                expected: kind.arity() as u32,
                got: args.len() as u32,
            });
        }
        if !self.cpu.pkru().allows(self.trusted_pkey, AccessKind::Read) {
            return Err(Trap::SyscallDenied { kind, untrusted: true });
        }
        if !self.syscall_filter.permits(kind) {
            return Err(Trap::SyscallDenied { kind, untrusted: false });
        }
        let fail = |e: pkru_vmem::MapError| Trap::SyscallFailed { kind, message: e.to_string() };
        match kind {
            SysKind::Map => {
                let prot = Prot::from_bits(args[1] as u8);
                let addr = self.space.mmap(args[0] as u64, prot).map_err(fail)?;
                Ok(addr as i64)
            }
            SysKind::Unmap => {
                self.space.munmap(args[0] as u64, args[1] as u64).map_err(fail)?;
                Ok(0)
            }
            SysKind::Mprotect => {
                let prot = Prot::from_bits(args[2] as u8);
                self.space.mprotect(args[0] as u64, args[1] as u64, prot).map_err(fail)?;
                Ok(0)
            }
            SysKind::PkeyMprotect => {
                let prot = Prot::from_bits(args[2] as u8);
                let pkey = u8::try_from(args[3]).ok().and_then(Pkey::new).ok_or_else(|| {
                    Trap::SyscallFailed { kind, message: format!("bad pkey index {}", args[3]) }
                })?;
                self.space
                    .pkey_mprotect(args[0] as u64, args[1] as u64, prot, pkey)
                    .map_err(fail)?;
                Ok(0)
            }
        }
    }

    /// Publishes this thread's buffered TLB counters into the shared
    /// space statistics. The hot path buffers hit/read/write counts in
    /// the per-thread [`Tlb`]; they fold automatically on every miss and
    /// epoch flush, and on drop — call this only to read exact
    /// [`SharedSpace::stats`] totals while the machine is still live.
    pub fn fold_tlb_stats(&mut self) {
        self.space.tlb_fold_stats(&mut self.tlb);
    }

    /// Burns one unit of instruction budget.
    pub(crate) fn tick(&mut self) -> Result<(), Trap> {
        self.instret += 1;
        match self.fuel.checked_sub(1) {
            Some(f) => {
                self.fuel = f;
                Ok(())
            }
            None => Err(Trap::FuelExhausted),
        }
    }

    /// A rights-checked 8-byte load with fault-policy handling.
    pub fn mem_read(&mut self, addr: VirtAddr) -> Result<u64, Trap> {
        let pkru = self.cpu.pkru();
        let result = self.space.tlb_read_u64(&mut self.tlb, pkru, addr);
        match result {
            Ok(v) => Ok(v),
            Err(fault) => self.resolve_fault(fault, |cpu, space| {
                let pkru = cpu.pkru();
                space.read_u64(pkru, addr).map(Some)
            }),
        }
    }

    /// A rights-checked 8-byte store with fault-policy handling.
    pub fn mem_write(&mut self, addr: VirtAddr, value: u64) -> Result<(), Trap> {
        let pkru = self.cpu.pkru();
        let result = self.space.tlb_write_u64(&mut self.tlb, pkru, addr, value);
        match result {
            Ok(()) => Ok(()),
            Err(fault) => self
                .resolve_fault(fault, |cpu, space| {
                    let pkru = cpu.pkru();
                    space.write_u64(pkru, addr, value).map(|()| None)
                })
                .map(|_| ()),
        }
    }

    /// A rights-checked single-byte load with fault-policy handling.
    pub fn mem_read_u8(&mut self, addr: VirtAddr) -> Result<u8, Trap> {
        let pkru = self.cpu.pkru();
        let result = self.space.tlb_read_u8(&mut self.tlb, pkru, addr);
        match result {
            Ok(v) => Ok(v),
            Err(fault) => self
                .resolve_fault(fault, |cpu, space| {
                    let pkru = cpu.pkru();
                    space.read_u8(pkru, addr).map(|b| Some(u64::from(b)))
                })
                .map(|v| v as u8),
        }
    }

    /// A rights-checked single-byte store with fault-policy handling.
    pub fn mem_write_u8(&mut self, addr: VirtAddr, value: u8) -> Result<(), Trap> {
        let pkru = self.cpu.pkru();
        let result = self.space.tlb_write_u8(&mut self.tlb, pkru, addr, value);
        match result {
            Ok(()) => Ok(()),
            Err(fault) => self
                .resolve_fault(fault, |cpu, space| {
                    let pkru = cpu.pkru();
                    space.write_u8(pkru, addr, value).map(|()| None)
                })
                .map(|_| ()),
        }
    }

    /// Whether bulk memory superinstructions are taken.
    pub fn fused(&self) -> bool {
        self.fused
    }

    /// Selects whether [`Machine::mem_read_bytes`]/[`Machine::mem_write_bytes`]
    /// may fuse page runs (the ablation toggle; off pins the exact legacy
    /// per-byte path).
    pub fn set_fused(&mut self, fused: bool) {
        self.fused = fused;
    }

    /// A rights-checked multi-byte load with fault-policy handling.
    ///
    /// With fusion on (and the TLB enabled — the bulk path rides the
    /// TLB's single-page fast path), the buffer is split at page
    /// boundaries and each run is served by **one** TLB lookup + one
    /// rights check instead of one per byte; `pkru.allows` still runs
    /// live on every access, it is simply amortized over the run the way
    /// a hardware line fill amortizes a walk. A faulting run falls back
    /// to the per-byte path so fault resolution (audit logging,
    /// single-step profiling, partial-progress semantics) stays
    /// byte-identical to the unfused lane.
    pub fn mem_read_bytes(&mut self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), Trap> {
        if !self.fused || !self.tlb.enabled() {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = self.mem_read_u8(addr.wrapping_add(i as u64))?;
            }
            return Ok(());
        }
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr.wrapping_add(off as u64);
            let to_page_end = (a | (pkru_vmem::PAGE_SIZE - 1)).wrapping_add(1).wrapping_sub(a);
            let run = (buf.len() - off).min(to_page_end.max(1) as usize);
            let pkru = self.cpu.pkru();
            match self.space.tlb_read(&mut self.tlb, pkru, a, &mut buf[off..off + run]) {
                Ok(()) => self.fused_ops += 1,
                Err(_) => {
                    for i in 0..run {
                        buf[off + i] = self.mem_read_u8(a.wrapping_add(i as u64))?;
                    }
                }
            }
            off += run;
        }
        Ok(())
    }

    /// A rights-checked multi-byte store with fault-policy handling.
    ///
    /// Same fusion contract as [`Machine::mem_read_bytes`]: one TLB
    /// lookup + live rights check per page run, per-byte fallback on any
    /// fault so partial writes land exactly as the unfused lane would
    /// leave them.
    pub fn mem_write_bytes(&mut self, addr: VirtAddr, bytes: &[u8]) -> Result<(), Trap> {
        if !self.fused || !self.tlb.enabled() {
            for (i, b) in bytes.iter().enumerate() {
                self.mem_write_u8(addr.wrapping_add(i as u64), *b)?;
            }
            return Ok(());
        }
        let mut off = 0usize;
        while off < bytes.len() {
            let a = addr.wrapping_add(off as u64);
            let to_page_end = (a | (pkru_vmem::PAGE_SIZE - 1)).wrapping_add(1).wrapping_sub(a);
            let run = (bytes.len() - off).min(to_page_end.max(1) as usize);
            let pkru = self.cpu.pkru();
            match self.space.tlb_write(&mut self.tlb, pkru, a, &bytes[off..off + run]) {
                Ok(()) => self.fused_ops += 1,
                Err(_) => {
                    for i in 0..run {
                        self.mem_write_u8(a.wrapping_add(i as u64), bytes[off + i])?;
                    }
                }
            }
            off += run;
        }
        Ok(())
    }

    /// Applies the fault policy: under [`FaultPolicy::Profile`], consult the
    /// profiling runtime and single-step the retry; otherwise crash.
    fn resolve_fault(
        &mut self,
        fault: Fault,
        retry: impl FnOnce(&mut Cpu, &mut AddressSpace) -> Result<Option<u64>, Fault>,
    ) -> Result<u64, Trap> {
        // Drop the faulting page's cached translation before consulting
        // the handler/profiler: verdicts and single-step replays must see
        // the page's live state, and any later policy-driven retag of the
        // page must be honored on the very next access.
        self.space.tlb_flush_page(&mut self.tlb, fault.addr);
        if self.fault_policy == FaultPolicy::Crash {
            // The serve-time handler services only MPK rights violations;
            // everything else (unmapped, prot) still traps.
            let handler = match &self.handler {
                Some(h) if fault.is_pkey_violation() => Arc::clone(h),
                _ => return Err(Trap::Fault(fault)),
            };
            let site = self.profiler.metadata.lookup(fault.addr).map(|r| r.id);
            return match handler.on_violation(&fault, site) {
                Verdict::SingleStep { grant } => {
                    let space = self.space.clone();
                    let outcome = single_step_access(&mut self.cpu, grant, |cpu| {
                        retry(cpu, &mut space.lock())
                    });
                    match outcome {
                        Ok(v) => Ok(v.unwrap_or(0)),
                        Err(f) => Err(Trap::Fault(f)),
                    }
                }
                Verdict::Deny => Err(Trap::Fault(fault)),
            };
        }
        match self.profiler.handle_fault(&fault) {
            FaultResolution::SingleStep { grant } => {
                let space = self.space.clone();
                let outcome =
                    single_step_access(&mut self.cpu, grant, |cpu| retry(cpu, &mut space.lock()));
                match outcome {
                    Ok(v) => Ok(v.unwrap_or(0)),
                    // The retry itself faulted (e.g. unmapped): crash.
                    Err(f) => Err(Trap::Fault(f)),
                }
            }
            FaultResolution::Chain => {
                if self.profiler.chain(&fault) {
                    Ok(0)
                } else {
                    Err(Trap::Fault(fault))
                }
            }
        }
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        // A worker's buffered TLB counters must land in the shared space
        // statistics before the supervisor reads them for the report.
        self.space.tlb_fold_stats(&mut self.tlb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkalloc::Domain;
    use pkru_mpk::AccessKind;

    #[test]
    fn split_machine_wires_pkey_through() {
        let mut m = Machine::split(FaultPolicy::Crash).unwrap();
        let p = m.alloc.alloc(64).unwrap();
        assert_eq!(m.alloc.domain_of(p), Some(Domain::Trusted));
        assert_eq!(m.space.lock().page_pkey(p), Some(m.trusted_pkey()));
        // Trusted CPU state reads fine.
        m.mem_write(p, 5).unwrap();
        assert_eq!(m.mem_read(p).unwrap(), 5);
    }

    #[test]
    fn crash_policy_propagates_pkey_fault() {
        let mut m = Machine::split(FaultPolicy::Crash).unwrap();
        let p = m.alloc.alloc(64).unwrap();
        m.gates.enter_untrusted(&mut m.cpu).unwrap();
        let err = m.mem_read(p).unwrap_err();
        match err {
            Trap::Fault(f) => assert!(f.is_pkey_violation()),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn profile_policy_records_and_resumes() {
        let mut m = Machine::split(FaultPolicy::Profile).unwrap();
        let p = m.alloc.alloc(64).unwrap();
        m.mem_write(p, 1234).unwrap();
        m.profiler.metadata.log_alloc(p, 64, pkru_provenance::AllocId::new(1, 2, 3));
        m.gates.enter_untrusted(&mut m.cpu).unwrap();
        let v = m.mem_read(p).unwrap();
        assert_eq!(v, 1234, "single-step must complete the faulting load");
        assert!(m.profiler.profile.contains(pkru_provenance::AllocId::new(1, 2, 3)));
        // Rights are unchanged after the resume: a second read faults and
        // is again serviced (recorded once).
        assert!(!m.cpu.pkru().allows(m.trusted_pkey(), AccessKind::Read));
        assert_eq!(m.mem_read(p).unwrap(), 1234);
        assert_eq!(m.profiler.profile.len(), 1);
        assert_eq!(m.profiler.profile.faults_observed, 2);
    }

    #[test]
    fn syscall_filter_denies_by_default_and_permits_allowed() {
        let mut m = Machine::split(FaultPolicy::Crash).unwrap();
        assert_eq!(
            m.syscall(SysKind::Map, &[4096, 3]),
            Err(Trap::SyscallDenied { kind: SysKind::Map, untrusted: false })
        );
        let mut filter = SyscallFilter::deny_all();
        filter.allow(SysKind::Map).allow(SysKind::Unmap);
        m.install_syscall_filter(filter);
        let addr = m.syscall(SysKind::Map, &[4096, 3]).unwrap();
        m.mem_write(addr as u64, 7).unwrap();
        assert_eq!(m.mem_read(addr as u64).unwrap(), 7);
        m.syscall(SysKind::Unmap, &[addr, 4096]).unwrap();
        // The unmapped page is gone on the very next access.
        assert!(matches!(m.mem_read(addr as u64), Err(Trap::Fault(_))));
        // Kinds off the list stay denied.
        assert_eq!(
            m.syscall(SysKind::Mprotect, &[addr, 4096, 1]),
            Err(Trap::SyscallDenied { kind: SysKind::Mprotect, untrusted: false })
        );
    }

    #[test]
    fn syscalls_denied_under_untrusted_rights_regardless_of_allow_list() {
        let mut m = Machine::split(FaultPolicy::Crash).unwrap();
        let mut filter = SyscallFilter::deny_all();
        filter.allow(SysKind::PkeyMprotect);
        m.install_syscall_filter(filter);
        let p = m.alloc.alloc(64).unwrap();
        let page = (p & !(pkru_vmem::PAGE_SIZE - 1)) as i64;
        m.gates.enter_untrusted(&mut m.cpu).unwrap();
        // Untagging M_T's pages from inside the sandbox must be refused
        // even though the kind is allow-listed.
        assert_eq!(
            m.syscall(SysKind::PkeyMprotect, &[page, 4096, 3, 0]),
            Err(Trap::SyscallDenied { kind: SysKind::PkeyMprotect, untrusted: true })
        );
        m.gates.exit_untrusted(&mut m.cpu).unwrap();
        // Back under trusted rights the same call goes through.
        m.syscall(SysKind::PkeyMprotect, &[page, 4096, 3, 0]).unwrap();
    }

    #[test]
    fn bad_pkey_index_fails_cleanly() {
        let mut m = Machine::split(FaultPolicy::Crash).unwrap();
        let mut filter = SyscallFilter::deny_all();
        filter.allow(SysKind::PkeyMprotect);
        m.install_syscall_filter(filter);
        let p = m.alloc.alloc(64).unwrap();
        let page = (p & !(pkru_vmem::PAGE_SIZE - 1)) as i64;
        match m.syscall(SysKind::PkeyMprotect, &[page, 4096, 3, 99]) {
            Err(Trap::SyscallFailed { message, .. }) => {
                assert!(message.contains("bad pkey"), "{message}")
            }
            other => panic!("expected SyscallFailed, got {other:?}"),
        }
    }

    #[test]
    fn fuel_exhaustion() {
        let mut m = Machine::new(MachineConfig { fuel: 2, ..MachineConfig::default() }).unwrap();
        assert!(m.tick().is_ok());
        assert!(m.tick().is_ok());
        assert_eq!(m.tick(), Err(Trap::FuelExhausted));
    }
}
