//! MPK call gates and the per-thread compartment stack (paper §3.3, §4.1).
//!
//! Every interface from the trusted compartment `T` to the untrusted
//! compartment `U` is transparently wrapped: the call first revokes access
//! to trusted memory `M_T` (a `WRPKRU` loading the untrusted rights), and
//! the previous rights are restored when execution returns to `T`. The
//! previous value is *not assumed* — it is tracked on a per-thread
//! compartment stack, so arbitrarily nested transitions (the deeply nested
//! callback stacks the `dom` benchmarks produce, §5.3) unwind correctly.
//!
//! Each gate verifies that the PKRU value it wrote is actually in force and
//! aborts otherwise, modeling the checked assembly stubs of §4.1 that stop
//! whole-function reuse from escalating rights.
//!
//! In the other direction, any exported or address-taken function of `T`
//! that `U` may call (including callbacks) is wrapped in a *trusted entry*
//! gate that raises rights on entry and restores the caller's rights on
//! exit.

use core::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pkru_handler::ViolationHandler;
use pkru_mpk::{Cpu, LeaseStamp, Pkey, Pkru, WorkerEpoch};

/// Calibrated wall-clock cost of one gate crossing.
///
/// On hardware, a checked call gate costs tens of nanoseconds (two
/// `WRPKRU`s with their serialization effects, the compare, the stub); in
/// this simulation the register write is a ~1 ns struct update, which
/// would make gate-driven overhead invisible relative to interpreted
/// work. Each crossing therefore spins for this long, calibrated so the
/// `Empty` micro-benchmark reproduces the paper's ~8.5× per-call overhead
/// (§5.2). Set to zero via [`Gates::set_crossing_cost`] to measure the
/// raw software model.
pub const DEFAULT_CROSSING_COST: Duration = Duration::from_nanos(200);

/// Spins on `now` until `cost` is spent; returns the last reading's
/// elapsed time.
///
/// A clock read is itself tens of nanoseconds, and the part of it that
/// runs after its timestamp is taken is still spent once the loop decides
/// to stop. So the loop stops as soon as the elapsed time plus that tail
/// reaches `cost`, rather than one read past `cost`. The tail is the
/// *smallest* gap between two readings seen so far, trusted only once two
/// gaps have been seen: a preempted read makes one gap long, which can
/// lengthen a burn but never shorten it. The loop has no `spin_loop`
/// hint, because a pause inside every gap would make the estimate longer
/// than the real tail. The arithmetic is on integer nanoseconds to keep
/// the gap, and so the overshoot, small.
fn spin_for(cost: Duration, mut now: impl FnMut() -> Instant) -> Duration {
    let cost = u64::try_from(cost.as_nanos()).unwrap_or(u64::MAX);
    let start = now();
    let mut last = 0u64;
    let mut shortest = u64::MAX;
    loop {
        let elapsed = now().saturating_duration_since(start).as_nanos() as u64;
        let gap = elapsed.saturating_sub(last);
        let tail = if shortest == u64::MAX { 0 } else { shortest.min(gap) };
        if elapsed.saturating_add(tail) >= cost {
            return Duration::from_nanos(elapsed);
        }
        shortest = shortest.min(gap);
        last = elapsed;
    }
}

/// Default bound on compartment-stack nesting.
///
/// The `dom` suite's nested callbacks reach depth ~10; anything near this
/// limit is hostile T↔U recursion trying to grow the stack `Vec` without
/// bound, and the gate refuses instead of allocating.
pub const DEFAULT_DEPTH_LIMIT: usize = 128;

/// Errors raised by the call gates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GateError {
    /// The PKRU read back after the gate's `WRPKRU` does not match the
    /// rights the gate enforces; the gate aborts the application (§4.1).
    PkruMismatch {
        /// The value the gate wrote.
        expected: u32,
        /// The value actually in force.
        actual: u32,
    },
    /// An exit gate ran without a matching enter (corrupted or empty
    /// compartment stack).
    StackUnderflow,
    /// An enter gate would nest the compartment stack past its limit
    /// (hostile T↔U recursion).
    DepthExceeded {
        /// The configured nesting limit that would have been exceeded.
        limit: usize,
    },
    /// The worker's quarantine breaker has tripped: no further compartment
    /// transitions are admitted until the worker is torn down and respawned.
    Quarantined,
    /// The untrusted PKRU was minted from a tenant lease whose binding
    /// has since been revoked (its hardware key stolen or evicted):
    /// granting it now would hand the caller rights to the key's *next*
    /// owner. The caller should re-bind and install a fresh lease.
    StaleLease {
        /// The generation the lease was granted at.
        held: u64,
        /// The binding's live generation now (0 while revoked).
        current: u64,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::PkruMismatch { expected, actual } => {
                write!(f, "call gate PKRU mismatch: wrote {expected:#010x}, found {actual:#010x}")
            }
            GateError::StackUnderflow => write!(f, "compartment stack underflow"),
            GateError::DepthExceeded { limit } => {
                write!(f, "compartment stack depth limit ({limit}) exceeded")
            }
            GateError::Quarantined => {
                write!(f, "compartment transitions quarantined (violation breaker tripped)")
            }
            GateError::StaleLease { held, current } => {
                write!(
                    f,
                    "stale tenant lease: held generation {held}, binding now at {current} — \
                     re-bind before entering the compartment"
                )
            }
        }
    }
}

impl std::error::Error for GateError {}

/// The per-thread call-gate runtime.
///
/// Owns the compartment stack and the transition counters the evaluation
/// reports (the `Transitions` columns of Tables 1 and 2). One `Gates`
/// instance pairs with one [`Cpu`]; both are per-thread state.
#[derive(Clone, Debug)]
pub struct Gates {
    trusted_pkru: Pkru,
    untrusted_pkru: Pkru,
    stack: Vec<Pkru>,
    transitions: u64,
    max_depth: usize,
    depth_limit: usize,
    verify: bool,
    crossing_cost: Duration,
    handler: Option<Arc<ViolationHandler>>,
    untrusted_lease: Option<LeaseStamp>,
    epoch: Option<Arc<WorkerEpoch>>,
}

impl Gates {
    /// Creates a gate runtime for a system whose trusted pool is protected
    /// by `trusted_pkey`.
    pub fn new(trusted_pkey: Pkey) -> Gates {
        Gates {
            trusted_pkru: Pkru::ALL_ACCESS,
            untrusted_pkru: Pkru::deny_only(trusted_pkey),
            stack: Vec::new(),
            transitions: 0,
            max_depth: 0,
            depth_limit: DEFAULT_DEPTH_LIMIT,
            verify: true,
            crossing_cost: DEFAULT_CROSSING_COST,
            handler: None,
            untrusted_lease: None,
            epoch: None,
        }
    }

    /// Overrides the compartment-stack nesting limit.
    pub fn set_depth_limit(&mut self, limit: usize) {
        self.depth_limit = limit;
    }

    /// The configured compartment-stack nesting limit.
    pub fn depth_limit(&self) -> usize {
        self.depth_limit
    }

    /// Attaches the worker's violation handler: once its quarantine
    /// breaker trips, every subsequent enter gate is refused with
    /// [`GateError::Quarantined`] so an untrusted compartment cannot keep
    /// crossing after being condemned.
    pub fn set_violation_handler(&mut self, handler: Arc<ViolationHandler>) {
        self.handler = Some(handler);
    }

    /// Detaches the violation handler (restores the unpoliced default).
    pub fn clear_violation_handler(&mut self) {
        self.handler = None;
    }

    /// Replaces the PKRU enforced inside the untrusted compartment.
    ///
    /// This is the multi-tenant compartment switch: a worker serving
    /// tenant A installs A's rights (key 0 plus A's bound hardware key)
    /// so the next enter gate drops into A's compartment rather than the
    /// ambient `U`. Takes effect on the next [`Gates::enter_untrusted`];
    /// regions already open keep the rights they entered with.
    ///
    /// Clears any installed lease stamp: a PKRU set through this plain
    /// path (the worker's ambient single-`U` rights, ablation harnesses)
    /// carries no tenant binding to go stale.
    pub fn set_untrusted_pkru(&mut self, pkru: Pkru) {
        self.untrusted_pkru = pkru;
        self.untrusted_lease = None;
    }

    /// Installs a tenant's untrusted PKRU together with the lease stamp
    /// it was minted from. Every subsequent [`Gates::enter_untrusted`]
    /// validates the stamp before granting the rights: once the tenant's
    /// binding is revoked (key stolen or evicted), entry refuses with
    /// [`GateError::StaleLease`] instead of silently granting rights to
    /// the hardware key's next owner.
    pub fn set_untrusted_lease(&mut self, pkru: Pkru, lease: LeaseStamp) {
        self.untrusted_pkru = pkru;
        self.untrusted_lease = Some(lease);
    }

    /// The lease stamp guarding the untrusted PKRU, if one is installed.
    pub fn untrusted_lease(&self) -> Option<&LeaseStamp> {
        self.untrusted_lease.as_ref()
    }

    /// Attaches the worker's revocation-barrier handle. The gates publish
    /// through it: region entry (depth 0 → 1) stamps the barrier epoch,
    /// and the single restore point (depth 1 → 0) parks — the signal the
    /// key pool waits on before recycling a quarantined key.
    pub fn set_worker_epoch(&mut self, epoch: Arc<WorkerEpoch>) {
        self.epoch = Some(epoch);
    }

    /// Disables the post-`WRPKRU` verification (ablation measurement only).
    pub fn set_verify(&mut self, on: bool) {
        self.verify = on;
    }

    /// Overrides the calibrated per-crossing cost (zero = raw model).
    pub fn set_crossing_cost(&mut self, cost: Duration) {
        self.crossing_cost = cost;
    }

    /// The PKRU value enforced inside the untrusted compartment.
    pub fn untrusted_pkru(&self) -> Pkru {
        self.untrusted_pkru
    }

    /// The PKRU value enforced inside the trusted compartment.
    pub fn trusted_pkru(&self) -> Pkru {
        self.trusted_pkru
    }

    /// Total compartment transitions executed (each gate crossing counts
    /// once, in either direction).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Resets the transition counter (between benchmark runs).
    pub fn reset_transitions(&mut self) {
        self.transitions = 0;
    }

    /// Current nesting depth of the compartment stack.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Deepest nesting observed (the `dom` suite's nested-callback stacks).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Burns the calibrated crossing cost (the WRPKRU timing model).
    fn burn(&self) {
        if !self.crossing_cost.is_zero() {
            spin_for(self.crossing_cost, Instant::now);
        }
    }

    fn switch(&mut self, cpu: &mut Cpu, target: Pkru, check_lease: bool) -> Result<(), GateError> {
        // Refuse before mutating anything: a denied enter leaves the stack
        // balanced, so error paths can still unwind with exit gates.
        if self.stack.len() >= self.depth_limit {
            return Err(GateError::DepthExceeded { limit: self.depth_limit });
        }
        if self.handler.as_ref().is_some_and(|h| h.tripped()) {
            return Err(GateError::Quarantined);
        }
        // Publish gate-region entry *before* validating the lease: under
        // the SeqCst total order, either the validation below observes a
        // concurrent revocation (and refuses), or this entry's epoch
        // precedes the steal's — in which case the revocation barrier
        // holds the stolen key in quarantine until the restore point.
        let first_entry = self.stack.is_empty();
        if first_entry {
            if let Some(epoch) = &self.epoch {
                epoch.enter();
            }
        }
        if check_lease {
            if let Some(lease) = &self.untrusted_lease {
                if !lease.is_current() {
                    if first_entry {
                        if let Some(epoch) = &self.epoch {
                            epoch.park();
                        }
                    }
                    return Err(GateError::StaleLease {
                        held: lease.generation(),
                        current: lease.current_generation(),
                    });
                }
            }
        }
        self.burn();
        self.stack.push(cpu.pkru());
        self.max_depth = self.max_depth.max(self.stack.len());
        cpu.wrpkru(target.bits());
        self.transitions += 1;
        if self.verify && cpu.rdpkru() != target.bits() {
            return Err(GateError::PkruMismatch { expected: target.bits(), actual: cpu.rdpkru() });
        }
        Ok(())
    }

    fn restore(&mut self, cpu: &mut Cpu) -> Result<(), GateError> {
        self.burn();
        let previous = self.stack.pop().ok_or(GateError::StackUnderflow)?;
        cpu.wrpkru(previous.bits());
        self.transitions += 1;
        // The single restore point: back at base rights, the worker's
        // PKRU no longer carries any lease-derived rights — park, so
        // quarantined keys whose steal this region straddled can mature.
        if self.stack.is_empty() {
            if let Some(epoch) = &self.epoch {
                epoch.park();
            }
        }
        if self.verify && cpu.rdpkru() != previous.bits() {
            return Err(GateError::PkruMismatch {
                expected: previous.bits(),
                actual: cpu.rdpkru(),
            });
        }
        Ok(())
    }

    /// T→U enter gate: drops access to `M_T` before calling into `U`.
    ///
    /// When the untrusted PKRU was installed from a tenant lease, the
    /// lease's generation is validated first — stale rights are refused
    /// with [`GateError::StaleLease`], never granted.
    pub fn enter_untrusted(&mut self, cpu: &mut Cpu) -> Result<(), GateError> {
        self.switch(cpu, self.untrusted_pkru, true)
    }

    /// T→U exit gate: restores the caller's rights after `U` returns.
    pub fn exit_untrusted(&mut self, cpu: &mut Cpu) -> Result<(), GateError> {
        self.restore(cpu)
    }

    /// U→T trusted-entry gate: raises rights on entry to an exported or
    /// address-taken trusted function.
    pub fn enter_trusted(&mut self, cpu: &mut Cpu) -> Result<(), GateError> {
        // Trusted entries never check the lease: the trusted compartment's
        // rights are not lease-derived, and a U→T callback must succeed
        // even while the tenant's binding is being revoked underneath it.
        self.switch(cpu, self.trusted_pkru, false)
    }

    /// U→T trusted-exit gate: restores the untrusted caller's rights.
    pub fn exit_trusted(&mut self, cpu: &mut Cpu) -> Result<(), GateError> {
        self.restore(cpu)
    }

    /// Runs `f` inside the untrusted compartment, restoring rights on the
    /// way out even if `f` fails.
    pub fn with_untrusted<R, E: From<GateError>>(
        &mut self,
        cpu: &mut Cpu,
        f: impl FnOnce(&mut Gates, &mut Cpu) -> Result<R, E>,
    ) -> Result<R, E> {
        self.enter_untrusted(cpu)?;
        let result = f(self, cpu);
        self.exit_untrusted(cpu)?;
        result
    }

    /// Runs `f` inside the trusted compartment (a callback from `U`),
    /// restoring the untrusted caller's rights on the way out.
    pub fn with_trusted<R, E: From<GateError>>(
        &mut self,
        cpu: &mut Cpu,
        f: impl FnOnce(&mut Gates, &mut Cpu) -> Result<R, E>,
    ) -> Result<R, E> {
        self.enter_trusted(cpu)?;
        let result = f(self, cpu);
        self.exit_trusted(cpu)?;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkru_mpk::AccessKind;

    fn setup() -> (Gates, Cpu, Pkey) {
        let key = Pkey::new(1).unwrap();
        (Gates::new(key), Cpu::new(), key)
    }

    #[test]
    fn enter_untrusted_drops_trusted_access() {
        let (mut gates, mut cpu, key) = setup();
        assert!(cpu.pkru().allows(key, AccessKind::Read));
        gates.enter_untrusted(&mut cpu).unwrap();
        assert!(!cpu.pkru().allows(key, AccessKind::Read));
        assert!(!cpu.pkru().allows(key, AccessKind::Write));
        gates.exit_untrusted(&mut cpu).unwrap();
        assert!(cpu.pkru().allows(key, AccessKind::Write));
    }

    #[test]
    fn exit_restores_previous_not_assumed_rights() {
        // The gate must restore whatever was in force before, not blindly
        // grant trusted access (§3.3).
        let (mut gates, mut cpu, _key) = setup();
        let quirky = Pkru::from_bits(0x0000_0040);
        cpu.set_pkru(quirky);
        gates.enter_untrusted(&mut cpu).unwrap();
        gates.exit_untrusted(&mut cpu).unwrap();
        assert_eq!(cpu.pkru(), quirky);
    }

    #[test]
    fn nested_transitions_unwind_in_order() {
        let (mut gates, mut cpu, key) = setup();
        gates.enter_untrusted(&mut cpu).unwrap();
        gates.enter_trusted(&mut cpu).unwrap(); // Callback into T.
        assert!(cpu.pkru().allows(key, AccessKind::Write));
        gates.enter_untrusted(&mut cpu).unwrap(); // T calls back into U.
        assert!(!cpu.pkru().allows(key, AccessKind::Read));
        gates.exit_untrusted(&mut cpu).unwrap();
        gates.exit_trusted(&mut cpu).unwrap();
        assert!(!cpu.pkru().allows(key, AccessKind::Read), "back in U");
        gates.exit_untrusted(&mut cpu).unwrap();
        assert!(cpu.pkru().allows(key, AccessKind::Write), "back in T");
        assert_eq!(gates.depth(), 0);
        assert_eq!(gates.max_depth(), 3);
        assert_eq!(gates.transitions(), 6);
    }

    #[test]
    fn underflow_detected() {
        let (mut gates, mut cpu, _) = setup();
        assert_eq!(gates.exit_untrusted(&mut cpu), Err(GateError::StackUnderflow));
    }

    #[test]
    fn closure_helpers_restore_on_error() {
        let (mut gates, mut cpu, key) = setup();
        let before = cpu.pkru();
        let result: Result<(), GateError> = gates.with_untrusted(&mut cpu, |_, cpu| {
            assert!(!cpu.pkru().allows(key, AccessKind::Read));
            Err(GateError::StackUnderflow)
        });
        assert!(result.is_err());
        assert_eq!(cpu.pkru(), before);
        assert_eq!(gates.depth(), 0);
    }

    #[test]
    fn transition_counter_resets() {
        let (mut gates, mut cpu, _) = setup();
        gates.with_untrusted::<_, GateError>(&mut cpu, |_, _| Ok(())).unwrap();
        assert_eq!(gates.transitions(), 2);
        gates.reset_transitions();
        assert_eq!(gates.transitions(), 0);
    }

    #[test]
    fn depth_limit_stops_hostile_recursion() {
        let (mut gates, mut cpu, _) = setup();
        gates.set_crossing_cost(Duration::ZERO);
        gates.set_depth_limit(8);
        // Alternating T↔U recursion grows the stack one frame per enter.
        for _ in 0..4 {
            gates.enter_untrusted(&mut cpu).unwrap();
            gates.enter_trusted(&mut cpu).unwrap();
        }
        assert_eq!(gates.depth(), 8);
        assert_eq!(gates.enter_untrusted(&mut cpu), Err(GateError::DepthExceeded { limit: 8 }));
        // The denied enter left the stack balanced: the whole nest still
        // unwinds cleanly.
        for _ in 0..4 {
            gates.exit_trusted(&mut cpu).unwrap();
            gates.exit_untrusted(&mut cpu).unwrap();
        }
        assert_eq!(gates.depth(), 0);
    }

    #[test]
    fn default_depth_limit_is_generous_but_finite() {
        let (mut gates, mut cpu, _) = setup();
        gates.set_crossing_cost(Duration::ZERO);
        for _ in 0..DEFAULT_DEPTH_LIMIT {
            gates.enter_untrusted(&mut cpu).unwrap();
        }
        assert_eq!(
            gates.enter_untrusted(&mut cpu),
            Err(GateError::DepthExceeded { limit: DEFAULT_DEPTH_LIMIT })
        );
    }

    #[test]
    fn tripped_breaker_refuses_compartment_entry() {
        use pkru_handler::{MpkPolicy, ViolationHandler};
        use pkru_vmem::{Fault, FaultKind};

        let (mut gates, mut cpu, key) = setup();
        gates.set_crossing_cost(Duration::ZERO);
        let handler = Arc::new(ViolationHandler::new(MpkPolicy::Quarantine { threshold: 1 }, 0));
        gates.set_violation_handler(Arc::clone(&handler));
        gates.with_untrusted::<_, GateError>(&mut cpu, |_, _| Ok(())).unwrap();
        // One violation trips the threshold-1 breaker...
        handler.on_violation(
            &Fault {
                addr: 0x1000,
                access: AccessKind::Read,
                kind: FaultKind::PkeyViolation { pkey: key, pkru: Pkru::deny_only(key) },
            },
            None,
        );
        assert_eq!(gates.enter_untrusted(&mut cpu), Err(GateError::Quarantined));
        assert_eq!(gates.enter_trusted(&mut cpu), Err(GateError::Quarantined));
        // ...and a respawned incarnation is admitted again.
        handler.begin_incarnation();
        gates.with_untrusted::<_, GateError>(&mut cpu, |_, _| Ok(())).unwrap();
    }

    #[test]
    fn stale_lease_is_refused_before_rights_are_granted() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let (mut gates, mut cpu, key) = setup();
        gates.set_crossing_cost(Duration::ZERO);
        let current = Arc::new(AtomicU64::new(3));
        let tenant_pkru = Pkru::deny_only(key);
        gates.set_untrusted_lease(tenant_pkru, LeaseStamp::new(3, Arc::clone(&current)));
        // Live lease: entry granted, rights in force.
        gates.with_untrusted::<_, GateError>(&mut cpu, |_, _| Ok(())).unwrap();
        // The binding is revoked (key stolen): entry must refuse typed,
        // leave the stack balanced, and never load the stale rights.
        current.store(0, Ordering::SeqCst);
        assert_eq!(
            gates.enter_untrusted(&mut cpu),
            Err(GateError::StaleLease { held: 3, current: 0 })
        );
        assert_eq!(gates.depth(), 0, "a refused entry leaves the stack balanced");
        assert!(
            cpu.pkru().allows(key, AccessKind::Write),
            "refusal must leave the caller at its previous rights"
        );
        // Rebinding at a *newer* generation does not resurrect the old
        // stamp — the worker has to install a fresh lease.
        current.store(4, Ordering::SeqCst);
        assert_eq!(
            gates.enter_untrusted(&mut cpu),
            Err(GateError::StaleLease { held: 3, current: 4 })
        );
        gates.set_untrusted_lease(tenant_pkru, LeaseStamp::new(4, Arc::clone(&current)));
        gates.with_untrusted::<_, GateError>(&mut cpu, |_, _| Ok(())).unwrap();
    }

    #[test]
    fn plain_untrusted_pkru_clears_the_lease() {
        use std::sync::atomic::AtomicU64;

        let (mut gates, mut cpu, _key) = setup();
        gates.set_crossing_cost(Duration::ZERO);
        let current = Arc::new(AtomicU64::new(0)); // already revoked
        gates.set_untrusted_lease(gates.untrusted_pkru(), LeaseStamp::new(1, current));
        assert!(gates.enter_untrusted(&mut cpu).is_err());
        // Restoring the ambient (non-tenant) untrusted PKRU drops the
        // stamp: the worker's base compartment has no lease to go stale.
        gates.set_untrusted_pkru(gates.untrusted_pkru());
        assert!(gates.untrusted_lease().is_none());
        gates.with_untrusted::<_, GateError>(&mut cpu, |_, _| Ok(())).unwrap();
    }

    #[test]
    fn gates_publish_worker_epoch_across_regions() {
        use pkru_mpk::RevocationBarrier;

        let (mut gates, mut cpu, _key) = setup();
        gates.set_crossing_cost(Duration::ZERO);
        let barrier = Arc::new(RevocationBarrier::new());
        let epoch = Arc::new(barrier.register());
        gates.set_worker_epoch(Arc::clone(&epoch));
        assert!(epoch.parked());
        gates.enter_untrusted(&mut cpu).unwrap();
        assert!(!epoch.parked(), "depth 0 → 1 publishes region entry");
        // A steal lands while the region is open: its epoch must not pass.
        let steal = barrier.begin_revocation();
        assert!(!barrier.all_passed(steal));
        // Nested transitions stay inside the same region.
        gates.enter_trusted(&mut cpu).unwrap();
        gates.exit_trusted(&mut cpu).unwrap();
        assert!(!barrier.all_passed(steal), "nested exits are not the restore point");
        gates.exit_untrusted(&mut cpu).unwrap();
        assert!(epoch.parked(), "depth 1 → 0 parks at the single restore point");
        assert!(barrier.all_passed(steal), "parking releases the quarantined epoch");
    }

    /// A clock whose successive readings are `gaps` ns apart (the last
    /// gap repeats).
    fn stepped_clock(gaps: &[u64]) -> impl FnMut() -> Instant + '_ {
        let base = Instant::now();
        let (mut at, mut next) = (0u64, 0usize);
        move || {
            let reading = base + Duration::from_nanos(at);
            at += gaps[next.min(gaps.len() - 1)];
            next += 1;
            reading
        }
    }

    #[test]
    fn a_burn_stops_one_read_short_of_the_cost() {
        // Reads 30 ns apart: the reading at 180 ns plus a 30 ns tail
        // reaches 200, so the loop stops there instead of reading at 210.
        let cost = Duration::from_nanos(200);
        assert_eq!(spin_for(cost, stepped_clock(&[30])), Duration::from_nanos(180));
    }

    #[test]
    fn a_preempted_read_never_ends_a_burn_early() {
        let cost = Duration::from_nanos(200);
        // The first gap is preempted (150 ns, reads cost 10). Trusted as
        // the tail, it would stop the burn at 150; the shortest gap seen
        // by the second reading is 10, so the burn runs on to 190.
        assert_eq!(spin_for(cost, stepped_clock(&[150, 10])), Duration::from_nanos(190));
        // A preempted gap mid-burn only lengthens it.
        assert_eq!(spin_for(cost, stepped_clock(&[10, 10, 500])), Duration::from_nanos(520));
        // Every gap is long: the burn still covers the cost less one gap.
        let stop = spin_for(cost, stepped_clock(&[90]));
        assert_eq!(stop, Duration::from_nanos(180));
    }

    #[test]
    fn a_crossing_never_costs_less_than_the_model() {
        // A lower bound only, so host noise can lengthen the run but
        // cannot flake the test: 4,000 crossings at 200 ns each.
        let (mut gates, mut cpu, _) = setup();
        assert_eq!(DEFAULT_CROSSING_COST, Duration::from_nanos(200));
        let start = Instant::now();
        for _ in 0..2_000 {
            gates.enter_untrusted(&mut cpu).unwrap();
            gates.exit_untrusted(&mut cpu).unwrap();
        }
        let wall = start.elapsed();
        assert_eq!(gates.transitions(), 4_000);
        assert!(wall >= Duration::from_micros(800), "4,000 crossings took {wall:?}");
    }

    #[test]
    fn unchecked_gate_skips_verification() {
        let (mut gates, mut cpu, _) = setup();
        gates.set_verify(false);
        gates.enter_untrusted(&mut cpu).unwrap();
        gates.exit_untrusted(&mut cpu).unwrap();
        assert_eq!(gates.transitions(), 2);
    }
}
