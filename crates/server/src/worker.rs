//! The worker: one thread, one browser, one PKRU — under supervision.
//!
//! Each worker owns a full `servolite` browser built on the shared host —
//! its own CPU (and therefore its own PKRU rights), its own call-gate
//! stack, and its own allocator carve-out — while page tables, key
//! assignments, and the trusted key itself are process-wide shared state.
//!
//! Workers are *mortal*: setup can fail, a request can panic, the
//! carve-out can run dry (all of which [`FaultState`] can provoke on
//! demand). So a worker records everything it does — counters, responses,
//! and the request currently in flight — in a [`WorkerCell`] the
//! supervisor also holds: whatever kills the incarnation, the work it
//! completed survives, and the one request it was holding can be requeued.

use std::sync::{Arc, Mutex};

use servolite::{Browser, BrowserConfig, BrowserError, DispatchOptions, DispatchStats};
use workloads::suites::micro_page;

use lir::SharedHost;
use minijs::Value;
use pkru_gates::GateError;
use pkru_handler::ViolationHandler;
use pkru_provenance::Profile;
use pkru_tenant::{TenantLease, TenantRegistry};

use crate::fault::{FaultKind, FaultState};
use crate::overload::OverloadState;
use crate::queue::BoundedQueue;
use crate::request::{Request, RequestKind, Response, ScriptSpec, PAGE_LOAD};
use crate::server::ServeError;

/// Backoff-and-retry attempts a worker spends binding a tenant whose
/// every candidate key is quarantined behind the revocation barrier
/// before giving up on the request (each attempt already includes the
/// pool's own bounded wait).
const TENANT_BIND_RETRIES: usize = 8;

/// How many times a worker re-binds after its lease is revoked
/// mid-request (the pool stole the tenant's key underneath it) before
/// completing the request as an error.
const STALE_REBIND_RETRIES: usize = 4;

/// Per-worker counters, reported after drain.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// The worker's slot index.
    pub worker: usize,
    /// Requests completed (page loads + scripts, including ones that
    /// completed with an error or fault — but not a request whose worker
    /// died mid-flight, which is requeued or abandoned instead).
    pub requests: u64,
    /// Page-load requests completed.
    pub page_loads: u64,
    /// Script requests completed.
    pub scripts: u64,
    /// Compartment transitions this worker's gates executed.
    pub transitions: u64,
    /// MPK violations observed — always unexpected under a complete
    /// profile.
    pub pkey_faults: u64,
    /// Non-MPK request failures.
    pub errors: u64,
    /// Requests shed at pop because their deadline had already passed
    /// (never served; disjoint from `requests`).
    pub expired: u64,
    /// Inline-cache hits this worker's engine served (per-browser, unlike
    /// the global TLB counters — folded here at incarnation exit).
    pub ic_hits: u64,
    /// Inline-cache misses (slow property walks that then filled a cache).
    pub ic_misses: u64,
    /// Bulk superinstructions the worker's machine executed in place of
    /// per-byte loops.
    pub fused_ops: u64,
    /// Requests after which the engine heap went back to its checkpoint.
    pub rewinds: u64,
    /// Requests after which the heap rewind refused (a handle made during
    /// the request escaped into older state) and promoted the checkpoint.
    pub rewinds_refused: u64,
    /// Buffers of objects those rewinds dropped that the `M_U` allocator
    /// refused to take back (their chunk tags were overwritten during the
    /// request), left allocated.
    pub rewind_leaks: u64,
}

/// How one request ends. The worker decides it once per request, and
/// [`WorkerCell::dispose`] records it: the one place a request is counted.
#[derive(Clone, Copy, Debug)]
enum Disposal {
    /// Shed at pop because its deadline had passed: counts `expired` only.
    Expired,
    /// Completed: counts `requests` plus `page_loads` or `scripts`, then
    /// records `outcome`. `ran` says whether the page load or script
    /// itself ran; only such a request takes a latency sample.
    Completed { outcome: Outcome, ran: bool },
}

/// What a completed request records besides being counted.
#[derive(Clone, Copy, Debug)]
enum Outcome {
    /// A response carrying its checksum (the determinism witness).
    Response { name: &'static str, checksum: f64 },
    /// An MPK violation: counts `pkey_faults`.
    PkeyFault,
    /// Any other failure: counts `errors`.
    Error,
    /// Nothing more: a quarantined tenant's rejection, or an injected
    /// probe whose violation the handler already accounted for.
    Nothing,
}

impl Outcome {
    /// The outcome of a request the browser failed.
    fn failed(error: &BrowserError) -> Outcome {
        if error.is_pkey_violation() {
            Outcome::PkeyFault
        } else {
            Outcome::Error
        }
    }
}

struct CellInner {
    stats: WorkerStats,
    responses: Vec<Response>,
    in_flight: Option<Request>,
    /// The incarnation currently authorized to write through this cell.
    /// [`WorkerCell::condemn`] bumps it, *poisoning* every outstanding
    /// handle: a wedged (or merely slow) thread still holding the old
    /// incarnation can keep running, but its writes no longer land — the
    /// slot's accounting belongs to the replacement.
    live: u64,
    /// Progress heartbeat: bumped on every pop/disposition by the live
    /// incarnation. The watchdog declares the slot stalled when this
    /// stops advancing while a request is in flight.
    heartbeat: u64,
    /// Admission→completion latencies (ms) of requests that ran; only
    /// requests the producer stamped `enqueued` are sampled.
    latencies: Vec<f64>,
}

/// One worker slot's state, shared between every incarnation of the slot
/// and the supervisor. All transitions are atomic under one lock, so a
/// request is always in exactly one place: in flight, disposed, or back
/// on the queue — and every write is stamped with the incarnation making
/// it, so a condemned thread can never corrupt its successor's ledger.
pub(crate) struct WorkerCell {
    inner: Mutex<CellInner>,
}

impl WorkerCell {
    /// A fresh cell for worker slot `worker`.
    pub(crate) fn new(worker: usize) -> WorkerCell {
        WorkerCell {
            inner: Mutex::new(CellInner {
                stats: WorkerStats { worker, ..WorkerStats::default() },
                responses: Vec::new(),
                in_flight: None,
                live: 0,
                heartbeat: 0,
                latencies: Vec::new(),
            }),
        }
    }

    /// The incarnation a newly spawned thread must present to write here.
    pub(crate) fn live_incarnation(&self) -> u64 {
        self.inner.lock().unwrap().live
    }

    /// Marks `request` in flight and beats the heartbeat (called right
    /// after the pop). No-op for a condemned incarnation.
    fn begin(&self, incarnation: u64, request: Request) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.live != incarnation {
            return false;
        }
        inner.in_flight = Some(request);
        inner.heartbeat += 1;
        true
    }

    /// Disposes of the in-flight `request` as `disposal` says: clears it,
    /// beats the heartbeat, counts it, keeps its response and latency
    /// sample, and ticks the logical clock — all in one critical section,
    /// so a crash can never double-account a request. A condemned
    /// incarnation's disposal changes nothing, the clock included.
    fn dispose(
        &self,
        incarnation: u64,
        request: &Request,
        disposal: Disposal,
        clock: &OverloadState,
    ) {
        let mut guard = self.inner.lock().expect("worker cell lock");
        if guard.live != incarnation {
            return;
        }
        let inner = &mut *guard;
        inner.in_flight = None;
        inner.heartbeat += 1;
        clock.tick();
        let stats = &mut inner.stats;
        match disposal {
            Disposal::Expired => stats.expired += 1,
            Disposal::Completed { outcome, ran } => {
                stats.requests += 1;
                match request.kind {
                    RequestKind::PageLoad => stats.page_loads += 1,
                    RequestKind::Script(_) => stats.scripts += 1,
                }
                match outcome {
                    Outcome::Response { name, checksum } => {
                        let worker = stats.worker;
                        inner.responses.push(Response { id: request.id, worker, name, checksum });
                    }
                    Outcome::PkeyFault => stats.pkey_faults += 1,
                    Outcome::Error => stats.errors += 1,
                    Outcome::Nothing => {}
                }
                if let (true, Some(enqueued)) = (ran, request.enqueued) {
                    inner.latencies.push(enqueued.elapsed().as_secs_f64() * 1000.0);
                }
            }
        }
    }

    /// Folds one incarnation's gate transitions into the slot total.
    /// Deliberately *not* incarnation-gated: transitions are real work the
    /// hardware executed, whoever's ledger the requests land in.
    fn add_transitions(&self, transitions: u64) {
        self.inner.lock().unwrap().stats.transitions += transitions;
    }

    /// Folds one incarnation's dispatch counters (inline-cache hits and
    /// misses, fused superinstructions) into the slot total. Like
    /// [`WorkerCell::add_transitions`], not incarnation-gated: the counts
    /// are work the interpreter really did.
    fn add_dispatch(&self, dispatch: DispatchStats) {
        let mut inner = self.inner.lock().unwrap();
        inner.stats.ic_hits += dispatch.ic_hits;
        inner.stats.ic_misses += dispatch.ic_misses;
        inner.stats.fused_ops += dispatch.fused_ops;
    }

    /// Folds one incarnation's heap rewind counts `(went back, refused,
    /// buffers leaked)` into the slot total; not incarnation-gated, like
    /// the dispatch counters.
    fn add_rewinds(&self, (rewinds, refused, leaks): (u64, u64, u64)) {
        let mut inner = self.inner.lock().unwrap();
        inner.stats.rewinds += rewinds;
        inner.stats.rewinds_refused += refused;
        inner.stats.rewind_leaks += leaks;
    }

    /// Takes the request the (dead) incarnation was holding, if any.
    pub(crate) fn take_in_flight(&self) -> Option<Request> {
        self.inner.lock().unwrap().in_flight.take()
    }

    /// The watchdog's probe: `(heartbeat, request-in-flight?)`.
    pub(crate) fn probe(&self) -> (u64, bool) {
        let inner = self.inner.lock().unwrap();
        (inner.heartbeat, inner.in_flight.is_some())
    }

    /// Condemns the current incarnation (a wedged thread the supervisor
    /// is writing off): bumps `live` so the thread's future writes are
    /// poisoned, and takes the in-flight request for requeue — both under
    /// one lock, so the wedged thread cannot complete the request *and*
    /// hand it back.
    pub(crate) fn condemn(&self) -> Option<Request> {
        let mut inner = self.inner.lock().unwrap();
        inner.live += 1;
        inner.in_flight.take()
    }

    /// A snapshot of everything the slot has produced so far.
    pub(crate) fn snapshot(&self) -> (WorkerStats, Vec<Response>) {
        let inner = self.inner.lock().unwrap();
        (inner.stats, inner.responses.clone())
    }

    /// Drains the slot's recorded latency samples.
    pub(crate) fn take_latencies(&self) -> Vec<f64> {
        std::mem::take(&mut self.inner.lock().unwrap().latencies)
    }
}

/// The read-only pool context every worker incarnation shares: the queue,
/// the host, the armed faults, and the overload machinery. Bundled so a
/// respawn is one call, not a ten-argument ritual.
#[derive(Clone, Copy)]
pub(crate) struct PoolCtx<'a> {
    /// The bounded work queue.
    pub(crate) queue: &'a BoundedQueue<Request>,
    /// The shared MPK host (page tables, keys, carve-outs).
    pub(crate) host: &'a SharedHost,
    /// The provenance profile workers enforce.
    pub(crate) profile: &'a Profile,
    /// The served script catalog.
    pub(crate) catalog: &'a [ScriptSpec],
    /// Armed fault injections.
    pub(crate) faults: &'a FaultState,
    /// The tenant registry (multi-tenant runs only).
    pub(crate) registry: Option<&'a TenantRegistry>,
    /// The logical clock and shed counters.
    pub(crate) overload: &'a OverloadState,
}

/// Drains the worker's own untrusted carve-out until the allocator
/// refuses — the injected version of a leak or a hostile guest chewing
/// through its compartment budget. Bounded: the carve-out span is finite
/// and each grab halves on failure, so this terminates fast.
fn exhaust_carveout(browser: &mut Browser) -> String {
    let mut grab = 1u64 << 30;
    let mut grabbed = 0u64;
    loop {
        match browser.machine.alloc.untrusted_alloc(grab) {
            Ok(_) => grabbed += grab,
            Err(_) if grab > 64 => grab /= 2,
            Err(e) => {
                return format!("allocator carve-out exhausted after {grabbed} injected bytes: {e}")
            }
        }
    }
}

/// Runs one worker incarnation to queue exhaustion, recording counters,
/// responses, and the in-flight request in `cell` as it goes —
/// every write stamped with `incarnation`, so a predecessor the watchdog
/// condemned can still be running without corrupting this ledger.
///
/// The browser is constructed *inside* the worker thread (it is `!Send`):
/// only the [`SharedHost`] crosses the thread boundary. A respawned
/// incarnation claims a fresh carve-out slot from the host, so it starts
/// with a clean allocator even if its predecessor died by exhaustion.
pub(crate) fn run_worker(
    worker: usize,
    incarnation: u64,
    ctx: PoolCtx<'_>,
    cell: &WorkerCell,
    handler: Option<&Arc<ViolationHandler>>,
) -> Result<(), ServeError> {
    if let Some(handler) = handler {
        // A fresh incarnation starts with a clean quarantine breaker; the
        // per-site ledger and the audit log persist across respawns.
        handler.begin_incarnation();
    }
    if ctx.faults.setup_should_fail(worker) {
        return Err(ServeError::Worker {
            worker,
            message: "browser setup: injected setup failure".into(),
            report: None,
        });
    }
    // The incarnation's per-thread TLB over the shared host space is on
    // from machine construction, so even browser setup traffic uses it.
    let mut browser = Browser::with_dispatch(
        BrowserConfig::Mpk,
        Some(ctx.profile),
        Some(ctx.host),
        handler.cloned(),
        true,
        DispatchOptions::default(),
    )
    .map_err(|e| ServeError::Worker {
        worker,
        message: format!("browser setup: {e}"),
        report: None,
    })?;
    browser.load_html(micro_page()).map_err(|e| ServeError::Worker {
        worker,
        message: format!("initial page: {e}"),
        report: None,
    })?;
    // Every request leaves the engine heap as the page load left it: the
    // rewind after each one hands the request's objects back to `M_U`.
    let mut checkpoint = browser.checkpoint();
    // The worker's ambient compartment context, restored after every
    // tenant-tagged request: the single-U untrusted PKRU and the default
    // (deny-all) syscall filter the browser was built with.
    let base_untrusted = browser.machine.gates.untrusted_pkru();
    let base_filter = browser.machine.syscall_filter().clone();
    // Register this incarnation with the key pool's revocation barrier.
    // The gates publish through the handle — region entry (depth 0 → 1)
    // stamps the barrier epoch, the single restore point parks — and its
    // Drop (including panic unwind through the supervision path)
    // deregisters, so a dead incarnation can never wedge a quarantined
    // key.
    let _epoch = ctx.registry.map(|r| {
        let epoch = Arc::new(r.pool().barrier().register());
        browser.machine.gates.set_worker_epoch(Arc::clone(&epoch));
        epoch
    });

    let served = loop {
        let Some(request) = ctx.queue.pop() else { break Ok(()) };
        // A condemned incarnation (the watchdog wrote this thread off and
        // respawned the slot) must not serve: the popped request belongs
        // to a live worker — hand it back and bow out.
        if !cell.begin(incarnation, request) {
            ctx.queue.requeue(request);
            break Ok(());
        }
        let mut installed = None;
        let disposal = serve_one(worker, ctx, handler, &mut browser, &request, &mut installed);
        let in_tenant = installed.is_some();
        // The one restore point: put the worker's ambient compartment back
        // before anything else can run on this browser, so a tenant swap
        // never leaks into the next request. `set_untrusted_pkru` also
        // drops the lease stamp from the gates.
        if let Some(lease) = installed {
            browser.machine.gates.set_untrusted_pkru(base_untrusted);
            browser.machine.install_syscall_filter(base_filter.clone());
            // The tenant handler's grant scope must not outlive the
            // request: the tenant's key may be stolen and recycled the
            // moment the lease drops, and a lingering scope would let an
            // audit single-step grant the recycled key.
            if let Some(h) = lease.tenant().handler() {
                h.refresh_tenant_scope(None);
            }
            match handler {
                Some(h) => browser.machine.set_violation_handler(Arc::clone(h)),
                None => browser.machine.clear_violation_handler(),
            }
        }
        // Whether the request completed, failed or faulted, the engine
        // heap goes back to the checkpoint (or, if a handle the request
        // made escaped into older state, the checkpoint moves forward).
        browser.rewind(&mut checkpoint);
        match disposal {
            Ok(disposal) => cell.dispose(incarnation, &request, disposal, ctx.overload),
            // The request stays in flight: the supervisor requeues it.
            Err(death) => break Err(death),
        }
        // The worker's own quarantine breaker tripped: tear this
        // incarnation down through the supervision path, with nothing in
        // flight to requeue. Inside a tenant's compartment the tenant's
        // breaker applies, and it condemns only the tenant.
        if !in_tenant && handler.is_some_and(|h| h.tripped()) {
            break Err(ServeError::Worker {
                worker,
                message: "quarantined: MPK violation breaker tripped".into(),
                report: None,
            });
        }
    };
    cell.add_transitions(browser.stats().transitions);
    cell.add_dispatch(browser.dispatch_stats());
    cell.add_rewinds(browser.engine.rewind_stats());
    served
}

/// Serves one popped request on the worker's browser and decides how it
/// ends: `Ok` with its disposal, or `Err` with the worker's death, which
/// leaves the request in flight for the supervisor. A tenant-tagged
/// request leaves the lease it installed in `installed`, for the caller
/// to restore the worker's ambient compartment after it.
fn serve_one(
    worker: usize,
    ctx: PoolCtx<'_>,
    handler: Option<&Arc<ViolationHandler>>,
    browser: &mut Browser,
    request: &Request,
    installed: &mut Option<TenantLease>,
) -> Result<Disposal, ServeError> {
    let done = |outcome| Ok(Disposal::Completed { outcome, ran: false });
    // Deadline shedding at pop: a request whose deadline the logical
    // clock has already passed is counted expired, never served —
    // bounding queue wait at `deadline_ticks` service times.
    if request.deadline != 0 && ctx.overload.ticks() >= request.deadline {
        return Ok(Disposal::Expired);
    }
    // Tenant-tagged request: bind the tenant's virtual key (possibly
    // stealing an LRU hardware key from an idle tenant) and swap the
    // worker into the tenant's compartment. The lease does not pin the
    // binding — revocation protects it: if the pool steals the key
    // mid-request, the gates refuse with a typed `StaleLease` and the
    // worker re-binds.
    if let (Some(registry), Some(tid)) = (ctx.registry, request.tenant) {
        // Bind refused after the retry budget (sustained barrier pressure
        // or true exhaustion): the request completes as an error, the
        // worker survives.
        let Ok(lease) = registry.bind_with_retry(tid, TENANT_BIND_RETRIES) else {
            return done(Outcome::Error);
        };
        let tenant = Arc::clone(lease.tenant());
        if tenant.quarantined() {
            // A quarantined tenant is refused per request — its
            // neighbours (and this worker) keep serving.
            tenant.record_rejected();
            return done(Outcome::Nothing);
        }
        tenant.record_request();
        install_tenant(browser, &lease);
        let lease = installed.insert(lease);
        if !touch_tenant(browser, registry, lease, request.id) {
            return done(Outcome::Error);
        }
    }
    // Injected faults consult the *tenant's* handler when one is active:
    // a violation inside a tenant compartment is the tenant's liability,
    // not the worker's.
    let active_handler = installed.as_ref().and_then(|l| l.tenant().handler()).or(handler);
    match ctx.faults.next_request(worker) {
        None => Ok(run_request(ctx.catalog, request, browser)),
        Some(FaultKind::Panic) => {
            // The in-flight request stays in the cell: the supervisor
            // recovers and requeues it.
            panic!("injected panic: worker {worker} dying on request {}", request.id);
        }
        // No handler (enforce): an injected violation looks exactly like a
        // real one — the request completes, the defect lands in the report.
        Some(FaultKind::PkeyViolation) if active_handler.is_none() => done(Outcome::PkeyFault),
        // With a handler, the injection provokes a *real* MPK violation (a
        // trusted-pool read from inside the compartment) that flows
        // through the machine's fault path into the handler. The violation
        // is accounted there — never in `pkey_faults` — so
        // `injected_faults` and the `violations_*` counters stay disjoint
        // from the legacy unexpected-fault counter. A denied probe is the
        // handler's verdict (enforcement or a tripped breaker); anything
        // else is a genuine worker error.
        Some(FaultKind::PkeyViolation) => match browser.probe_trusted_access() {
            Err(e) if !e.is_pkey_violation() => done(Outcome::Error),
            _ => done(Outcome::Nothing),
        },
        Some(FaultKind::AllocExhaustion) => {
            let message = exhaust_carveout(browser);
            Err(ServeError::Worker { worker, message, report: None })
        }
        Some(FaultKind::Stall) => {
            // The wedge: heartbeat frozen, request in flight, thread
            // parked on the stall gate. The watchdog must condemn this
            // incarnation and requeue the request; the gate opens only
            // once supervision is over, and by then this incarnation is
            // poisoned — it exits with nothing to report. Any tenant gate
            // region was already exited (the worker's barrier epoch is
            // parked), so a wedged thread never blocks key revocation.
            ctx.faults.stall_until_released();
            Err(ServeError::Worker {
                worker,
                message: "condemned: stalled past the watchdog deadline".into(),
                report: None,
            })
        }
        // Setup faults are filtered out by `next_request`.
        Some(FaultKind::SetupFailure) => unreachable!("setup fault on a live worker"),
    }
}

/// Touches the tenant's private region under its rights: the round-trip
/// only succeeds if the bind re-tagged the tenant's (parked) pages onto
/// the leased hardware key. The pool may steal that key at any moment —
/// the gate then refuses with a typed `StaleLease` (or a mem op faults on
/// the freshly parked pages mid-region), and the worker re-binds into
/// `lease` and retries, bounded. Returns whether the touch succeeded.
fn touch_tenant(
    browser: &mut Browser,
    registry: &TenantRegistry,
    lease: &mut TenantLease,
    request_id: u64,
) -> bool {
    let tenant = Arc::clone(lease.tenant());
    let scratch = tenant.scratch_addr();
    let mut rebinds = 0usize;
    loop {
        let m = &mut browser.machine;
        let ok = match m.gates.enter_untrusted(&mut m.cpu) {
            Ok(()) => {
                let wrote = m.mem_write(scratch, request_id).is_ok()
                    && m.mem_read(scratch) == Ok(request_id);
                // The exit gate runs unconditionally after a successful
                // enter: an open region would block the revocation barrier
                // (and leak compartment stack depth) for the rest of the
                // incarnation.
                let exited = m.gates.exit_untrusted(&mut m.cpu).is_ok();
                wrote && exited
            }
            Err(GateError::StaleLease { .. }) => false,
            Err(_) => return false,
        };
        if ok {
            return true;
        }
        if lease.is_current() || rebinds >= STALE_REBIND_RETRIES {
            return false;
        }
        // Revoked underneath us: re-bind the tenant (counted against its
        // bind_retries stat) and reinstall the fresh lease.
        rebinds += 1;
        tenant.record_bind_retry();
        match registry.bind_with_retry(tenant.id(), TENANT_BIND_RETRIES) {
            Ok(fresh) => {
                install_tenant(browser, &fresh);
                *lease = fresh;
            }
            Err(_) => return false,
        }
    }
}

/// Swaps the worker's browser into a tenant's compartment: installs the
/// lease's PKRU together with its liveness stamp (so the gates refuse
/// stale entry typed), refreshes the tenant handler's grant scope to the
/// *currently* bound hardware key, and installs the tenant's violation
/// handler and syscall filter.
fn install_tenant(browser: &mut Browser, lease: &TenantLease) {
    browser.machine.gates.set_untrusted_lease(lease.pkru(), lease.stamp());
    if let Some(h) = lease.tenant().handler() {
        h.refresh_tenant_scope(Some(lease.hw_key()));
        browser.machine.set_violation_handler(Arc::clone(h));
    }
    browser.machine.install_syscall_filter(lease.tenant().syscall_filter().clone());
}

/// Runs one page load or catalog script on the worker's browser.
fn run_request(catalog: &[ScriptSpec], request: &Request, browser: &mut Browser) -> Disposal {
    let outcome = match request.kind {
        RequestKind::PageLoad => {
            let before = browser.stats().nodes;
            match browser.load_html(micro_page()) {
                // A reload can only ever add nodes, but a failed-then-retried
                // load must not be able to panic the worker on an impossible
                // negative delta — count it as an error instead.
                Ok(()) => match browser.stats().nodes.checked_sub(before) {
                    Some(delta) => Outcome::Response { name: PAGE_LOAD, checksum: delta as f64 },
                    None => Outcome::Error,
                },
                Err(e) => Outcome::failed(&e),
            }
        }
        RequestKind::Script(i) => {
            let spec = &catalog[i];
            match browser.eval_script(&spec.source).and_then(|_| browser.call_script("run", &[])) {
                Ok(Value::Num(checksum)) => Outcome::Response { name: spec.name, checksum },
                Ok(_) => Outcome::Error,
                Err(e) => Outcome::failed(&e),
            }
        }
    };
    Disposal::Completed { outcome, ran: true }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;

    fn request(kind: RequestKind) -> Request {
        Request {
            id: 7,
            kind,
            retried: false,
            tenant: None,
            deadline: 0,
            enqueued: Some(Instant::now()),
        }
    }

    /// `(requests, page_loads, scripts, pkey_faults, errors, expired)`.
    fn counts(stats: &WorkerStats) -> [u64; 6] {
        [
            stats.requests,
            stats.page_loads,
            stats.scripts,
            stats.pkey_faults,
            stats.errors,
            stats.expired,
        ]
    }

    const OUTCOMES: [Outcome; 4] = [
        Outcome::Response { name: "fft", checksum: 1.5 },
        Outcome::PkeyFault,
        Outcome::Error,
        Outcome::Nothing,
    ];

    #[test]
    fn a_condemned_incarnations_disposal_changes_nothing() {
        let clock = OverloadState::new(0);
        let cell = WorkerCell::new(3);
        let req = request(RequestKind::Script(0));
        assert!(cell.begin(0, req));
        assert_eq!(cell.condemn(), Some(req));
        let heartbeat = cell.probe().0;
        for disposal in OUTCOMES
            .map(|outcome| Disposal::Completed { outcome, ran: true })
            .into_iter()
            .chain([Disposal::Expired])
        {
            cell.dispose(0, &req, disposal, &clock);
        }
        let (stats, responses) = cell.snapshot();
        assert_eq!(counts(&stats), [0; 6]);
        assert!(responses.is_empty());
        assert!(cell.take_latencies().is_empty());
        assert_eq!(clock.ticks(), 0);
        assert_eq!(cell.probe(), (heartbeat, false));
    }

    #[test]
    fn expired_moves_only_expired() {
        let clock = OverloadState::new(0);
        let cell = WorkerCell::new(0);
        let req = request(RequestKind::PageLoad);
        assert!(cell.begin(0, req));
        cell.dispose(0, &req, Disposal::Expired, &clock);
        let (stats, responses) = cell.snapshot();
        assert_eq!(counts(&stats), [0, 0, 0, 0, 0, 1]);
        assert!(responses.is_empty());
        assert!(cell.take_latencies().is_empty());
        assert_eq!(clock.ticks(), 1);
        assert_eq!(cell.take_in_flight(), None);
    }

    #[test]
    fn every_completion_counts_its_kind_and_at_most_one_outcome() {
        for kind in [RequestKind::PageLoad, RequestKind::Script(0)] {
            for outcome in OUTCOMES {
                for ran in [false, true] {
                    for stamped in [false, true] {
                        let clock = OverloadState::new(0);
                        let cell = WorkerCell::new(2);
                        let req = Request { enqueued: stamped.then(Instant::now), ..request(kind) };
                        assert!(cell.begin(0, req));
                        cell.dispose(0, &req, Disposal::Completed { outcome, ran }, &clock);
                        let (stats, responses) = cell.snapshot();
                        let page = u64::from(kind == RequestKind::PageLoad);
                        let [requests, page_loads, scripts, pkey_faults, errors, expired] =
                            counts(&stats);
                        let case = format!("{kind:?} {outcome:?} ran={ran} stamped={stamped}");
                        assert_eq!((requests, page_loads, scripts), (1, page, 1 - page), "{case}");
                        assert_eq!(expired, 0, "{case}");
                        let recorded = (responses.len() as u64, pkey_faults, errors);
                        let expected = match outcome {
                            Outcome::Response { .. } => (1, 0, 0),
                            Outcome::PkeyFault => (0, 1, 0),
                            Outcome::Error => (0, 0, 1),
                            Outcome::Nothing => (0, 0, 0),
                        };
                        assert_eq!(recorded, expected, "{case}");
                        if let Some(response) = responses.first() {
                            assert_eq!((response.id, response.worker), (7, 2), "{case}");
                            assert_eq!((response.name, response.checksum), ("fft", 1.5), "{case}");
                        }
                        let sampled = cell.take_latencies().len();
                        assert_eq!(sampled, usize::from(ran && stamped), "{case}");
                        assert_eq!(clock.ticks(), 1, "{case}");
                        assert_eq!(cell.take_in_flight(), None, "{case}");
                    }
                }
            }
        }
    }
}
