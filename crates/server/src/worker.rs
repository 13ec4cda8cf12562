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

use servolite::{Browser, BrowserConfig, DispatchStats};
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
    /// Admission→completion latencies (ms) of disposed requests, kept
    /// only when the run records latency percentiles.
    latencies: Vec<f64>,
}

/// One worker slot's state, shared between every incarnation of the slot
/// and the supervisor. All transitions are atomic under one lock, so a
/// request is always in exactly one place: in flight, completed, or back
/// on the queue — and every write is stamped with the incarnation making
/// it, so a condemned thread can never corrupt its successor's ledger.
pub struct WorkerCell {
    inner: Mutex<CellInner>,
}

impl WorkerCell {
    /// A fresh cell for worker slot `worker`.
    pub fn new(worker: usize) -> WorkerCell {
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
    pub fn live_incarnation(&self) -> u64 {
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

    /// Completes the in-flight request: clears it, beats the heartbeat,
    /// and applies `update` to the counters/responses in one critical
    /// section, so a crash can never double-account a request. Returns
    /// whether the write landed (a condemned incarnation's does not).
    fn complete(
        &self,
        incarnation: u64,
        update: impl FnOnce(&mut WorkerStats, &mut Vec<Response>),
    ) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.live != incarnation {
            return false;
        }
        inner.in_flight = None;
        inner.heartbeat += 1;
        let inner = &mut *inner;
        update(&mut inner.stats, &mut inner.responses);
        true
    }

    /// Sheds the in-flight request as expired: clears it, beats the
    /// heartbeat, counts the shed — one critical section, same rules as
    /// [`WorkerCell::complete`]. Returns whether the shed landed.
    fn expire(&self, incarnation: u64) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.live != incarnation {
            return false;
        }
        inner.in_flight = None;
        inner.heartbeat += 1;
        inner.stats.expired += 1;
        true
    }

    /// Records one admission→completion latency sample.
    fn push_latency(&self, incarnation: u64, ms: f64) {
        let mut inner = self.inner.lock().unwrap();
        if inner.live == incarnation {
            inner.latencies.push(ms);
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

    /// Takes the request the (dead) incarnation was holding, if any.
    pub fn take_in_flight(&self) -> Option<Request> {
        self.inner.lock().unwrap().in_flight.take()
    }

    /// The watchdog's probe: `(heartbeat, request-in-flight?)`.
    pub fn probe(&self) -> (u64, bool) {
        let inner = self.inner.lock().unwrap();
        (inner.heartbeat, inner.in_flight.is_some())
    }

    /// Condemns the current incarnation (a wedged thread the supervisor
    /// is writing off): bumps `live` so the thread's future writes are
    /// poisoned, and takes the in-flight request for requeue — both under
    /// one lock, so the wedged thread cannot complete the request *and*
    /// hand it back.
    pub fn condemn(&self) -> Option<Request> {
        let mut inner = self.inner.lock().unwrap();
        inner.live += 1;
        inner.in_flight.take()
    }

    /// A snapshot of everything the slot has produced so far.
    pub fn snapshot(&self) -> (WorkerStats, Vec<Response>) {
        let inner = self.inner.lock().unwrap();
        (inner.stats, inner.responses.clone())
    }

    /// Drains the slot's recorded latency samples.
    pub fn take_latencies(&self) -> Vec<f64> {
        std::mem::take(&mut self.inner.lock().unwrap().latencies)
    }
}

/// The read-only pool context every worker incarnation shares: the queue,
/// the host, the armed faults, and the overload machinery. Bundled so a
/// respawn is one call, not a ten-argument ritual.
#[derive(Clone, Copy)]
pub struct PoolCtx<'a> {
    /// The bounded work queue.
    pub queue: &'a BoundedQueue<Request>,
    /// The shared MPK host (page tables, keys, carve-outs).
    pub host: &'a SharedHost,
    /// The provenance profile workers enforce.
    pub profile: &'a Profile,
    /// The served script catalog.
    pub catalog: &'a [ScriptSpec],
    /// Armed fault injections.
    pub faults: &'a FaultState,
    /// The tenant registry (multi-tenant runs only).
    pub registry: Option<&'a TenantRegistry>,
    /// The logical clock and shed counters.
    pub overload: &'a OverloadState,
    /// Whether workers run the per-thread software TLB.
    pub tlb: bool,
    /// Whether to record admission→completion latency samples.
    pub record_latency: bool,
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
pub fn run_worker(
    worker: usize,
    incarnation: u64,
    ctx: PoolCtx<'_>,
    cell: &WorkerCell,
    handler: Option<&Arc<ViolationHandler>>,
) -> Result<(), ServeError> {
    let PoolCtx { queue, host, profile, faults, registry, overload, tlb, .. } = ctx;
    if let Some(handler) = handler {
        // A fresh incarnation starts with a clean quarantine breaker; the
        // per-site ledger and the audit log persist across respawns.
        handler.begin_incarnation();
    }
    if faults.setup_should_fail(worker) {
        return Err(ServeError::Worker {
            worker,
            message: "browser setup: injected setup failure".into(),
            report: None,
        });
    }
    // The incarnation's per-thread TLB over the shared host space is
    // configured at machine construction (disabled only in the ablation
    // configuration), so even browser setup traffic goes the right way.
    let mut browser =
        Browser::with_tlb(BrowserConfig::Mpk, Some(profile), Some(host), handler.cloned(), tlb)
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
    let _epoch = registry.map(|r| {
        let epoch = Arc::new(r.pool().barrier().register());
        browser.machine.gates.set_worker_epoch(Arc::clone(&epoch));
        epoch
    });

    while let Some(request) = queue.pop() {
        // A condemned incarnation (the watchdog wrote this thread off and
        // respawned the slot) must not serve: the popped request belongs
        // to a live worker — hand it back and bow out.
        if !cell.begin(incarnation, request) {
            queue.requeue(request);
            break;
        }
        // Deadline shedding at pop: a request whose deadline the logical
        // clock has already passed is counted expired, never served —
        // bounding queue wait at `deadline_ticks` service times.
        if request.deadline != 0 && overload.ticks() >= request.deadline {
            if cell.expire(incarnation) {
                overload.tick();
            }
            continue;
        }
        // Tenant-tagged request: bind the tenant's virtual key (possibly
        // stealing an LRU hardware key from an idle tenant) and swap the
        // worker into the tenant's compartment. The lease no longer pins
        // the binding — revocation protects it: if the pool steals the
        // key mid-request, the gates refuse with a typed `StaleLease`
        // and the worker re-binds below.
        let mut lease = match (registry, request.tenant) {
            (Some(registry), Some(tid)) => {
                match registry.bind_with_retry(tid, TENANT_BIND_RETRIES) {
                    Ok(lease) => {
                        let tenant = Arc::clone(lease.tenant());
                        if tenant.quarantined() {
                            // A quarantined tenant is refused per request
                            // — its neighbours (and this worker) keep
                            // serving.
                            tenant.record_rejected();
                            if cell.complete(incarnation, |stats, _| {
                                stats.requests += 1;
                                match request.kind {
                                    RequestKind::PageLoad => stats.page_loads += 1,
                                    RequestKind::Script(_) => stats.scripts += 1,
                                }
                            }) {
                                overload.tick();
                            }
                            continue;
                        }
                        tenant.record_request();
                        install_tenant(&mut browser, &lease);
                        Some(lease)
                    }
                    // Bind refused after the retry budget (sustained
                    // barrier pressure or true exhaustion): the request
                    // completes as an error, the worker survives.
                    Err(_) => {
                        if cell.complete(incarnation, |stats, _| {
                            stats.requests += 1;
                            match request.kind {
                                RequestKind::PageLoad => stats.page_loads += 1,
                                RequestKind::Script(_) => stats.scripts += 1,
                            }
                            stats.errors += 1;
                        }) {
                            overload.tick();
                        }
                        continue;
                    }
                }
            }
            _ => None,
        };
        // The tenant outlives any one lease (a stale re-bind replaces
        // the lease mid-request), so hold it by its own Arc.
        let tenant_arc = lease.as_ref().map(|l| Arc::clone(l.tenant()));
        // Injected faults consult the *tenant's* handler when one is
        // active: a violation inside a tenant compartment is the
        // tenant's liability, not the worker's.
        let active_handler = tenant_arc.as_ref().and_then(|t| t.handler()).or(handler);
        // The request body runs inside a labelled block so every early
        // exit funnels through one restore point below — a tenant swap
        // must never leak into the next request's compartment.
        let die: Option<ServeError> = 'serve: {
            if lease.is_some() {
                // Touch the tenant's private region under its rights:
                // the round-trip only succeeds if the bind re-tagged the
                // tenant's (parked) pages onto the leased hardware key.
                // The pool may steal that key at any moment — the gate
                // then refuses with a typed `StaleLease` (or a mem op
                // faults on the freshly parked pages mid-region), and
                // the worker re-binds and retries, bounded.
                let tenant = Arc::clone(tenant_arc.as_ref().expect("tenant in flight"));
                let scratch = tenant.scratch_addr();
                let mut rebinds = 0usize;
                let touched = loop {
                    let m = &mut browser.machine;
                    let ok = match m.gates.enter_untrusted(&mut m.cpu) {
                        Ok(()) => {
                            let wrote = m.mem_write(scratch, request.id).is_ok()
                                && m.mem_read(scratch) == Ok(request.id);
                            // The exit gate runs unconditionally after a
                            // successful enter: an open region would
                            // block the revocation barrier (and leak
                            // compartment stack depth) for the rest of
                            // the incarnation.
                            let exited = m.gates.exit_untrusted(&mut m.cpu).is_ok();
                            wrote && exited
                        }
                        Err(GateError::StaleLease { .. }) => false,
                        Err(_) => break false,
                    };
                    if ok {
                        break true;
                    }
                    let stale = !lease.as_ref().expect("tenant lease in flight").is_current();
                    if !stale || rebinds >= STALE_REBIND_RETRIES {
                        break false;
                    }
                    // Revoked underneath us: re-bind the tenant (counted
                    // against its bind_retries stat) and reinstall the
                    // fresh lease.
                    rebinds += 1;
                    tenant.record_bind_retry();
                    let registry = registry.expect("tenant lease implies a registry");
                    match registry.bind_with_retry(tenant.id(), TENANT_BIND_RETRIES) {
                        Ok(fresh) => {
                            install_tenant(&mut browser, &fresh);
                            lease = Some(fresh);
                        }
                        Err(_) => break false,
                    }
                };
                if !touched {
                    if cell.complete(incarnation, |stats, _| {
                        stats.requests += 1;
                        match request.kind {
                            RequestKind::PageLoad => stats.page_loads += 1,
                            RequestKind::Script(_) => stats.scripts += 1,
                        }
                        stats.errors += 1;
                    }) {
                        overload.tick();
                    }
                    break 'serve None;
                }
            }
            match faults.next_request(worker) {
                None => {}
                Some(FaultKind::Panic) => {
                    // The in-flight request stays in the cell: the supervisor
                    // recovers and requeues it.
                    panic!("injected panic: worker {worker} dying on request {}", request.id);
                }
                Some(FaultKind::PkeyViolation) => {
                    match active_handler {
                        // No handler (enforce): an injected violation looks
                        // exactly like a real one — the request completes, the
                        // defect lands in the report.
                        None => {
                            if cell.complete(incarnation, |stats, _| {
                                stats.requests += 1;
                                match request.kind {
                                    RequestKind::PageLoad => stats.page_loads += 1,
                                    RequestKind::Script(_) => stats.scripts += 1,
                                }
                                stats.pkey_faults += 1;
                            }) {
                                overload.tick();
                            }
                            break 'serve None;
                        }
                        // With a handler, the injection provokes a *real* MPK
                        // violation (a trusted-pool read from inside the
                        // compartment) that flows through the machine's fault
                        // path into the handler. The violation is accounted
                        // there — never in `pkey_faults` — so `injected_faults`
                        // and the `violations_*` counters stay disjoint from
                        // the legacy unexpected-fault counter.
                        Some(active) => {
                            let outcome = browser.probe_trusted_access();
                            if cell.complete(incarnation, |stats, _| {
                                stats.requests += 1;
                                match request.kind {
                                    RequestKind::PageLoad => stats.page_loads += 1,
                                    RequestKind::Script(_) => stats.scripts += 1,
                                }
                                // A denied probe is the handler's verdict
                                // (enforcement or a tripped breaker), already
                                // counted by the handler; anything else is a
                                // genuine worker error.
                                if let Err(e) = &outcome {
                                    if !e.is_pkey_violation() {
                                        stats.errors += 1;
                                    }
                                }
                            }) {
                                overload.tick();
                            }
                            if active.tripped() {
                                if lease.is_some() {
                                    // The *tenant's* breaker tripped: the
                                    // tenant is condemned (every later
                                    // request of theirs is rejected), but
                                    // the worker lives on for everyone
                                    // else.
                                    break 'serve None;
                                }
                                // The worker's own breaker: tear this
                                // incarnation down through the supervision
                                // path. The request was completed above, so
                                // nothing is requeued.
                                break 'serve Some(ServeError::Worker {
                                    worker,
                                    message: "quarantined: MPK violation breaker tripped".into(),
                                    report: None,
                                });
                            }
                            break 'serve None;
                        }
                    }
                }
                Some(FaultKind::AllocExhaustion) => {
                    let message = exhaust_carveout(&mut browser);
                    break 'serve Some(ServeError::Worker { worker, message, report: None });
                }
                Some(FaultKind::Stall) => {
                    // The wedge: heartbeat frozen, request in flight,
                    // thread parked on the stall gate. The watchdog must
                    // condemn this incarnation and requeue the request;
                    // the gate opens only once supervision is over, and
                    // by then this incarnation is poisoned — it exits
                    // through the restore path with nothing to report.
                    // Note the gate region was already exited above (the
                    // worker's barrier epoch is parked), so a wedged
                    // thread never blocks key revocation either.
                    faults.stall_until_released();
                    break 'serve None;
                }
                // Setup faults are filtered out by `next_request`.
                Some(FaultKind::SetupFailure) => unreachable!("setup fault on a live worker"),
            }
            serve_request(worker, incarnation, &request, ctx, cell, &mut browser);
            None
        };
        // Restore the worker's ambient compartment before anything else
        // can run on this browser. `set_untrusted_pkru` also drops the
        // lease stamp from the gates.
        if lease.is_some() {
            browser.machine.gates.set_untrusted_pkru(base_untrusted);
            browser.machine.install_syscall_filter(base_filter.clone());
            // The tenant handler's grant scope must not outlive the
            // request: the tenant's key may be stolen and recycled the
            // moment the lease drops, and a lingering scope would let an
            // audit single-step grant the recycled key.
            if let Some(h) = tenant_arc.as_ref().and_then(|t| t.handler()) {
                h.refresh_tenant_scope(None);
            }
            match handler {
                Some(h) => browser.machine.set_violation_handler(Arc::clone(h)),
                None => browser.machine.clear_violation_handler(),
            }
        }
        drop(lease);
        if let Some(error) = die {
            cell.add_transitions(browser.stats().transitions);
            cell.add_dispatch(browser.dispatch_stats());
            return Err(error);
        }
    }

    cell.add_transitions(browser.stats().transitions);
    cell.add_dispatch(browser.dispatch_stats());
    Ok(())
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

/// Serves one page-load or script request on the worker's browser,
/// completing it in `cell` (and sampling its admission→completion
/// latency when the run records percentiles).
fn serve_request(
    worker: usize,
    incarnation: u64,
    request: &Request,
    ctx: PoolCtx<'_>,
    cell: &WorkerCell,
    browser: &mut Browser,
) {
    let disposed = match request.kind {
        RequestKind::PageLoad => {
            let before = browser.stats().nodes;
            let outcome = browser.load_html(micro_page());
            let after = browser.stats().nodes;
            cell.complete(incarnation, |stats, responses| {
                stats.requests += 1;
                stats.page_loads += 1;
                match outcome {
                    // A reload can only ever add nodes, but a
                    // failed-then-retried load must not be able to
                    // panic the worker on an impossible negative
                    // delta — count it as an error instead.
                    Ok(()) => match after.checked_sub(before) {
                        Some(delta) => responses.push(Response {
                            id: request.id,
                            worker,
                            name: PAGE_LOAD,
                            checksum: delta as f64,
                        }),
                        None => stats.errors += 1,
                    },
                    Err(e) if e.is_pkey_violation() => stats.pkey_faults += 1,
                    Err(_) => stats.errors += 1,
                }
            })
        }
        RequestKind::Script(i) => {
            let spec = &ctx.catalog[i];
            let outcome =
                browser.eval_script(&spec.source).and_then(|_| browser.call_script("run", &[]));
            cell.complete(incarnation, |stats, responses| {
                stats.requests += 1;
                stats.scripts += 1;
                match outcome {
                    Ok(Value::Num(checksum)) => {
                        responses.push(Response {
                            id: request.id,
                            worker,
                            name: spec.name,
                            checksum,
                        });
                    }
                    Ok(_) => stats.errors += 1,
                    Err(e) if e.is_pkey_violation() => stats.pkey_faults += 1,
                    Err(_) => stats.errors += 1,
                }
            })
        }
    };
    if disposed {
        if ctx.record_latency {
            if let Some(enqueued) = request.enqueued {
                cell.push_latency(incarnation, enqueued.elapsed().as_secs_f64() * 1000.0);
            }
        }
        ctx.overload.tick();
    }
}
