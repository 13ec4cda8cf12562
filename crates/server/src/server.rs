//! The serving pipeline: profile → reference → supervised pool → verdict.
//!
//! `serve` runs the paper's full pipeline before any thread starts: the
//! catalog is profiled on the profiling build (so the enforcement build
//! has a complete allocation-site profile and zero *expected* faults),
//! then executed once on a single-threaded enforcement browser to record
//! reference checksums. Only then does the pool spin up; every pooled
//! response is compared bit-for-bit against the single-threaded reference.
//!
//! The pool is *supervised*: worker death — panic, setup failure, a dead
//! allocator carve-out, whether organic or injected by a
//! [`FaultPlan`](crate::FaultPlan) — is an event, not a hang. A dead
//! worker's in-flight request is requeued at most once, the slot is
//! respawned with a fresh browser up to [`RESTART_BUDGET`] times, and if
//! the whole pool dies the queue is closed (unblocking the producer) and
//! `serve` returns the error *carrying the partial report*, so no failure
//! mode leaves the caller blocked or blind.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use lir::SharedHost;
use minijs::Value;
use pkalloc::MAX_WORKERS;
use pkru_handler::{AuditRecord, MpkPolicy, ViolationHandler};
use pkru_provenance::json::JsonValue;
use pkru_provenance::{AllocId, Profile};
use pkru_tenant::{TenantError, TenantRegistry, VkeyPoolStats};
use servolite::{Browser, BrowserConfig};
use workloads::suites::micro_page;

use crate::fault::{FaultPlan, FaultState};
use crate::overload::{Admit, FairScheduler, LatencySummary, OverloadState};
use crate::queue::{BoundedQueue, PushError, QueueStats};
use crate::request::{catalog, Request, ScriptSpec, PAGE_LOAD};
use crate::traffic::{TrafficGen, TrafficShape};
use crate::worker::{run_worker, PoolCtx, WorkerCell, WorkerStats};

/// How many times one worker slot may be respawned after dying before the
/// slot is declared permanently dead. The budget is per slot: a pool only
/// fails as a whole once *every* slot has died and burned its budget.
pub const RESTART_BUDGET: usize = 2;

/// The default wedged-worker deadline: a slot whose heartbeat has not
/// advanced for this long while holding a request in flight is condemned
/// and respawned. Generous by default (a stall is seconds of silence, not
/// a slow request); chaos tests shrink it to hundreds of milliseconds.
pub const DEFAULT_STALL_TIMEOUT_MS: u64 = 5_000;

/// Serving errors (worker-request failures are counters, not errors).
#[derive(Debug)]
pub enum ServeError {
    /// Invalid configuration.
    Config(String),
    /// The profiling or reference pass failed.
    Setup(String),
    /// The hardware protection-key pool ran dry during setup (the park
    /// key or a worker's key). Typed — key exhaustion is a capacity
    /// planning fact, not a generic setup fault.
    KeysExhausted(String),
    /// A worker failed to start or panicked. When the *whole pool* died
    /// this way, `report` carries the partial [`ServeReport`] — every
    /// surviving worker's counters, the queue stats, and the abandoned
    /// request count — instead of discarding them.
    Worker {
        /// The failing worker's slot.
        worker: usize,
        /// What went wrong.
        message: String,
        /// The partial report, when the pool died as a whole.
        report: Option<Box<ServeReport>>,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "bad serve config: {m}"),
            ServeError::Setup(m) => write!(f, "serve setup: {m}"),
            ServeError::KeysExhausted(m) => write!(f, "protection keys exhausted: {m}"),
            ServeError::Worker { worker, message, .. } => write!(f, "worker {worker}: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Pool shape, traffic volume, and the faults to inject (if any).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads.
    pub workers: usize,
    /// Total requests to generate.
    pub requests: u64,
    /// Queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Traffic seed.
    pub seed: u64,
    /// Deterministic fault injections ([`FaultPlan::none`] — the
    /// default — for a clean run).
    pub faults: FaultPlan,
    /// What happens when a worker's compartment boundary is violated
    /// ([`MpkPolicy::Enforce`] — the default — denies the access and
    /// counts it as an unexpected fault).
    pub mpk_policy: MpkPolicy,
    /// Extra shared sites merged into the catalog profile before workers
    /// start — typically sites absorbed from a previous run's audit log
    /// via [`Profile::absorb_audit`]. Not rendered in the report JSON.
    pub extra_profile: Option<Profile>,
    /// Multi-tenant mode: the number of tenants to register (0 — the
    /// default — serves the classic single-U stream).
    pub tenants: usize,
    /// The per-tenant violation policy (every tenant of one run shares
    /// it; only consulted when `tenants > 0`).
    pub tenant_policy: MpkPolicy,
    /// Request deadline in logical ticks (completed requests): a queued
    /// request is shed as expired once `deadline_ticks` requests complete
    /// after its admission. `0` — the default — disables deadlines.
    pub deadline_ticks: u64,
    /// Bounded-wait admission: how long the producer's push may stay
    /// blocked on a full queue before the request is rejected (counted)
    /// instead of waiting forever. `None` — the default — keeps the
    /// original unbounded blocking push.
    pub admission_wait_ms: Option<u64>,
    /// Per-tenant fairness: token-bucket admission (this many burst
    /// tokens per tenant, refilled at the fair share of the offered
    /// stream) plus deficit-round-robin dispatch over per-tenant
    /// sub-queues. Requires `tenants > 0`. `None` — the default — keeps
    /// the shared FIFO path.
    pub tenant_rate: Option<u64>,
    /// The wedged-worker watchdog deadline in milliseconds (must be
    /// nonzero; the watchdog is always on). A slot whose heartbeat stops
    /// advancing past this while a request is in flight is condemned,
    /// its request requeued (at most once), and the slot respawned
    /// through the normal restart budget.
    pub stall_timeout_ms: u64,
    /// The traffic shape ([`TrafficShape::Uniform`] — the default — is
    /// byte-identical to the pre-shape stream).
    pub traffic: TrafficShape,
    /// Producer pacing in microseconds per generated request (`0` — the
    /// default — is the original closed-loop producer). Pacing offers a
    /// controlled arrival rate, e.g. a multiple of measured capacity.
    pub pace_us: u64,
    /// Record admission→completion latency percentiles (the report's
    /// `latency`; off by default).
    pub record_latency: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            requests: 200,
            queue_capacity: 32,
            seed: 0x5eed,
            faults: FaultPlan::none(),
            mpk_policy: MpkPolicy::Enforce,
            extra_profile: None,
            tenants: 0,
            tenant_policy: MpkPolicy::Enforce,
            deadline_ticks: 0,
            admission_wait_ms: None,
            tenant_rate: None,
            stall_timeout_ms: DEFAULT_STALL_TIMEOUT_MS,
            traffic: TrafficShape::Uniform,
            pace_us: 0,
            record_latency: false,
        }
    }
}

/// One tenant's row in the serve report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantReportRow {
    /// The tenant's registry id.
    pub tenant: usize,
    /// Requests served inside this tenant's compartment.
    pub requests: u64,
    /// Requests refused because the tenant was quarantined.
    pub rejected: u64,
    /// Bind attempts retried because every hardware key was briefly
    /// quarantined behind the revocation barrier.
    pub bind_retries: u64,
    /// The tenant's violation counters, split by verdict.
    pub violations_enforced: u64,
    /// Violations single-stepped and logged for this tenant.
    pub violations_audited: u64,
    /// Violations denied by the tenant's quarantine breaker (or grant
    /// scope).
    pub violations_quarantined: u64,
    /// Whether the tenant ended the run quarantined.
    pub quarantined: bool,
    /// Requests the traffic stream offered for this tenant (fairness
    /// mode only; 0 otherwise).
    pub offered: u64,
    /// Offered requests shed at the tenant's token bucket or backlog cap
    /// (fairness mode only; 0 otherwise).
    pub rate_limited: u64,
}

/// Everything a serve run produced.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The configuration served.
    pub config: ServeConfig,
    /// Per-worker counters, ordered by slot.
    pub workers: Vec<WorkerStats>,
    /// Wall seconds of the serving phase only (profiling and the
    /// single-threaded reference pass excluded).
    pub elapsed_seconds: f64,
    /// Requests per second over the serving phase.
    pub throughput_rps: f64,
    /// Queue lifetime counters.
    pub queue: QueueStats,
    /// Requests served across all workers.
    pub requests_served: u64,
    /// Total compartment transitions across all workers.
    pub transitions: u64,
    /// Responses whose checksum differed from the single-threaded
    /// reference (must be 0).
    pub checksum_mismatches: u64,
    /// MPK violations across all workers (must be 0 under a complete
    /// profile and a fault-free plan).
    pub unexpected_faults: u64,
    /// Non-MPK request failures across all workers.
    pub errors: u64,
    /// Worker respawns the supervisor performed after a death.
    pub workers_restarted: u64,
    /// In-flight requests of dead workers that were requeued (each at
    /// most once).
    pub requests_retried: u64,
    /// Generated requests never completed by any worker (their worker
    /// died past the retry budget, or the pool died before they ran).
    pub requests_abandoned: u64,
    /// Fault-plan injections that actually fired.
    pub injected_faults: u64,
    /// Software-TLB hits across every worker's per-thread TLB.
    pub tlb_hits: u64,
    /// Software-TLB misses (slow-path fills) across all workers.
    pub tlb_misses: u64,
    /// Software-TLB invalidations (epoch flushes and targeted page
    /// flushes) across all workers.
    pub tlb_flushes: u64,
    /// Inline-cache hits across all workers' engines (per-browser
    /// counters folded at incarnation exit, unlike the global TLB ones).
    pub dispatch_ic_hits: u64,
    /// Inline-cache misses across all workers' engines.
    pub dispatch_ic_misses: u64,
    /// Bulk superinstructions executed across all workers' machines.
    pub superinstructions_fused: u64,
    /// Violations denied under `enforce` (under that policy, a mirror of
    /// `unexpected_faults`).
    pub violations_enforced: u64,
    /// Violations single-stepped and logged (audit, or quarantine below
    /// its threshold).
    pub violations_audited: u64,
    /// Violations denied by a tripped quarantine breaker.
    pub violations_quarantined: u64,
    /// Allocation sites flagged by the quarantine breaker (sorted,
    /// deduplicated across workers).
    pub flagged_sites: Vec<AllocId>,
    /// The merged audit log, in (worker slot, violation order).
    pub audit_log: Vec<AuditRecord>,
    /// Audit records discarded because a worker's log was full.
    pub audit_dropped: u64,
    /// Per-tenant counters, ordered by tenant id (empty when `tenants`
    /// is 0).
    pub per_tenant: Vec<TenantReportRow>,
    /// Virtual-key multiplexing counters (bind hits/misses, evictions,
    /// re-tagged pages); `None` when `tenants` is 0.
    pub tenant_key_stats: Option<VkeyPoolStats>,
    /// Requests shed at pop because their deadline had passed (0 unless
    /// `deadline_ticks` is set).
    pub requests_expired: u64,
    /// Requests the producer shed — bounded-wait admission on a
    /// saturated queue, or a tenant's rate limit (0 unless admission or
    /// fairness is on).
    pub requests_rejected: u64,
    /// Worker incarnations the watchdog condemned as wedged.
    pub workers_stalled: u64,
    /// Admission→completion latency percentiles over disposed requests
    /// (`None` unless the config records latency).
    pub latency: Option<LatencySummary>,
}

impl ServeReport {
    /// Whether the run met the paper-pipeline expectations: every request
    /// *disposed* — served, or deliberately shed (expired/rejected) under
    /// active overload controls — with checksums identical to the
    /// single-threaded reference and no MPK faults. With the overload
    /// knobs off this degenerates to the classic "every request served".
    pub fn clean(&self) -> bool {
        self.requests_served + self.requests_expired + self.requests_rejected
            == self.config.requests
            && self.checksum_mismatches == 0
            && self.unexpected_faults == 0
            && self.errors == 0
    }

    /// Machine-readable form: report schema 2.
    ///
    /// Every field renders on every run. A feature that is off reads as
    /// `null` where its value is an `Option` (`admission_wait_ms`,
    /// `tenant_rate`, `tenant_keys`, `latency`) and as 0, `[]` or
    /// `"enforce"` everywhere else.
    pub fn to_json(&self) -> String {
        let config = &self.config;
        let per_worker = self.workers.iter().map(|w| {
            JsonValue::object([
                ("worker", w.worker.into()),
                ("requests", w.requests.into()),
                ("page_loads", w.page_loads.into()),
                ("scripts", w.scripts.into()),
                ("transitions", w.transitions.into()),
                ("pkey_faults", w.pkey_faults.into()),
                ("errors", w.errors.into()),
            ])
        });
        JsonValue::object([
            ("schema", 2u64.into()),
            ("workers", config.workers.into()),
            ("requests", config.requests.into()),
            ("queue_capacity", config.queue_capacity.into()),
            ("seed", config.seed.into()),
            ("mpk_policy", config.mpk_policy.to_string().into()),
            ("elapsed_seconds", self.elapsed_seconds.into()),
            ("throughput_rps", self.throughput_rps.into()),
            (
                "queue",
                JsonValue::object([
                    ("enqueued", self.queue.enqueued.into()),
                    ("max_depth", self.queue.max_depth.into()),
                    ("backpressure_waits", self.queue.backpressure_waits.into()),
                    ("requeued", self.queue.requeued.into()),
                ]),
            ),
            ("requests_served", self.requests_served.into()),
            ("transitions", self.transitions.into()),
            ("checksum_mismatches", self.checksum_mismatches.into()),
            ("unexpected_faults", self.unexpected_faults.into()),
            ("errors", self.errors.into()),
            ("workers_restarted", self.workers_restarted.into()),
            ("requests_retried", self.requests_retried.into()),
            ("requests_abandoned", self.requests_abandoned.into()),
            ("injected_faults", self.injected_faults.into()),
            ("deadline_ticks", config.deadline_ticks.into()),
            ("admission_wait_ms", config.admission_wait_ms.into()),
            ("requests_expired", self.requests_expired.into()),
            ("requests_rejected", self.requests_rejected.into()),
            ("workers_stalled", self.workers_stalled.into()),
            ("latency", self.latency.into()),
            ("tlb_hits", self.tlb_hits.into()),
            ("tlb_misses", self.tlb_misses.into()),
            ("tlb_flushes", self.tlb_flushes.into()),
            ("dispatch_ic_hits", self.dispatch_ic_hits.into()),
            ("dispatch_ic_misses", self.dispatch_ic_misses.into()),
            ("superinstructions_fused", self.superinstructions_fused.into()),
            ("violations_enforced", self.violations_enforced.into()),
            ("violations_audited", self.violations_audited.into()),
            ("violations_quarantined", self.violations_quarantined.into()),
            ("flagged_sites", self.flagged_sites.iter().copied().collect()),
            ("audit_dropped", self.audit_dropped.into()),
            ("audit_log", self.audit_log.iter().copied().collect()),
            ("tenants", config.tenants.into()),
            ("tenant_policy", config.tenant_policy.to_string().into()),
            ("tenant_rate", config.tenant_rate.into()),
            ("tenant_keys", self.tenant_key_stats.map(key_stats_json).into()),
            ("per_tenant", self.per_tenant.iter().copied().collect()),
            ("per_worker", per_worker.collect()),
        ])
        .to_string()
    }
}

/// The report's `tenant_keys` object.
fn key_stats_json(keys: VkeyPoolStats) -> JsonValue {
    JsonValue::object([
        ("binds", keys.binds.into()),
        ("hits", keys.hits.into()),
        ("misses", keys.misses.into()),
        ("evictions", keys.evictions.into()),
        ("pages_retagged", keys.pages_retagged.into()),
        ("revocations", keys.revocations.into()),
        ("deferred_reuses", keys.deferred_reuses.into()),
        ("deferred_keys", keys.deferred_keys.into()),
    ])
}

impl From<TenantReportRow> for JsonValue {
    fn from(t: TenantReportRow) -> JsonValue {
        JsonValue::object([
            ("tenant", t.tenant.into()),
            ("requests", t.requests.into()),
            ("rejected", t.rejected.into()),
            ("bind_retries", t.bind_retries.into()),
            ("offered", t.offered.into()),
            ("rate_limited", t.rate_limited.into()),
            ("violations_enforced", t.violations_enforced.into()),
            ("violations_audited", t.violations_audited.into()),
            ("violations_quarantined", t.violations_quarantined.into()),
            ("quarantined", t.quarantined.into()),
        ])
    }
}

/// Profiles the catalog on the profiling build (single-threaded), merging
/// per-script profiles by set union — the pipeline's first stage.
fn profile_catalog(catalog: &[ScriptSpec]) -> Result<Profile, ServeError> {
    let mut merged = Profile::new();
    for spec in catalog {
        let mut browser = Browser::new(BrowserConfig::Profiling)
            .map_err(|e| ServeError::Setup(format!("profiling browser: {e}")))?;
        browser
            .load_html(micro_page())
            .map_err(|e| ServeError::Setup(format!("profiling page: {e}")))?;
        browser
            .eval_script(&spec.source)
            .and_then(|_| browser.call_script("run", &[]))
            .map_err(|e| ServeError::Setup(format!("profiling {}: {e}", spec.name)))?;
        merged.merge(&browser.into_profile());
    }
    Ok(merged)
}

/// Records the single-threaded reference checksum for every catalog entry
/// (and the page load), on a fresh enforcement browser with its own
/// private address space.
fn reference_checksums(
    catalog: &[ScriptSpec],
    profile: &Profile,
) -> Result<HashMap<&'static str, f64>, ServeError> {
    let mut browser = Browser::with_profile(BrowserConfig::Mpk, Some(profile))
        .map_err(|e| ServeError::Setup(format!("reference browser: {e}")))?;
    browser
        .load_html(micro_page())
        .map_err(|e| ServeError::Setup(format!("reference page: {e}")))?;

    let mut reference = HashMap::new();
    let before = browser.stats().nodes;
    browser
        .load_html(micro_page())
        .map_err(|e| ServeError::Setup(format!("reference reload: {e}")))?;
    let delta = browser
        .stats()
        .nodes
        .checked_sub(before)
        .ok_or_else(|| ServeError::Setup("reference reload shrank the DOM".into()))?;
    reference.insert(PAGE_LOAD, delta as f64);

    for spec in catalog {
        let value = browser
            .eval_script(&spec.source)
            .and_then(|_| browser.call_script("run", &[]))
            .map_err(|e| ServeError::Setup(format!("reference {}: {e}", spec.name)))?;
        match value {
            Value::Num(checksum) => {
                reference.insert(spec.name, checksum);
            }
            _ => {
                return Err(ServeError::Setup(format!(
                    "reference {}: non-numeric checksum",
                    spec.name
                )))
            }
        }
    }
    Ok(reference)
}

/// Builds the tenant registry for a serve run: `tenants` tenants, all
/// under `policy`, over the host's shared space and key pool.
///
/// Returns `Ok(None)` for `tenants == 0` (single-tenant mode). Hardware
/// key exhaustion — the park key is one more key on top of the trusted
/// key and any pre-allocated ones — surfaces as the typed
/// [`ServeError::KeysExhausted`], never a panic.
pub fn build_tenant_registry(
    host: &SharedHost,
    tenants: usize,
    policy: MpkPolicy,
) -> Result<Option<TenantRegistry>, ServeError> {
    if tenants == 0 {
        return Ok(None);
    }
    fn lift(stage: &str, e: TenantError) -> ServeError {
        match e {
            TenantError::KeysExhausted => ServeError::KeysExhausted(format!(
                "tenant registry {stage}: no hardware key free for the park key"
            )),
            other => ServeError::Setup(format!("tenant registry {stage}: {other}")),
        }
    }
    let mut registry = TenantRegistry::new(host).map_err(|e| lift("setup", e))?;
    registry.populate(tenants, policy).map_err(|e| lift("populate", e))?;
    Ok(Some(registry))
}

/// The producer: generates the traffic stream and feeds the bounded
/// queue, applying whichever admission controls the config enables.
///
/// * Deadlines stamp each request with `now + deadline_ticks` on the
///   logical clock at generation.
/// * Plain admission (`admission_wait_ms`, no fairness) uses the bounded
///   wait push and counts saturated rejections.
/// * Fairness (`tenant_rate`) admits through per-tenant token buckets
///   into per-tenant sub-queues and dispatches deficit-round-robin into
///   the bounded queue; dispatch pushes *block* (never shed) so a
///   well-behaved tenant's admitted requests cannot be dropped at
///   dispatch — shedding happens only at the per-tenant bucket/backlog,
///   which is the point of fair queueing. `admission_wait_ms` is
///   subsumed by the per-tenant backlog cap in this mode.
fn run_producer(
    config: &ServeConfig,
    catalog_len: usize,
    queue: &BoundedQueue<Request>,
    overload: &OverloadState,
) {
    let traffic = TrafficGen::with_shape(
        config.seed,
        config.requests,
        catalog_len,
        config.tenants,
        config.traffic,
    );
    let wait = config.admission_wait_ms.map(Duration::from_millis);
    let mut fair = config
        .tenant_rate
        .map(|burst| FairScheduler::new(config.tenants, burst, config.queue_capacity));
    for mut request in traffic {
        if config.pace_us > 0 {
            thread::sleep(Duration::from_micros(config.pace_us));
        }
        if config.record_latency {
            request.enqueued = Some(Instant::now());
        }
        if config.deadline_ticks > 0 {
            request.deadline = overload.ticks() + config.deadline_ticks;
        }
        match &mut fair {
            None => match queue.push_within(request, wait) {
                Ok(()) => {}
                // Queue closed under us: the pool is gone and the
                // supervisor already closed the queue — just stop.
                Err(PushError::Closed(_)) => return,
                Err(PushError::Saturated(_)) => overload.reject(),
            },
            Some(fair) => {
                let tenant = request.tenant.unwrap_or(0);
                overload.offer(tenant);
                match fair.admit(request) {
                    Admit::Admitted => {}
                    Admit::RateLimited | Admit::BacklogFull => {
                        overload.reject();
                        overload.rate_limit(tenant);
                    }
                }
                // Opportunistic dispatch: drain the fair backlog into the
                // bounded queue while it has room, so workers see DRR
                // order continuously rather than in one end-of-stream
                // burst.
                while queue.depth() < queue.capacity() {
                    let Some(next) = fair.dispatch() else { break };
                    if queue.push(next).is_err() {
                        return;
                    }
                }
            }
        }
    }
    // End of stream: drain the remaining fair backlog (blocking; a
    // request that went stale in its sub-queue is shed by the deadline
    // check at pop, not here).
    if let Some(fair) = &mut fair {
        while let Some(next) = fair.dispatch() {
            if queue.push(next).is_err() {
                return;
            }
        }
    }
    queue.close();
}

/// Why the supervisor retires a slot's live incarnation.
enum Retirement {
    /// The incarnation died, with this error.
    Died(ServeError),
    /// The watchdog saw its heartbeat stall with a request in flight.
    Stalled,
}

/// The supervisor's bookkeeping over the pool's worker slots.
struct Supervisor<'a> {
    queue: &'a BoundedQueue<Request>,
    host: &'a SharedHost,
    cells: &'a [Arc<WorkerCell>],
    /// Respawns each slot has left.
    budget: Vec<usize>,
    /// Per slot: is an incarnation running.
    running: Vec<bool>,
    /// Per slot: the last heartbeat seen and when it last advanced.
    beats: Vec<(u64, Instant)>,
    workers_restarted: u64,
    requests_retried: u64,
    workers_stalled: u64,
    /// Set iff the whole pool died; `(slot, message)` of the last loss.
    pool_failure: Option<(usize, String)>,
}

impl Supervisor<'_> {
    /// Slots with a running incarnation.
    fn alive(&self) -> usize {
        self.running.iter().filter(|&&running| running).count()
    }

    /// Retires `slot`'s live incarnation, dead or wedged — the one path
    /// for both. Takes its in-flight request (a wedged one is condemned
    /// first, in the same cell operation, so it can never complete the
    /// request after it is handed to someone else) and requeues it at
    /// most once: a request that already rode a retry is abandoned and
    /// only counted. Then respawns the slot within its budget, or — if no
    /// live worker is left — records the pool failure and closes the
    /// queue so the producer unblocks and exits.
    fn retire(&mut self, slot: usize, why: Retirement, spawn: &dyn Fn(usize, u64)) {
        self.running[slot] = false;
        let respawn = self.budget[slot] > 0 && self.host.workers_started() < MAX_WORKERS;
        let cell = &self.cells[slot];
        let in_flight = match why {
            Retirement::Died(_) => cell.take_in_flight(),
            Retirement::Stalled => {
                self.workers_stalled += 1;
                cell.condemn()
            }
        };
        if let Some(request) = in_flight {
            if !request.retried && (respawn || self.alive() > 0) {
                self.queue.requeue(Request { retried: true, ..request });
                self.requests_retried += 1;
            }
        }
        if respawn {
            self.budget[slot] -= 1;
            self.workers_restarted += 1;
            spawn(slot, cell.live_incarnation());
            self.running[slot] = true;
            self.beats[slot] = (cell.probe().0, Instant::now());
        } else if self.alive() == 0 {
            let message = match why {
                Retirement::Died(ServeError::Worker { message, .. }) => message,
                Retirement::Died(other) => other.to_string(),
                Retirement::Stalled => {
                    "worker stalled past the watchdog deadline; respawn budget exhausted".into()
                }
            };
            self.pool_failure = Some((slot, message));
            self.queue.close();
        }
        // else: slot permanently dead, survivors drain on.
    }

    /// The watchdog scan: a running slot whose heartbeat has not advanced
    /// for `stall_timeout` *while holding a request in flight* is wedged,
    /// and retired like a dead one. The wedged thread itself is leaked
    /// until end-of-run — never joined, never trusted again.
    fn watch(&mut self, stall_timeout: Duration, spawn: &dyn Fn(usize, u64)) {
        let cells = self.cells;
        for (slot, cell) in cells.iter().enumerate() {
            if !self.running[slot] {
                continue;
            }
            let (beat, in_flight) = cell.probe();
            if beat != self.beats[slot].0 || !in_flight {
                // Progress, or idle (blocked on an empty queue is not a
                // stall): reset the deadline.
                self.beats[slot] = (beat, Instant::now());
            } else if self.beats[slot].1.elapsed() >= stall_timeout {
                self.retire(slot, Retirement::Stalled, spawn);
            }
        }
    }
}

/// Runs the full pipeline and the supervised pool, returning the
/// aggregated report — or, if every worker slot died past its respawn
/// budget, the fatal error with the partial report attached. Either way
/// `serve` *returns*: the supervisor closes the queue on pool death, so
/// the producer can never block forever against a dead pool.
pub fn serve(config: ServeConfig) -> Result<ServeReport, ServeError> {
    if config.workers == 0 {
        return Err(ServeError::Config("at least one worker".into()));
    }
    if config.workers > MAX_WORKERS {
        return Err(ServeError::Config(format!(
            "at most {MAX_WORKERS} workers fit the carve-out geometry"
        )));
    }
    for fault in config.faults.faults() {
        if fault.worker >= config.workers {
            return Err(ServeError::Config(format!(
                "fault targets worker {} of a {}-worker pool",
                fault.worker, config.workers
            )));
        }
    }
    if config.stall_timeout_ms == 0 {
        return Err(ServeError::Config("the watchdog stall timeout must be nonzero".into()));
    }
    if config.tenant_rate.is_some() && config.tenants == 0 {
        return Err(ServeError::Config("tenant-fair queueing needs tenants > 0".into()));
    }
    match config.traffic {
        TrafficShape::Zipf { s_milli } => {
            if config.tenants == 0 {
                return Err(ServeError::Config("zipf traffic needs tenants > 0".into()));
            }
            if s_milli == 0 {
                return Err(ServeError::Config("zipf exponent must be nonzero".into()));
            }
        }
        TrafficShape::Bursty { run } => {
            if run == 0 {
                return Err(ServeError::Config("burst run length must be nonzero".into()));
            }
        }
        TrafficShape::Uniform => {}
    }

    let catalog = catalog();
    let mut profile = profile_catalog(&catalog)?;
    if let Some(extra) = &config.extra_profile {
        profile.merge(extra);
    }
    let reference = reference_checksums(&catalog, &profile)?;

    let host = SharedHost::new();
    // Tenants register before any worker starts: their regions map and
    // park, the park key is claimed, and key exhaustion fails the run
    // typed instead of killing workers one by one later.
    let registry = build_tenant_registry(&host, config.tenants, config.tenant_policy)?;
    let registry = registry.as_ref();
    let queue: BoundedQueue<Request> = BoundedQueue::new(config.queue_capacity);
    let faults = FaultState::new(&config.faults, config.workers);
    let cells: Vec<Arc<WorkerCell>> =
        (0..config.workers).map(|w| Arc::new(WorkerCell::new(w))).collect();
    // Under `enforce` no handler exists at all: workers run the plain
    // deny-on-violation code path.
    let handlers: Option<Vec<Arc<ViolationHandler>>> = match config.mpk_policy {
        MpkPolicy::Enforce => None,
        policy => {
            Some((0..config.workers).map(|w| Arc::new(ViolationHandler::new(policy, w))).collect())
        }
    };

    let mut supervisor = Supervisor {
        queue: &queue,
        host: &host,
        cells: &cells,
        budget: vec![RESTART_BUDGET; config.workers],
        running: vec![true; config.workers],
        beats: cells.iter().map(|c| (c.probe().0, Instant::now())).collect(),
        workers_restarted: 0,
        requests_retried: 0,
        workers_stalled: 0,
        pool_failure: None,
    };
    let overload = OverloadState::new(config.tenants);

    let start = Instant::now();
    thread::scope(|scope| {
        // Worker exits flow to the supervisor as (slot, incarnation,
        // death cause). The incarnation stamp lets the supervisor drop
        // *stale* events: a thread the watchdog already condemned and
        // replaced may still exit much later, and that exit must not
        // perturb the live slot's bookkeeping.
        let (events, exits) = mpsc::channel::<(usize, u64, Option<ServeError>)>();
        let ctx = PoolCtx {
            queue: &queue,
            host: &host,
            profile: &profile,
            catalog: &catalog,
            faults: &faults,
            registry,
            overload: &overload,
        };
        let spawn_worker = |slot: usize, incarnation: u64| {
            let events = events.clone();
            let cell = Arc::clone(&cells[slot]);
            let handler = handlers.as_ref().map(|hs| Arc::clone(&hs[slot]));
            scope.spawn(move || {
                // A panicking worker must not panic its *thread*: an
                // unjoined panicked scoped thread would re-panic the whole
                // scope. Catch it and report it as a death event instead.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_worker(slot, incarnation, ctx, &cell, handler.as_ref())
                }));
                let death = match outcome {
                    Ok(Ok(())) => None,
                    Ok(Err(error)) => Some(error),
                    Err(_) => Some(ServeError::Worker {
                        worker: slot,
                        message: "worker panicked".into(),
                        report: None,
                    }),
                };
                let _ = events.send((slot, incarnation, death));
            });
        };
        for (slot, cell) in cells.iter().enumerate() {
            spawn_worker(slot, cell.live_incarnation());
        }

        // The producer gets its own thread so the supervisor below can
        // react to worker deaths *while* the producer is blocked on a
        // full queue — the exact state the pre-supervision runtime hung
        // in when the pool died early.
        let producer_config = &config;
        let producer_catalog_len = catalog.len();
        let producer_queue = &queue;
        let producer_overload = &overload;
        scope.spawn(move || {
            run_producer(producer_config, producer_catalog_len, producer_queue, producer_overload);
        });

        // The supervisor: the scope's own thread. `recv_timeout` (not
        // `recv`) so the watchdog scan below runs even when no worker is
        // exiting — a wedged worker emits no event at all, which is
        // exactly why the pre-watchdog supervisor hung on it.
        let stall_timeout = Duration::from_millis(config.stall_timeout_ms);
        let watchdog_tick =
            (stall_timeout / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
        while supervisor.alive() > 0 {
            match exits.recv_timeout(watchdog_tick) {
                Ok((slot, incarnation, death)) => {
                    if incarnation != cells[slot].live_incarnation() {
                        // A condemned thread finally exited (e.g. a
                        // released stall): written off long ago, nothing
                        // to account.
                        continue;
                    }
                    let Some(death) = death else {
                        supervisor.running[slot] = false;
                        continue;
                    };
                    supervisor.retire(slot, Retirement::Died(death), &spawn_worker);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                // The supervisor holds an `events` sender for the
                // lifetime of the loop, so the channel cannot disconnect
                // while workers are alive.
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("event senders outlive the supervisor loop")
                }
            }
            supervisor.watch(stall_timeout, &spawn_worker);
        }
        // Supervision is over: open the stall gate so any wedged threads
        // (all condemned by now) can exit and the scope can join them.
        faults.release_stalls();
    });
    let Supervisor { workers_restarted, requests_retried, workers_stalled, pool_failure, .. } =
        supervisor;
    let elapsed_seconds = start.elapsed().as_secs_f64();
    // The host space is exclusive to the pool (profiling and reference
    // passes run on private spaces), so its TLB counters are exactly the
    // serving phase's.
    let tlb_stats = host.space().stats().tlb;

    let mut workers = Vec::new();
    let mut checksum_mismatches = 0u64;
    let mut requests_served = 0u64;
    let mut requests_expired = 0u64;
    let mut transitions = 0u64;
    let mut unexpected_faults = 0u64;
    let mut errors = 0u64;
    let mut dispatch_ic_hits = 0u64;
    let mut dispatch_ic_misses = 0u64;
    let mut superinstructions_fused = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    for cell in &cells {
        let (stats, responses) = cell.snapshot();
        requests_served += stats.requests;
        requests_expired += stats.expired;
        transitions += stats.transitions;
        unexpected_faults += stats.pkey_faults;
        errors += stats.errors;
        dispatch_ic_hits += stats.ic_hits;
        dispatch_ic_misses += stats.ic_misses;
        superinstructions_fused += stats.fused_ops;
        latencies.extend(cell.take_latencies());
        for response in &responses {
            // Exact bit-for-bit equality: the engine is deterministic, so
            // a pooled worker must reproduce the reference float exactly.
            if reference.get(response.name).map(|c| c.to_bits())
                != Some(response.checksum.to_bits())
            {
                checksum_mismatches += 1;
            }
        }
        workers.push(stats);
    }
    workers.sort_by_key(|w| w.worker);

    let throughput_rps =
        if elapsed_seconds > 0.0 { requests_served as f64 / elapsed_seconds } else { 0.0 };

    // Fold the per-worker handlers into the report, in slot order so the
    // merged audit log is deterministic for a deterministic run.
    let mut violations_enforced = 0u64;
    let mut violations_audited = 0u64;
    let mut violations_quarantined = 0u64;
    let mut flagged_sites: Vec<AllocId> = Vec::new();
    let mut audit_log: Vec<AuditRecord> = Vec::new();
    let mut audit_dropped = 0u64;
    match &handlers {
        Some(handlers) => {
            for handler in handlers {
                let counters = handler.counters();
                violations_enforced += counters.enforced;
                violations_audited += counters.audited;
                violations_quarantined += counters.quarantined;
                flagged_sites.extend(handler.flagged_sites());
                audit_log.extend(handler.audit_log());
                audit_dropped += handler.audit_dropped();
            }
            flagged_sites.sort();
            flagged_sites.dedup();
        }
        // No handler under `enforce`: every unexpected MPK fault was a
        // request-killing enforcement, mirror it.
        None => violations_enforced = unexpected_faults,
    }

    // Per-tenant breakdown: the tenants' own ledgers, in id order.
    let (per_tenant, tenant_key_stats) = match registry {
        Some(registry) => (
            registry
                .tenants()
                .iter()
                .map(|t| {
                    let counters = t.violation_counters();
                    TenantReportRow {
                        tenant: t.id(),
                        requests: t.requests(),
                        rejected: t.rejected(),
                        bind_retries: t.bind_retries(),
                        violations_enforced: counters.enforced,
                        violations_audited: counters.audited,
                        violations_quarantined: counters.quarantined,
                        quarantined: t.quarantined(),
                        offered: overload.offered(t.id()),
                        rate_limited: overload.rate_limited(t.id()),
                    }
                })
                .collect(),
            Some(registry.key_stats()),
        ),
        None => (Vec::new(), None),
    };

    let report = ServeReport {
        workers,
        elapsed_seconds,
        throughput_rps,
        queue: queue.stats(),
        requests_served,
        transitions,
        checksum_mismatches,
        unexpected_faults,
        errors,
        workers_restarted,
        requests_retried,
        // Every generated request is disposed exactly once: served by
        // one worker, shed as expired at pop, rejected at admission, or
        // abandoned (its worker died past the retry budget, or the pool
        // died before it ran). The remainder form is the invariant
        // `served + abandoned + expired + rejected == requested`.
        requests_abandoned: config
            .requests
            .saturating_sub(requests_served)
            .saturating_sub(requests_expired)
            .saturating_sub(overload.rejected()),
        injected_faults: faults.injected(),
        tlb_hits: tlb_stats.hits,
        tlb_misses: tlb_stats.misses,
        tlb_flushes: tlb_stats.flushes,
        dispatch_ic_hits,
        dispatch_ic_misses,
        superinstructions_fused,
        violations_enforced,
        violations_audited,
        violations_quarantined,
        flagged_sites,
        audit_log,
        audit_dropped,
        per_tenant,
        tenant_key_stats,
        requests_expired,
        requests_rejected: overload.rejected(),
        workers_stalled,
        latency: LatencySummary::from_samples(&mut latencies),
        config,
    };

    match pool_failure {
        Some((worker, message)) => {
            Err(ServeError::Worker { worker, message, report: Some(Box::new(report)) })
        }
        None => Ok(report),
    }
}
