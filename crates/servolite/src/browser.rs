//! The browser shell: configurations, document loading, script execution,
//! profiling, and the security harness.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use lir::{FaultPolicy, Machine, MachineConfig, SharedHost, Trap};
use minijs::{Engine, EngineError, Value};
use pkalloc::AllocError;
use pkru_gates::GateError;
use pkru_handler::ViolationHandler;
use pkru_provenance::Profile;
use pkru_vmem::{MapError, Prot, PAGE_SIZE};

use crate::dom::Dom;
use crate::html::{parse_html, HtmlNode};
use crate::sites::{Site, SiteRegistry, ALL_SITES};
use crate::SECRET_ADDR;

/// The four build configurations of the evaluation (§5.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BrowserConfig {
    /// Unmodified baseline: single heap, no gates.
    Base,
    /// `pkalloc` split allocator, no call gates.
    Alloc,
    /// §5.3 allocator ablation: split-allocator plumbing with both pools
    /// served from `M_T`, no call gates.
    AllocUnified,
    /// Full enforcement: split allocator + call gates + MPK.
    Mpk,
    /// The profiling build: gates active, all heap in `M_T`, faults
    /// recorded and resumed.
    Profiling,
}

impl BrowserConfig {
    /// Whether compartment call gates are active.
    pub fn gated(self) -> bool {
        matches!(self, BrowserConfig::Mpk | BrowserConfig::Profiling)
    }

    /// Whether the split allocator is in use.
    pub fn split_allocator(self) -> bool {
        !matches!(self, BrowserConfig::Base)
    }

    /// Whether both pools are served from `M_T` (the §5.3 ablation).
    pub fn unified_pools(self) -> bool {
        matches!(self, BrowserConfig::AllocUnified)
    }
}

/// Browser-level errors.
#[derive(Debug)]
pub enum BrowserError {
    /// A script failed (including MPK violations under enforcement).
    Engine(EngineError),
    /// The simulated machine trapped.
    Machine(Trap),
    /// Allocation failure.
    Alloc(AllocError),
    /// HTML parse failure.
    Html(String),
    /// DOM manipulation failure.
    Dom(String),
    /// Call-gate failure.
    Gate(GateError),
}

impl fmt::Display for BrowserError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrowserError::Engine(e) => write!(f, "script error: {e}"),
            BrowserError::Machine(t) => write!(f, "machine trap: {t}"),
            BrowserError::Alloc(e) => write!(f, "allocation error: {e}"),
            BrowserError::Html(m) => write!(f, "HTML error: {m}"),
            BrowserError::Dom(m) => write!(f, "DOM error: {m}"),
            BrowserError::Gate(e) => write!(f, "gate error: {e}"),
        }
    }
}

impl std::error::Error for BrowserError {}

impl From<EngineError> for BrowserError {
    fn from(e: EngineError) -> BrowserError {
        BrowserError::Engine(e)
    }
}

impl From<Trap> for BrowserError {
    fn from(t: Trap) -> BrowserError {
        BrowserError::Machine(t)
    }
}

impl From<AllocError> for BrowserError {
    fn from(e: AllocError) -> BrowserError {
        BrowserError::Alloc(e)
    }
}

impl From<GateError> for BrowserError {
    fn from(e: GateError) -> BrowserError {
        BrowserError::Gate(e)
    }
}

impl BrowserError {
    /// Whether this is an MPK violation (the enforcement signal of §5.4).
    pub fn is_pkey_violation(&self) -> bool {
        match self {
            BrowserError::Engine(e) => e.is_pkey_violation(),
            BrowserError::Machine(Trap::Fault(f)) => f.is_pkey_violation(),
            _ => false,
        }
    }
}

/// Runtime statistics for the evaluation tables.
#[derive(Clone, Copy, Debug, Default)]
pub struct BrowserStats {
    /// Compartment transitions executed.
    pub transitions: u64,
    /// Allocations served from `M_T`.
    pub trusted_allocs: u64,
    /// Allocations served from `M_U`.
    pub untrusted_allocs: u64,
    /// DOM nodes created.
    pub nodes: u64,
    /// Engine element accesses.
    pub engine_accesses: u64,
}

impl BrowserStats {
    /// `%M_U`: the fraction of allocations served from the shared pool.
    pub fn percent_untrusted(&self) -> f64 {
        let total = self.trusted_allocs + self.untrusted_allocs;
        if total == 0 {
            0.0
        } else {
            100.0 * self.untrusted_allocs as f64 / total as f64
        }
    }
}

/// Dispatch ablation knobs: which interpreter fast paths are live.
///
/// Both default to on; the ablation lanes of `dispatch_ablation` turn
/// them off one at a time to price each optimization separately.
#[derive(Clone, Copy, Debug)]
pub struct DispatchOptions {
    /// Fused bulk-memory superinstructions (one TLB lookup per page run
    /// instead of one per byte) in the machine.
    pub threaded: bool,
    /// Shape-keyed, epoch-invalidated inline caches in the engine.
    pub ic: bool,
}

impl Default for DispatchOptions {
    fn default() -> DispatchOptions {
        DispatchOptions { threaded: true, ic: true }
    }
}

/// Counters for the dispatch fast paths (all zero when ablated off).
#[derive(Clone, Copy, Debug, Default)]
pub struct DispatchStats {
    /// Inline-cache hits across all property-access sites.
    pub ic_hits: u64,
    /// Inline-cache misses (fills and refills).
    pub ic_misses: u64,
    /// Fused superinstructions executed by the machine.
    pub fused_ops: u64,
}

impl DispatchStats {
    /// Hit rate over all cached lookups, or 0 when no site ever ran.
    pub fn ic_hit_rate(&self) -> f64 {
        let total = self.ic_hits + self.ic_misses;
        if total == 0 {
            0.0
        } else {
            self.ic_hits as f64 / total as f64
        }
    }
}

/// Shared event-listener table: (node, event) → callbacks.
pub type Listeners = Rc<RefCell<HashMap<(u64, String), Vec<Value>>>>;

/// The browser: a trusted shell around the untrusted JS engine.
pub struct Browser {
    /// The simulated machine (shared with the engine).
    pub machine: Machine,
    /// The embedded JavaScript engine (the untrusted compartment).
    pub engine: Engine,
    /// The DOM (trusted state).
    pub dom: Rc<RefCell<Dom>>,
    /// Event listeners: (node, event) → callbacks.
    pub listeners: Listeners,
    /// `console.log` output.
    pub console: Rc<RefCell<Vec<String>>>,
    config: BrowserConfig,
    document_obj: minijs::ObjHandle,
    node_class: minijs::HostClassId,
}

impl Browser {
    /// Creates a browser in the given configuration with no profile (all
    /// sites trusted).
    pub fn new(config: BrowserConfig) -> Result<Browser, BrowserError> {
        Browser::with_profile(config, None)
    }

    /// Creates a browser, binding profiled sites to `M_U` (the enforcement
    /// build's startup equivalent of the paper's recompilation).
    pub fn with_profile(
        config: BrowserConfig,
        profile: Option<&Profile>,
    ) -> Result<Browser, BrowserError> {
        Browser::with_dispatch(config, profile, None, None, true, DispatchOptions::default())
    }

    /// The fully general constructor.
    ///
    /// - `host`: build a worker browser on a [`SharedHost`]. The address
    ///   space and trusted key are shared process state, while the CPU
    ///   (and its PKRU), the call-gate stack and the split-allocator
    ///   carve-out are this worker's own.
    /// - `handler`: install a serve-time MPK violation handler. Pkey faults
    ///   route through its policy, the call gates refuse entry once its
    ///   quarantine breaker trips, and (for auditing policies) allocations
    ///   are logged to the metadata table so faulting addresses resolve
    ///   back to their sites.
    /// - `tlb`: the software-TLB toggle.
    /// - `dispatch`: `dispatch.threaded` gates the machine's fused
    ///   bulk-memory superinstructions and `dispatch.ic` gates the
    ///   engine's inline caches.
    ///
    /// The toggles take effect before any setup traffic (startup
    /// allocations, the DOM boot, engine init), so an ablation lane's
    /// counters stay at zero for the whole browser lifetime.
    pub fn with_dispatch(
        config: BrowserConfig,
        profile: Option<&Profile>,
        host: Option<&SharedHost>,
        handler: Option<Arc<ViolationHandler>>,
        tlb: bool,
        dispatch: DispatchOptions,
    ) -> Result<Browser, BrowserError> {
        let machine_config = MachineConfig {
            split_allocator: config.split_allocator(),
            unified_pools: config.unified_pools(),
            fault_policy: if config == BrowserConfig::Profiling {
                FaultPolicy::Profile
            } else {
                FaultPolicy::Crash
            },
            fuel: u64::MAX,
        };
        let mut machine = match host {
            Some(host) => Machine::on_host(machine_config, host)?,
            None => Machine::new(machine_config)?,
        };
        machine.tlb.set_enabled(tlb);
        machine.set_fused(dispatch.threaded);
        if let Some(handler) = handler.as_ref() {
            machine.set_violation_handler(Arc::clone(handler));
        }

        let registry = match profile {
            Some(p) => SiteRegistry::from_profile(p),
            None => SiteRegistry::all_trusted(),
        };
        // Auditing policies need every allocation in the metadata table so
        // the handler can resolve faulting addresses to their sites.
        let track_metadata = config == BrowserConfig::Profiling
            || handler.as_ref().is_some_and(|h| h.policy().audits());
        let mut dom = Dom::new(registry, track_metadata);

        // Plant the §5.4 secret at its fixed address, inside trusted
        // memory (its page carries the trusted key under MPK configs).
        // The page is a process singleton: on a shared host the first
        // worker maps and tags it, later workers find it in place.
        {
            let mut space = machine.space.lock();
            match space.mmap_at(SECRET_ADDR, PAGE_SIZE, Prot::READ_WRITE) {
                Ok(()) | Err(MapError::AlreadyMapped { .. }) => {}
                Err(e) => return Err(AllocError::Map(e).into()),
            }
            if config.split_allocator() {
                space
                    .pkey_mprotect(SECRET_ADDR, PAGE_SIZE, Prot::READ_WRITE, machine.trusted_pkey())
                    .map_err(AllocError::Map)?;
            }
        }
        machine.mem_write(SECRET_ADDR, 42.0_f64.to_bits())?;

        // Browser startup: the long tail of allocations that never cross
        // the compartment boundary.
        startup_allocations(&mut dom, &mut machine)?;

        let mut engine = Engine::new(&mut machine)?;
        engine.set_ic_enabled(dispatch.ic);
        let dom = Rc::new(RefCell::new(dom));
        let listeners = Rc::new(RefCell::new(HashMap::new()));
        let console = Rc::new(RefCell::new(Vec::new()));
        let (document_obj, node_class) = crate::bindings::install(
            &mut engine,
            &mut machine,
            Rc::clone(&dom),
            Rc::clone(&listeners),
            Rc::clone(&console),
            config.gated(),
        )?;

        Ok(Browser { machine, engine, dom, listeners, console, config, document_obj, node_class })
    }

    /// The active configuration.
    pub fn config(&self) -> BrowserConfig {
        self.config
    }

    /// Parses `html` into a fresh document tree and lays it out.
    pub fn load_html(&mut self, html: &str) -> Result<(), BrowserError> {
        let nodes = parse_html(html)?;
        let mut dom = self.dom.borrow_mut();
        let root = dom.create_element(&mut self.machine, "html")?;
        dom.root = root;
        build_nodes(&mut dom, &mut self.machine, root, &nodes)?;
        dom.layout(&mut self.machine)?;
        // Expose document.body (the root) to script.
        let body = Value::HostRef { addr: root, class: self.node_class };
        drop(dom);
        self.engine.heap_mut().prop_set(
            &mut self.machine,
            self.document_obj,
            &"body".into(),
            &body,
        )?;
        Ok(())
    }

    /// Evaluates a script in the untrusted engine. Under gated
    /// configurations this crosses the compartment boundary (the
    /// `mozjs::eval` gate wrapper).
    pub fn eval_script(&mut self, source: &str) -> Result<Value, BrowserError> {
        self.in_untrusted(|b| b.engine.eval(&mut b.machine, source))
    }

    /// Calls a global script function (e.g. a benchmark's `run`).
    pub fn call_script(&mut self, name: &str, args: &[Value]) -> Result<Value, BrowserError> {
        self.in_untrusted(|b| b.engine.call(&mut b.machine, name, args))
    }

    /// Runs `body` in the untrusted compartment: under gated
    /// configurations it is wrapped in one enter/exit gate pair, and the
    /// exit always runs after a successful enter. A gate error wins over
    /// the body's own result.
    fn in_untrusted<T, E>(
        &mut self,
        body: impl FnOnce(&mut Browser) -> Result<T, E>,
    ) -> Result<T, BrowserError>
    where
        BrowserError: From<E>,
    {
        let gated = self.config.gated();
        if gated {
            self.machine.gates.enter_untrusted(&mut self.machine.cpu)?;
        }
        let result = body(self);
        if gated {
            self.machine.gates.exit_untrusted(&mut self.machine.cpu)?;
        }
        Ok(result?)
    }

    /// Allocates a probe object at [`Site::FaultProbe`] and reads it back
    /// from inside the untrusted compartment.
    ///
    /// When the site is bound to `M_T` (not in the profile), the read is an
    /// MPK violation under gated configurations: the installed violation
    /// handler decides whether it retires (audit), trips the breaker
    /// (quarantine), or kills the request (enforce). When the site is in
    /// the profile — e.g. after `Profile::absorb_audit` of a previous run's
    /// log — the object lives in `M_U` and the probe is violation-free.
    pub fn probe_trusted_access(&mut self) -> Result<(), BrowserError> {
        let addr = {
            let mut dom = self.dom.borrow_mut();
            dom.alloc(&mut self.machine, Site::FaultProbe, 64)?
        };
        // Materialize the object under trusted rights, as the shell would
        // when staging data for the engine.
        self.machine.mem_write(addr, 0x5250_4b55)?;
        self.in_untrusted(|b| b.machine.mem_read(addr))?;
        Ok(())
    }

    /// Reads the planted secret (the value Servo "logs on program exit").
    pub fn secret_value(&mut self) -> Result<f64, BrowserError> {
        Ok(f64::from_bits(self.machine.mem_read(SECRET_ADDR)?))
    }

    /// Extracts the recorded profile (profiling configuration only).
    pub fn into_profile(mut self) -> Profile {
        std::mem::take(&mut self.machine.profiler.profile)
    }

    /// Runtime statistics for the evaluation tables.
    pub fn stats(&self) -> BrowserStats {
        let (trusted_allocs, untrusted_allocs) = self.machine.alloc.alloc_counts();
        BrowserStats {
            transitions: self.machine.gates.transitions(),
            trusted_allocs,
            untrusted_allocs,
            nodes: self.dom.borrow().node_count,
            engine_accesses: self.engine.elem_accesses(),
        }
    }

    /// Dispatch fast-path counters (inline caches + fused machine ops).
    pub fn dispatch_stats(&self) -> DispatchStats {
        let (ic_hits, ic_misses) = self.engine.ic_stats();
        DispatchStats { ic_hits, ic_misses, fused_ops: self.machine.fused_ops }
    }

    /// The site census: (site, domain, allocation count) rows.
    pub fn census(&self) -> Vec<(Site, pkalloc::Domain, u64)> {
        self.dom.borrow().sites.census()
    }
}

/// Materializes parsed HTML under `parent` (shared by `load_html` and the
/// `innerHTML` setter).
pub(crate) fn build_nodes(
    dom: &mut Dom,
    machine: &mut Machine,
    parent: u64,
    nodes: &[HtmlNode],
) -> Result<(), BrowserError> {
    for node in nodes {
        match node {
            HtmlNode::Element { tag, attrs, children } => {
                let element = dom.create_element(machine, tag)?;
                for (name, value) in attrs {
                    dom.set_attribute(machine, element, name, value)?;
                }
                dom.append_child(machine, parent, element)?;
                build_nodes(dom, machine, element, children)?;
            }
            HtmlNode::Text(text) => {
                let t = dom.create_text(machine, text)?;
                dom.append_child(machine, parent, t)?;
            }
        }
    }
    Ok(())
}

/// The browser's boot-time allocations: history, caches, fonts, net state,
/// style machinery — realistic `M_T` residents that never cross into `U`.
fn startup_allocations(dom: &mut Dom, machine: &mut Machine) -> Result<(), BrowserError> {
    let plan: &[(Site, u64, usize)] = &[
        (Site::DocumentRecord, 256, 1),
        (Site::HistoryEntry, 128, 8),
        (Site::UrlBuffer, 96, 8),
        (Site::CookieJar, 512, 1),
        (Site::CacheEntry, 256, 16),
        (Site::FontRecord, 192, 4),
        (Site::GlyphCache, 4096, 1),
        (Site::DisplayList, 2048, 1),
        (Site::PaintBuffer, 8192, 1),
        (Site::FlowTree, 512, 1),
        (Site::StyleRule, 64, 32),
        (Site::StyleSheet, 1024, 2),
        (Site::SelectorIndex, 512, 1),
        (Site::ComputedStyle, 128, 16),
        (Site::ScriptSource, 1024, 2),
        (Site::TimerRecord, 64, 4),
        (Site::FetchBuffer, 4096, 2),
        (Site::TlsSession, 384, 1),
        (Site::DnsCache, 256, 1),
        (Site::ImageDecode, 4096, 1),
        (Site::AudioBuffer, 2048, 1),
        (Site::VideoFrame, 8192, 1),
        (Site::FormRecord, 128, 2),
        (Site::SelectionRecord, 64, 1),
        (Site::RangeRecord, 64, 2),
        (Site::MutationRecord, 96, 4),
        (Site::ProfileScratch, 512, 1),
        (Site::ConsoleBuffer, 1024, 1),
        (Site::SessionStore, 512, 1),
    ];
    for &(site, size, count) in plan {
        for i in 0..count {
            let addr = dom.alloc(machine, site, size)?;
            // Touch the allocation so the pages are resident, as real
            // subsystem initialization would.
            machine.mem_write(addr, (site as u64) << 8 | i as u64)?;
        }
    }
    // Every site enum variant exists; make the census complete even for
    // sites the plan above covers implicitly.
    debug_assert!(ALL_SITES.len() >= plan.len());
    Ok(())
}
