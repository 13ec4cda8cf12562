//! Deterministic fault injection for the serving runtime.
//!
//! The supervision layer in [`serve`](crate::serve) is only trustworthy if
//! worker death is a scenario we can *provoke on demand*: a [`FaultPlan`]
//! names, ahead of a run, which worker fails and how — setup failure,
//! mid-request panic, an MPK violation, or allocator-carve-out exhaustion
//! — and the run must then terminate with the documented retry-once /
//! respawn-within-budget semantics instead of hanging. Plans are plain
//! data (buildable by hand, parseable from the CLI, or drawn from a seed
//! for property tests), and every firing is counted in the report's
//! `injected_faults` so an injected defect is never mistaken for a real
//! one.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// What an injected fault does to its victim worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Browser setup fails every time the worker slot (re)starts — a
    /// permanently broken worker. Exhausts the slot's respawn budget.
    SetupFailure,
    /// The worker panics mid-request (the request is requeued once).
    Panic,
    /// The request is reported as an MPK violation; the worker survives
    /// and the violation lands in `pkey_faults` like a real one.
    PkeyViolation,
    /// The worker's untrusted allocator carve-out is drained until the
    /// allocator refuses, then the worker dies (respawn gets a fresh
    /// carve-out slot on the shared host).
    AllocExhaustion,
    /// The worker wedges mid-request: its heartbeat freezes with the
    /// request in flight and it never returns on its own (livelock /
    /// blocked-syscall model). Only the watchdog can recover the slot;
    /// the wedged thread itself parks on the stall gate until the run
    /// ends, so the pool's scoped join still completes.
    Stall,
}

impl FaultKind {
    /// Whether the fault strikes at (re)start rather than on a request.
    pub fn at_setup(self) -> bool {
        matches!(self, FaultKind::SetupFailure)
    }
}

/// One injected fault: `kind` strikes worker slot `worker` on the `at`-th
/// request that slot pops (1-based, counted across respawns; ignored for
/// [`FaultKind::SetupFailure`]). Request-level faults fire at most once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// The victim worker slot.
    pub worker: usize,
    /// What happens to it.
    pub kind: FaultKind,
    /// Which popped request triggers it (1-based; slot lifetime).
    pub at: u64,
}

impl Fault {
    /// Parses one `--fault` argument: `worker=K,kind=KIND[,at=N]` with
    /// `KIND` one of `setup`, `panic`, `mpk`, `alloc`, `stall`. `at`
    /// defaults to 1 and is meaningless for `setup`.
    pub fn parse(spec: &str) -> Result<Fault, String> {
        let (mut worker, mut kind, mut at) = (None, None, 1u64);
        for part in spec.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad fault field {part:?} (expected key=value)"))?;
            match key {
                "worker" => {
                    worker =
                        Some(value.parse().map_err(|_| format!("bad fault worker {value:?}"))?);
                }
                "kind" => {
                    kind = Some(match value {
                        "setup" => FaultKind::SetupFailure,
                        "panic" => FaultKind::Panic,
                        "mpk" => FaultKind::PkeyViolation,
                        "alloc" => FaultKind::AllocExhaustion,
                        "stall" => FaultKind::Stall,
                        other => {
                            return Err(format!(
                                "unknown fault kind {other:?} (setup|panic|mpk|alloc|stall)"
                            ))
                        }
                    });
                }
                "at" => {
                    at = value.parse().map_err(|_| format!("bad fault at {value:?}"))?;
                    if at == 0 {
                        return Err("fault at is 1-based (at=1 is the first request)".into());
                    }
                }
                other => return Err(format!("unknown fault field {other:?} (worker|kind|at)")),
            }
        }
        Ok(Fault {
            worker: worker.ok_or("fault needs worker=K")?,
            kind: kind.ok_or("fault needs kind=setup|panic|mpk|alloc|stall")?,
            at,
        })
    }
}

/// A deterministic set of faults to inject into one serve run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: a fault-free run, bit-identical to one with no
    /// plan at all.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a fault (builder form).
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.push(fault);
        self
    }

    /// Adds a fault in place.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// The planned faults, in injection-priority order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Draws a small random plan from `seed` — deterministic per seed, so
    /// a failing property-test case reproduces exactly. Victims are drawn
    /// from `workers` slots, strike points from the first `requests`
    /// requests.
    pub fn random(seed: u64, workers: usize, requests: u64) -> FaultPlan {
        assert!(workers > 0, "a plan needs at least one potential victim");
        // SplitMix64: quality is irrelevant, determinism is not.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::none();
        for _ in 0..next() % 3 {
            let kind = match next() % 4 {
                0 => FaultKind::SetupFailure,
                1 => FaultKind::Panic,
                2 => FaultKind::PkeyViolation,
                _ => FaultKind::AllocExhaustion,
            };
            plan.push(Fault {
                worker: (next() % workers as u64) as usize,
                kind,
                at: 1 + next() % requests.max(1),
            });
        }
        plan
    }

    /// Like [`FaultPlan::random`], but the kind pool includes
    /// [`FaultKind::Stall`] — for the overload/watchdog property tests,
    /// which run with a short watchdog deadline. Kept separate so the
    /// long-standing death-plan proptests keep their exact historical
    /// distribution (and never wait out a stall under the default 5 s
    /// deadline).
    pub fn random_overload(seed: u64, workers: usize, requests: u64) -> FaultPlan {
        assert!(workers > 0, "a plan needs at least one potential victim");
        let mut state = seed ^ 0x6a09_e667_f3bc_c908;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::none();
        for _ in 0..next() % 3 {
            let kind = match next() % 5 {
                0 => FaultKind::SetupFailure,
                1 => FaultKind::Panic,
                2 => FaultKind::PkeyViolation,
                3 => FaultKind::AllocExhaustion,
                _ => FaultKind::Stall,
            };
            plan.push(Fault {
                worker: (next() % workers as u64) as usize,
                kind,
                at: 1 + next() % requests.max(1),
            });
        }
        plan
    }
}

/// Runtime injection state shared by every worker incarnation: which
/// faults have fired, how many requests each slot has popped over its
/// lifetime (across respawns), and how many injections happened in total.
#[derive(Debug)]
pub(crate) struct FaultState {
    faults: Vec<(Fault, AtomicBool)>,
    attempts: Vec<AtomicU64>,
    injected: AtomicU64,
    /// The stall gate: injected stalls park here. `serve` opens the gate
    /// after supervision ends so wedged threads can exit and the scoped
    /// join completes — a stalled worker "leaks" only for the run's
    /// lifetime, never past it.
    stall_released: Mutex<bool>,
    stall_gate: Condvar,
}

impl FaultState {
    /// Arms `plan` for a pool of `workers` slots.
    pub fn new(plan: &FaultPlan, workers: usize) -> FaultState {
        FaultState {
            faults: plan.faults().iter().map(|&f| (f, AtomicBool::new(false))).collect(),
            attempts: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            injected: AtomicU64::new(0),
            stall_released: Mutex::new(false),
            stall_gate: Condvar::new(),
        }
    }

    /// Whether this (re)start of `worker` must fail browser setup.
    /// Setup faults are persistent — the slot is broken, not unlucky —
    /// and every firing counts as an injection.
    pub fn setup_should_fail(&self, worker: usize) -> bool {
        let hit = self.faults.iter().any(|(f, _)| f.worker == worker && f.kind.at_setup());
        if hit {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Called once per popped request: advances `worker`'s lifetime
    /// request counter and returns the fault to inject on this request,
    /// if any. Request-level faults are one-shot.
    pub fn next_request(&self, worker: usize) -> Option<FaultKind> {
        let nth = self.attempts[worker].fetch_add(1, Ordering::Relaxed) + 1;
        for (fault, fired) in &self.faults {
            if fault.worker == worker
                && !fault.kind.at_setup()
                && fault.at == nth
                && !fired.swap(true, Ordering::Relaxed)
            {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Some(fault.kind);
            }
        }
        None
    }

    /// Total injections so far (reported as `injected_faults`).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Parks the calling worker until [`FaultState::release_stalls`] —
    /// the body of an injected [`FaultKind::Stall`]. From the pool's
    /// point of view the thread is wedged: heartbeat frozen, request in
    /// flight, never returning. Only the end-of-run release (after the
    /// watchdog has condemned the incarnation) lets it out.
    pub fn stall_until_released(&self) {
        let mut released = self.stall_released.lock().unwrap();
        while !*released {
            released = self.stall_gate.wait(released).unwrap();
        }
    }

    /// Opens the stall gate: every wedged thread wakes, finds its
    /// incarnation condemned, and exits. Called by `serve` once
    /// supervision is over (idempotent).
    pub fn release_stalls(&self) {
        *self.stall_released.lock().unwrap() = true;
        self.stall_gate.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        assert_eq!(
            Fault::parse("worker=2,kind=panic,at=7").unwrap(),
            Fault { worker: 2, kind: FaultKind::Panic, at: 7 }
        );
        assert_eq!(
            Fault::parse("worker=0,kind=setup").unwrap(),
            Fault { worker: 0, kind: FaultKind::SetupFailure, at: 1 }
        );
        assert_eq!(Fault::parse("worker=1,kind=mpk,at=3").unwrap().kind, FaultKind::PkeyViolation);
        assert_eq!(
            Fault::parse("worker=1,kind=alloc,at=3").unwrap().kind,
            FaultKind::AllocExhaustion
        );
        assert_eq!(Fault::parse("worker=3,kind=stall,at=2").unwrap().kind, FaultKind::Stall);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "worker=1",
            "kind=panic",
            "worker=x,kind=panic",
            "worker=1,kind=frobnicate",
            "worker=1,kind=panic,at=0",
            "worker=1,kind=panic,when=3",
            "worker",
        ] {
            assert!(Fault::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn random_plans_are_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = FaultPlan::random(seed, 3, 10);
            let b = FaultPlan::random(seed, 3, 10);
            assert_eq!(a, b);
            for fault in a.faults() {
                assert!(fault.worker < 3);
                assert!((1..=10).contains(&fault.at));
            }
        }
        assert_ne!(FaultPlan::random(1, 3, 10), FaultPlan::random(2, 3, 10));
    }

    #[test]
    fn overload_plans_are_deterministic_and_can_stall() {
        for seed in 0..64u64 {
            let a = FaultPlan::random_overload(seed, 3, 10);
            assert_eq!(a, FaultPlan::random_overload(seed, 3, 10));
            for fault in a.faults() {
                assert!(fault.worker < 3);
                assert!((1..=10).contains(&fault.at));
            }
        }
        // The extended pool actually draws stalls somewhere in 256 seeds.
        assert!(
            (0..256).any(|seed| {
                FaultPlan::random_overload(seed, 3, 10)
                    .faults()
                    .iter()
                    .any(|f| f.kind == FaultKind::Stall)
            }),
            "no seed produced a stall"
        );
        // And the legacy pool never does: its distribution is frozen.
        assert!((0..256).all(|seed| {
            FaultPlan::random(seed, 3, 10).faults().iter().all(|f| f.kind != FaultKind::Stall)
        }));
    }

    #[test]
    fn stall_gate_parks_until_released() {
        use std::sync::atomic::AtomicBool;
        let state = FaultState::new(&FaultPlan::none(), 1);
        let woke = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                state.stall_until_released();
                woke.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!woke.load(Ordering::SeqCst), "stalled thread ran through the gate");
            state.release_stalls();
        });
        assert!(woke.load(Ordering::SeqCst));
        // Idempotent, and late stalls pass straight through.
        state.release_stalls();
        state.stall_until_released();
    }

    #[test]
    fn request_faults_fire_once_at_their_request() {
        let plan = FaultPlan::none().with(Fault { worker: 0, kind: FaultKind::Panic, at: 2 });
        let state = FaultState::new(&plan, 2);
        assert_eq!(state.next_request(0), None); // request 1
        assert_eq!(state.next_request(1), None); // other worker's request 1
        assert_eq!(state.next_request(0), Some(FaultKind::Panic)); // request 2
        assert_eq!(state.next_request(0), None); // request 3: already fired
        assert_eq!(state.injected(), 1);
    }

    #[test]
    fn attempt_counters_span_respawns() {
        // The counter is per slot, not per incarnation: a respawned
        // worker continues the same lifetime count, so `at` points at a
        // unique request in the slot's history.
        let plan = FaultPlan::none().with(Fault { worker: 0, kind: FaultKind::Panic, at: 3 });
        let state = FaultState::new(&plan, 1);
        assert_eq!(state.next_request(0), None);
        // "respawn" — same state, counting continues
        assert_eq!(state.next_request(0), None);
        assert_eq!(state.next_request(0), Some(FaultKind::Panic));
    }

    #[test]
    fn setup_faults_are_persistent_and_counted() {
        let plan =
            FaultPlan::none().with(Fault { worker: 1, kind: FaultKind::SetupFailure, at: 1 });
        let state = FaultState::new(&plan, 2);
        assert!(!state.setup_should_fail(0));
        assert!(state.setup_should_fail(1));
        assert!(state.setup_should_fail(1), "setup faults must survive respawn");
        assert_eq!(state.injected(), 2);
    }
}
