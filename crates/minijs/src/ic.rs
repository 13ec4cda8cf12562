//! Per-site inline caches for property access.
//!
//! Every `obj.name` site in the AST carries a [`PropIc`], which the op
//! lowered from the site shares: a one-entry
//! cache keyed by the receiver's *shape* (for engine objects) or host
//! class (for DOM references). A hit skips the property-table walk — it
//! never skips the rights-checked memory access itself, so MPK
//! enforcement is identical on the hit and miss paths.
//!
//! Entries are validated against the heap's global IC epoch the way
//! `vmem::Tlb` entries are validated against the space epoch: anything
//! that changes lookup *metadata* non-monotonically (host-class layout
//! edits, toggling the caches) bumps the epoch and every cached entry
//! everywhere goes stale at once. Shape transitions do not need the
//! epoch — shapes are immutable once interned, so a changed object
//! simply stops matching its old shape id.

use std::cell::Cell;
use std::rc::Rc;

use crate::engine::HostField;

/// What a cache entry remembers about the last successful lookup.
#[derive(Clone, Copy, Debug)]
pub enum IcState {
    /// Never filled (or explicitly reset).
    Empty,
    /// An existing property: receivers of `shape` keep `name` in `slot`.
    Prop {
        /// The receiver shape this entry is specialized to.
        shape: u32,
        /// Slot index within the object's slot buffer.
        slot: u32,
    },
    /// A property *add*: writing `name` to a receiver of shape `from`
    /// lands in `slot` and transitions the receiver to shape `to`.
    PropAdd {
        /// Shape before the add.
        from: u32,
        /// Shape after the add.
        to: u32,
        /// Slot index the added property occupies.
        slot: u32,
    },
    /// A host-structure field: receivers of `class` read `name` per
    /// `field` (offset + kind + writability).
    HostField {
        /// The host class this entry is specialized to.
        class: u32,
        /// The cached field spec.
        field: HostField,
    },
    /// A host-class method: `name` resolves to native handle `method`.
    HostMethod {
        /// The host class this entry is specialized to.
        class: u32,
        /// The cached native handle.
        method: u32,
    },
}

/// One cache entry: a state plus the epoch it was filled under.
#[derive(Clone, Copy, Debug)]
pub struct IcEntry {
    /// The heap IC epoch at fill time.
    pub epoch: u64,
    /// The cached lookup result.
    pub state: IcState,
}

/// A per-site inline cache (interior-mutable so the evaluator can fill
/// it through a shared op or `&Expr`).
///
/// The entry lives behind an `Rc` so `Expr` stays pointer-sized here
/// (deeply nested sources recurse on `Expr` size), and so the ops lowered
/// from a site, and cloned AST fragments, keep feeding the same site
/// cache.
#[derive(Clone, Debug)]
pub struct PropIc(Rc<Cell<IcEntry>>);

impl PropIc {
    /// A fresh, empty cache. Epoch 0 is never a live heap epoch, so a
    /// zero entry can never be mistaken for a valid one.
    pub fn new() -> PropIc {
        PropIc(Rc::new(Cell::new(IcEntry { epoch: 0, state: IcState::Empty })))
    }

    /// The cached state, if it was filled under `epoch`; `None` means
    /// the entry is empty or stale and must be refilled.
    pub fn load(&self, epoch: u64) -> Option<IcState> {
        let entry = self.0.get();
        if entry.epoch == epoch {
            Some(entry.state)
        } else {
            None
        }
    }

    /// Fills the cache under `epoch`.
    pub fn store(&self, epoch: u64, state: IcState) {
        self.0.set(IcEntry { epoch, state });
    }
}

impl Default for PropIc {
    fn default() -> PropIc {
        PropIc::new()
    }
}
