//! `pkalloc`: the compartment-aware split heap allocator (paper §4.4).
//!
//! PKRU-Safe must guarantee that the trusted heap `M_T` and the untrusted
//! heap `M_U` never share a page — general-purpose allocators freely co-
//! locate same-sized objects, which would either crash the partitioned
//! program or leak trusted data. `pkalloc` solves this by wrapping *two*
//! disjoint allocators behind one interface:
//!
//! - [`TrustedArena`] — a jemalloc-style size-class arena that only ever
//!   hands out pages from a large region reserved at startup (46 bits of
//!   address space by default, mapped with demand paging so the reservation
//!   is free) and tagged with the trusted protection key;
//! - [`UntrustedHeap`] — a libc-malloc-style boundary-tag free-list
//!   allocator whose pages carry the default key and are therefore
//!   accessible from both compartments.
//!
//! Pages are never migrated between the pools, reallocation keeps an object
//! in the pool its base pointer came from, and each allocator's internal
//! bookkeeping is unreachable from the other compartment. The untrusted
//! heap even keeps its chunk headers *inside* `M_U`, like real `malloc` —
//! which means a compromised untrusted compartment can corrupt its own
//! allocator metadata but never the trusted pool's.
//!
//! [`BaselineAlloc`] provides the unmodified single-pool allocator used as
//! the `base` configuration in the evaluation.

mod baseline;
mod classes;
mod error;
mod split;
mod trusted;
mod untrusted;

pub use baseline::BaselineAlloc;
pub use classes::{size_class_for, SIZE_CLASSES};
pub use error::AllocError;
pub use split::{Domain, PkAlloc, PkAllocConfig, PkAllocStats};
pub use trusted::{ArenaStats, TrustedArena};
pub use untrusted::{HeapStats, UntrustedHeap};

use pkru_vmem::VirtAddr;

/// Base of the reserved trusted region (`M_T`).
pub const TRUSTED_BASE: VirtAddr = 0x4000_0000_0000;

/// Span of the trusted reservation: 46 bits, per the paper's default.
pub const TRUSTED_SPAN: u64 = 1 << 46;

/// Base of the reserved untrusted region (`M_U`) managed by `pkalloc`.
///
/// Placed low in the address space so that the paper's fixed secret
/// address (`0x1680_0000_0000`, §5.4) sits *above* every untrusted buffer
/// — the direction the exploit's out-of-bounds indexing reaches.
pub const UNTRUSTED_BASE: VirtAddr = 0x0800_0000_0000;

/// Span of the untrusted reservation.
pub const UNTRUSTED_SPAN: u64 = 1 << 40;

/// Per-worker trusted carve-out inside the shared trusted region.
///
/// When many worker threads share one address space, each worker's
/// allocator manages its own disjoint slice of `M_T`/`M_U` (the classic
/// per-thread-arena design) so allocation needs no cross-worker
/// coordination beyond the page tables themselves. Every trusted slice is
/// still tagged with the *same* trusted key: rights are per-thread (PKRU),
/// placement is per-worker.
pub const WORKER_TRUSTED_SPAN: u64 = 1 << 40;

/// Per-worker untrusted carve-out inside the shared untrusted region.
pub const WORKER_UNTRUSTED_SPAN: u64 = 1 << 34;

/// Maximum workers the carve-out geometry supports in one address space.
pub const MAX_WORKERS: usize = (UNTRUSTED_SPAN / WORKER_UNTRUSTED_SPAN) as usize;

/// The uniform allocation interface (the extended `GlobalAlloc` trait).
///
/// The paper extends Rust's `liballoc` with untrusted variants of each
/// allocation function (`__rust_untrusted_alloc` beside `__rust_alloc`,
/// §4.2); this trait is that extended surface. `realloc` must keep the
/// object in the pool its base pointer originated from, so reallocations
/// behave consistently regardless of the execution path.
pub trait CompartmentAlloc {
    /// Allocates `size` bytes from the trusted pool (`__rust_alloc`).
    fn alloc(&mut self, size: u64) -> Result<VirtAddr, AllocError>;

    /// Allocates `size` bytes from the untrusted pool
    /// (`__rust_untrusted_alloc`).
    fn untrusted_alloc(&mut self, size: u64) -> Result<VirtAddr, AllocError>;

    /// Resizes the object at `ptr`, staying in its original pool
    /// (`__rust_realloc`).
    fn realloc(&mut self, ptr: VirtAddr, new_size: u64) -> Result<VirtAddr, AllocError>;

    /// Frees the object at `ptr` (`__rust_dealloc`).
    fn dealloc(&mut self, ptr: VirtAddr) -> Result<(), AllocError>;

    /// The usable size of the object at `ptr`, if it is a live allocation.
    fn usable_size(&self, ptr: VirtAddr) -> Option<u64>;

    /// The pool `ptr` belongs to, judged by reservation ranges.
    fn domain_of(&self, ptr: VirtAddr) -> Option<Domain>;

    /// (trusted, untrusted) allocation counts so far — the `%M_U`
    /// statistic of Tables 1 and 2.
    fn alloc_counts(&self) -> (u64, u64);

    /// The statistics of the untrusted heap, for an allocator that has
    /// one of its own.
    fn untrusted_heap_stats(&self) -> Option<HeapStats> {
        None
    }

    /// The statistics of the trusted arena, for an allocator that has one.
    fn trusted_arena_stats(&self) -> Option<ArenaStats> {
        None
    }
}
