//! The engine heap: objects, arrays, strings, closures, host references.
//!
//! Array element storage and object property slots live in the simulated
//! untrusted pool `M_U` and are accessed through the rights-checked
//! machine, so the engine's data accesses are subject to MPK enforcement.
//! Array headers (`length` and `capacity`) are stored *in memory* in front
//! of the elements, exactly like real engines — which is what makes the
//! planted length-corruption vulnerability (§5.4) meaningful: the bounds
//! check trusts a header the attacker can corrupt.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use lir::Machine;

use crate::ast::FuncDef;
use crate::error::EngineError;
use crate::exec::Env;
use crate::ic::{IcState, PropIc};
use crate::nanbox::{DecodedBox, NanBox};
use crate::string::{AsciiTable, JsStr};
use crate::Value;

/// Defines a generation-checked handle type (see [`ObjHandle`]).
macro_rules! handle {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        pub struct $name {
            index: u32,
            gen: u32,
        }

        impl $name {
            /// The slot in its table (what a NaN-box stores).
            pub fn index(self) -> u32 {
                self.index
            }

            /// The generation of the slot this handle was made for.
            pub fn generation(self) -> u32 {
                self.gen
            }

            /// A handle to slot `index` at generation `gen`.
            #[cfg(test)]
            pub(crate) fn at(index: u32, gen: u32) -> $name {
                $name { index, gen }
            }
        }
    };
}

handle! {
    /// Handle to an object in the engine heap: a slot of the object table
    /// and the generation of that slot the handle was made for.
    ///
    /// [`Heap::rewind`] reuses the slots of the objects it drops, one
    /// generation later, so a handle kept across a rewind names a slot
    /// whose generation has moved on: using it is
    /// [`EngineError::StaleHandle`], never a read of whatever object now
    /// sits there.
    ObjHandle
}

handle! {
    /// Handle to a closure in the engine heap, generation-checked as
    /// [`ObjHandle`] is.
    FunHandle
}

/// An interned name: an index into the heap's string table.
///
/// The lexer turns every identifier into a `Sym` once per parse, and the
/// resolver turns each `Sym` use into a slot; the rare by-name fallback
/// compares integers, never the name's text.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Sym(pub u32);

impl Sym {
    /// `this`, interned first by every heap.
    pub const THIS: Sym = Sym(0);
}

/// Handle to a host class definition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct HostClassId(pub u32);

/// What an object is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObjKind {
    /// A plain `{}` object.
    Plain,
    /// An array with in-memory `[len][cap]` header and element storage.
    Array,
}

/// Array header size in bytes: `[len: u64][cap: u64]`.
const ARRAY_HEADER: u64 = 16;

/// Arrays refuse to grow past this many elements (a sane engine limit; the
/// vulnerability matters precisely because the *corrupted* length is never
/// validated against it).
const MAX_ARRAY_LEN: u64 = 1 << 28;

/// A closure: function definition plus captured environment.
#[derive(Clone)]
pub struct Closure {
    /// The function definition.
    pub def: Rc<FuncDef>,
    /// The captured scope chain.
    pub env: Rc<Env>,
}

/// Engine-internal object record.
///
/// This bookkeeping is engine-internal state (analogous to GC cell
/// metadata); the *data* — elements and property slots — lives in `M_U`.
pub struct ObjData {
    /// The object's kind.
    pub kind: ObjKind,
    /// The object's shape id (index into [`Heap`]'s shape table).
    pub shape: u32,
    /// Base address of the property-slot buffer (0 = none yet).
    pub slots_addr: u64,
    /// Capacity of the slot buffer, in slots.
    pub slots_cap: u32,
    /// Base address of the array buffer (`[len][cap]` header first).
    pub elems_addr: u64,
}

/// An interned shape: the property layout shared by every object built
/// through the same sequence of property adds.
///
/// Shapes are immutable once created; a property add moves the object to
/// a successor shape found (or created) through `transitions`. That
/// immutability is what lets inline caches key on the shape id alone —
/// a `(shape, slot)` pair proven once stays true forever.
struct ShapeData {
    /// Property name → slot index.
    props: HashMap<JsStr, u32>,
    /// Property name → successor shape after adding it (hash-consing).
    transitions: HashMap<JsStr, u32>,
    /// Number of properties (equals the next free slot index).
    len: u32,
}

/// The empty shape every object starts with.
const EMPTY_SHAPE: u32 = 0;

/// The engine heap.
pub struct Heap {
    objects: Vec<ObjData>,
    /// The generation of every object slot ever used: a live object's,
    /// or the one the next object made in a dropped slot gets.
    obj_gens: Vec<u32>,
    shapes: Vec<ShapeData>,
    strings: Vec<JsStr>,
    string_index: HashMap<JsStr, u32>,
    /// The one-character ASCII strings.
    ascii: AsciiTable,
    closures: Vec<Closure>,
    /// The generation of every closure slot ever used.
    fun_gens: Vec<u32>,
    hostrefs: Vec<(u64, HostClassId)>,
    hostref_index: HashMap<(u64, u32), u64>,
    /// The root scope: one slot per global name, numbered densely in the
    /// order names were first resolved or bound (`None`: not bound yet).
    globals: Vec<Option<Value>>,
    /// Global name → its slot.
    global_slots: HashMap<Sym, u32>,
    /// Whether the `length`-setter bug is present (it is, by default — the
    /// engine models SpiderMonkey prior to the CVE-2019-11707 fix).
    pub vulnerable: bool,
    /// Element reads performed (engine statistics).
    pub elem_reads: u64,
    /// Element writes performed.
    pub elem_writes: u64,
    /// Inline-cache hits (fast-path lookups that skipped the walk).
    pub ic_hits: u64,
    /// Inline-cache misses (slow-path lookups, cache refilled).
    pub ic_misses: u64,
    /// Bytes walked to resolve a character position (non-ASCII strings
    /// only: an ASCII position is its byte index).
    pub string_bytes_walked: u64,
    /// Bytes the evaluator wrote into new strings.
    pub string_bytes_copied: u64,
    /// Variable accesses that found their resolved slot unbound and
    /// continued outward by name.
    pub scope_walks: u64,
    /// Closure calls whose body ran.
    pub closure_calls: u64,
    /// Frames taken from the allocator because the pool was empty.
    pub fresh_frames: u64,
    /// Finished call and scope frames that no closure captured, cleared
    /// and kept for the next frame the evaluator needs.
    pub(crate) frame_pool: Vec<Rc<Env>>,
    /// Global IC validity epoch; starts at 1 so a zeroed entry is stale.
    ic_epoch: u64,
    /// Rewinds that went back to their checkpoint.
    pub rewinds: u64,
    /// Rewinds refused (the checkpoint was promoted instead).
    pub rewinds_refused: u64,
    /// Buffers of dropped objects the allocator refused to take back
    /// (their chunk tags in `M_U` were overwritten), left allocated.
    pub rewind_leaks: u64,
}

impl Default for Heap {
    fn default() -> Heap {
        Heap::new()
    }
}

impl Heap {
    /// Creates an empty heap (vulnerable engine build).
    pub fn new() -> Heap {
        let mut heap = Heap {
            objects: Vec::new(),
            obj_gens: Vec::new(),
            shapes: vec![ShapeData { props: HashMap::new(), transitions: HashMap::new(), len: 0 }],
            strings: Vec::new(),
            string_index: HashMap::new(),
            ascii: AsciiTable::new(),
            closures: Vec::new(),
            fun_gens: Vec::new(),
            hostrefs: Vec::new(),
            hostref_index: HashMap::new(),
            globals: Vec::new(),
            global_slots: HashMap::new(),
            vulnerable: true,
            elem_reads: 0,
            elem_writes: 0,
            ic_hits: 0,
            ic_misses: 0,
            string_bytes_walked: 0,
            string_bytes_copied: 0,
            scope_walks: 0,
            closure_calls: 0,
            fresh_frames: 0,
            frame_pool: Vec::new(),
            ic_epoch: 1,
            rewinds: 0,
            rewinds_refused: 0,
            rewind_leaks: 0,
        };
        let this = heap.intern_name("this");
        debug_assert_eq!(this, Sym::THIS);
        heap
    }

    /// The current IC validity epoch.
    pub fn ic_epoch(&self) -> u64 {
        self.ic_epoch
    }

    /// Invalidates every inline cache everywhere: entries filled under
    /// older epochs stop matching and refill on next use (the `Tlb`
    /// epoch-flush contract).
    pub fn bump_ic_epoch(&mut self) {
        self.ic_epoch += 1;
    }

    /// The shape id of `h` (inline-cache key).
    pub fn shape_of(&self, h: ObjHandle) -> Result<u32, EngineError> {
        Ok(self.obj(h)?.shape)
    }

    #[inline]
    fn obj(&self, h: ObjHandle) -> Result<&ObjData, EngineError> {
        match self.objects.get(h.index as usize) {
            Some(data) if self.obj_gens[h.index as usize] == h.gen => Ok(data),
            _ => Err(EngineError::StaleHandle("object")),
        }
    }

    fn obj_mut(&mut self, h: ObjHandle) -> Result<&mut ObjData, EngineError> {
        match self.objects.get_mut(h.index as usize) {
            Some(data) if self.obj_gens[h.index as usize] == h.gen => Ok(data),
            _ => Err(EngineError::StaleHandle("object")),
        }
    }

    /// Appends an object record in the next slot, at that slot's
    /// generation.
    fn push_object(&mut self, kind: ObjKind, elems_addr: u64) -> ObjHandle {
        let index = self.objects.len() as u32;
        let gen = next_gen(&mut self.obj_gens, index);
        self.objects.push(ObjData {
            kind,
            shape: EMPTY_SHAPE,
            slots_addr: 0,
            slots_cap: 0,
            elems_addr,
        });
        ObjHandle { index, gen }
    }

    /// The kind of `h`.
    pub fn kind(&self, h: ObjHandle) -> Result<ObjKind, EngineError> {
        Ok(self.obj(h)?.kind)
    }

    /// Creates a plain object.
    pub fn new_object(&mut self) -> ObjHandle {
        self.push_object(ObjKind::Plain, 0)
    }

    /// Creates an array with the given initial elements.
    pub fn new_array(
        &mut self,
        machine: &mut Machine,
        initial: &[Value],
    ) -> Result<ObjHandle, EngineError> {
        let cap = initial.len().max(4) as u64;
        let addr = machine.alloc.untrusted_alloc(ARRAY_HEADER + 8 * cap)?;
        machine.mem_write(addr, initial.len() as u64)?;
        machine.mem_write(addr + 8, cap)?;
        let h = self.push_object(ObjKind::Array, addr);
        for (i, v) in initial.iter().enumerate() {
            let boxed = self.box_value(v);
            machine.mem_write(addr + ARRAY_HEADER + 8 * i as u64, boxed.0)?;
        }
        clear_elems(machine, addr, initial.len() as u64, cap)?;
        Ok(h)
    }

    /// Reads the array's length from its in-memory header.
    pub fn array_len(&self, machine: &mut Machine, h: ObjHandle) -> Result<u64, EngineError> {
        let data = self.obj(h)?;
        if data.kind != ObjKind::Array {
            return Err(EngineError::Type("not an array".into()));
        }
        Ok(machine.mem_read(data.elems_addr)?)
    }

    /// Sets the array's length (the `arr.length = n` setter).
    ///
    /// **This is the planted vulnerability.** The fixed engine clamps the
    /// new length to the buffer capacity (or reallocates); this one writes
    /// the header directly when `vulnerable` is set, violating the
    /// `len <= cap` invariant the indexed fast path trusts — the exact
    /// shape of the type-confusion-derived primitive used in §5.4.
    pub fn array_set_len(
        &mut self,
        machine: &mut Machine,
        h: ObjHandle,
        new_len: f64,
    ) -> Result<(), EngineError> {
        let data = self.obj(h)?;
        if data.kind != ObjKind::Array {
            return Err(EngineError::Type("not an array".into()));
        }
        let addr = data.elems_addr;
        if new_len < 0.0 || new_len.fract() != 0.0 {
            return Err(EngineError::Range("invalid array length".into()));
        }
        let n = new_len as u64;
        if self.vulnerable {
            // BUG: no clamp against capacity; the header is written as-is.
            return set_len(machine, addr, n);
        }
        // Patched behavior: shrink freely, grow via the safe path.
        let cap = machine.mem_read(addr + 8)?;
        if n <= cap {
            set_len(machine, addr, n)?;
        } else {
            self.grow_array(machine, h, n)?;
            machine.mem_write(self.obj(h)?.elems_addr, n)?;
        }
        Ok(())
    }

    /// Indexed read `a[i]`.
    ///
    /// The fast path bounds-checks against the in-memory length only,
    /// trusting the `len <= cap` invariant — which the vulnerable length
    /// setter can break.
    pub fn elem_get(
        &mut self,
        machine: &mut Machine,
        h: ObjHandle,
        index: f64,
    ) -> Result<Value, EngineError> {
        let data = self.obj(h)?;
        if data.kind != ObjKind::Array {
            return Err(EngineError::Type("indexed access on non-array".into()));
        }
        let addr = data.elems_addr;
        if index < 0.0 || index.fract() != 0.0 {
            return Ok(Value::Undefined);
        }
        let i = index as u64;
        let len = machine.mem_read(addr)?;
        if i >= len {
            return Ok(Value::Undefined);
        }
        self.elem_reads += 1;
        let slot_addr = addr.wrapping_add(ARRAY_HEADER).wrapping_add(8u64.wrapping_mul(i));
        let raw = machine.mem_read(slot_addr)?;
        self.unbox(NanBox(raw))
    }

    /// Indexed write `a[i] = v`.
    pub fn elem_set(
        &mut self,
        machine: &mut Machine,
        h: ObjHandle,
        index: f64,
        value: &Value,
    ) -> Result<(), EngineError> {
        let data = self.obj(h)?;
        if data.kind != ObjKind::Array {
            return Err(EngineError::Type("indexed access on non-array".into()));
        }
        if index < 0.0 || index.fract() != 0.0 {
            return Err(EngineError::Range("bad array index".into()));
        }
        let i = index as u64;
        let addr = data.elems_addr;
        let len = machine.mem_read(addr)?;
        let boxed = self.box_value(value);
        if i < len {
            // Fast path: in bounds per the (corruptible) header.
            self.elem_writes += 1;
            let slot_addr = addr.wrapping_add(ARRAY_HEADER).wrapping_add(8u64.wrapping_mul(i));
            machine.mem_write(slot_addr, boxed.0)?;
            return Ok(());
        }
        // Slow path: genuine append/growth with full validation.
        if i >= MAX_ARRAY_LEN {
            return Err(EngineError::Range("array too large".into()));
        }
        let cap = machine.mem_read(addr + 8)?;
        if i >= cap {
            self.grow_array(machine, h, i + 1)?;
        }
        let addr = self.obj(h)?.elems_addr;
        // The holes a sparse write leaves already read as `undefined`: no
        // element past the length holds a value (see `set_len`).
        self.elem_writes += 1;
        machine.mem_write(addr + ARRAY_HEADER + 8 * i, boxed.0)?;
        machine.mem_write(addr, i + 1)?; // New length.
        Ok(())
    }

    /// Appends a value, returning the new length.
    pub fn array_push(
        &mut self,
        machine: &mut Machine,
        h: ObjHandle,
        value: &Value,
    ) -> Result<u64, EngineError> {
        let len = self.array_len(machine, h)?;
        self.elem_set(machine, h, len as f64, value)?;
        Ok(len + 1)
    }

    /// Removes and returns the last element.
    pub fn array_pop(&mut self, machine: &mut Machine, h: ObjHandle) -> Result<Value, EngineError> {
        let len = self.array_len(machine, h)?;
        if len == 0 {
            return Ok(Value::Undefined);
        }
        let v = self.elem_get(machine, h, (len - 1) as f64)?;
        let addr = self.obj(h)?.elems_addr;
        set_len(machine, addr, len - 1)?;
        Ok(v)
    }

    fn grow_array(
        &mut self,
        machine: &mut Machine,
        h: ObjHandle,
        needed: u64,
    ) -> Result<(), EngineError> {
        let old_addr = self.obj(h)?.elems_addr;
        let len = machine.mem_read(old_addr)?;
        let cap = machine.mem_read(old_addr + 8)?;
        let new_cap = needed.max(cap.saturating_mul(2)).clamp(8, MAX_ARRAY_LEN);
        if new_cap < needed {
            return Err(EngineError::Range("array too large".into()));
        }
        let new_addr = machine.alloc.untrusted_alloc(ARRAY_HEADER + 8 * new_cap)?;
        machine.mem_write(new_addr, len)?;
        machine.mem_write(new_addr + 8, new_cap)?;
        // Bulk element copy within M_U (the engine's memcpy of its own
        // buffers; rights-equivalent to per-slot untrusted accesses).
        let copied = len.min(cap);
        let bytes = (8 * copied) as usize;
        if bytes > 0 {
            let mut buf = vec![0u8; bytes];
            let mut space = machine.space.lock();
            // Both buffers are live M_U allocations.
            space.read_supervisor(old_addr + ARRAY_HEADER, &mut buf).expect("live buffer");
            space.write_supervisor(new_addr + ARRAY_HEADER, &buf).expect("live buffer");
        }
        clear_elems(machine, new_addr, copied, new_cap)?;
        machine.alloc.dealloc(old_addr)?;
        self.obj_mut(h)?.elems_addr = new_addr;
        Ok(())
    }

    /// The successor shape after adding `name` to `from`, creating and
    /// interning it on first use.
    fn transition(&mut self, from: u32, name: &JsStr) -> u32 {
        if let Some(&to) = self.shapes[from as usize].transitions.get(name) {
            return to;
        }
        let len = self.shapes[from as usize].len;
        let mut props = self.shapes[from as usize].props.clone();
        props.insert(name.clone(), len);
        let to = self.shapes.len() as u32;
        self.shapes.push(ShapeData { props, transitions: HashMap::new(), len: len + 1 });
        self.shapes[from as usize].transitions.insert(name.clone(), to);
        to
    }

    /// Property read `o.name` (own properties only; no prototype chain).
    pub fn prop_get(
        &mut self,
        machine: &mut Machine,
        h: ObjHandle,
        name: &str,
    ) -> Result<Value, EngineError> {
        let data = self.obj(h)?;
        let slots_addr = data.slots_addr;
        let Some(&slot) = self.shapes[data.shape as usize].props.get(name) else {
            return Ok(Value::Undefined);
        };
        let raw = machine.mem_read(slots_addr + 8 * u64::from(slot))?;
        self.unbox(NanBox(raw))
    }

    /// Property read through a per-site inline cache.
    ///
    /// A hit skips only the shape walk; the slot read still goes through
    /// the rights-checked machine, so the PKRU verdict is live on every
    /// access — access *rights* are never cached, only layout.
    pub fn prop_get_ic(
        &mut self,
        machine: &mut Machine,
        h: ObjHandle,
        name: &str,
        ic: &PropIc,
    ) -> Result<Value, EngineError> {
        let data = self.obj(h)?;
        let (shape, slots_addr) = (data.shape, data.slots_addr);
        if let Some(IcState::Prop { shape: cached, slot }) = ic.load(self.ic_epoch) {
            if cached == shape {
                self.ic_hits += 1;
                let raw = machine.mem_read(slots_addr + 8 * u64::from(slot))?;
                return self.unbox(NanBox(raw));
            }
        }
        self.ic_misses += 1;
        let Some(&slot) = self.shapes[shape as usize].props.get(name) else {
            // Absent properties stay uncached (no negative caching).
            return Ok(Value::Undefined);
        };
        ic.store(self.ic_epoch, IcState::Prop { shape, slot });
        let raw = machine.mem_read(slots_addr + 8 * u64::from(slot))?;
        self.unbox(NanBox(raw))
    }

    /// Property write `o.name = v`.
    pub fn prop_set(
        &mut self,
        machine: &mut Machine,
        h: ObjHandle,
        name: &JsStr,
        value: &Value,
    ) -> Result<(), EngineError> {
        let boxed = self.box_value(value);
        self.prop_set_slow(machine, h, name, boxed)?;
        Ok(())
    }

    /// Property write through a per-site inline cache.
    ///
    /// An existing-slot hit skips the shape walk; a transition hit skips
    /// the walk *and* the transition lookup but only while the slot fits
    /// the buffer — growth always takes the slow path, so allocation
    /// behavior is identical with and without the cache.
    pub fn prop_set_ic(
        &mut self,
        machine: &mut Machine,
        h: ObjHandle,
        name: &JsStr,
        value: &Value,
        ic: &PropIc,
    ) -> Result<(), EngineError> {
        let boxed = self.box_value(value);
        let data = self.obj(h)?;
        let (shape, slots_addr, slots_cap) = (data.shape, data.slots_addr, data.slots_cap);
        match ic.load(self.ic_epoch) {
            Some(IcState::Prop { shape: cached, slot }) if cached == shape => {
                self.ic_hits += 1;
                machine.mem_write(slots_addr + 8 * u64::from(slot), boxed.0)?;
                return Ok(());
            }
            Some(IcState::PropAdd { from, to, slot }) if from == shape && slot < slots_cap => {
                self.ic_hits += 1;
                // Shape moves before the write, as on the slow path: a
                // faulting write leaves the property present but unset.
                self.obj_mut(h)?.shape = to;
                machine.mem_write(slots_addr + 8 * u64::from(slot), boxed.0)?;
                return Ok(());
            }
            _ => {}
        }
        self.ic_misses += 1;
        let outcome = self.prop_set_slow(machine, h, name, boxed)?;
        ic.store(self.ic_epoch, outcome);
        Ok(())
    }

    /// The uncached property write; returns the cacheable outcome.
    fn prop_set_slow(
        &mut self,
        machine: &mut Machine,
        h: ObjHandle,
        name: &JsStr,
        boxed: NanBox,
    ) -> Result<IcState, EngineError> {
        let data = self.obj(h)?;
        let from = data.shape;
        if let Some(&slot) = self.shapes[from as usize].props.get(name) {
            let addr = data.slots_addr + 8 * u64::from(slot);
            machine.mem_write(addr, boxed.0)?;
            return Ok(IcState::Prop { shape: from, slot });
        }
        // Property add: grow the slot buffer if needed, then transition.
        let slot = self.shapes[from as usize].len;
        if slot >= data.slots_cap {
            let new_cap = (data.slots_cap * 2).max(8);
            let old_addr = data.slots_addr;
            let old_cap = data.slots_cap;
            let new_addr = machine.alloc.untrusted_alloc(8 * u64::from(new_cap))?;
            if old_addr != 0 {
                let mut buf = vec![0u8; 8 * old_cap as usize];
                {
                    let mut space = machine.space.lock();
                    // Both buffers are live M_U allocations.
                    space.read_supervisor(old_addr, &mut buf).expect("live buffer");
                    space.write_supervisor(new_addr, &buf).expect("live buffer");
                }
                machine.alloc.dealloc(old_addr)?;
            }
            let data = self.obj_mut(h)?;
            data.slots_addr = new_addr;
            data.slots_cap = new_cap;
        }
        let to = self.transition(from, name);
        self.obj_mut(h)?.shape = to;
        let addr = self.obj(h)?.slots_addr + 8 * u64::from(slot);
        machine.mem_write(addr, boxed.0)?;
        Ok(IcState::PropAdd { from, to, slot })
    }

    /// The object's own property names (insertion-unordered).
    pub fn prop_names(&self, h: ObjHandle) -> Result<Vec<JsStr>, EngineError> {
        let shape = &self.shapes[self.obj(h)?.shape as usize];
        let mut names: Vec<(u32, JsStr)> =
            shape.props.iter().map(|(k, &v)| (v, k.clone())).collect();
        names.sort_by_key(|(slot, _)| *slot);
        Ok(names.into_iter().map(|(_, n)| n).collect())
    }

    /// Whether the object has an own property `name`.
    pub fn has_prop(&self, h: ObjHandle, name: &str) -> Result<bool, EngineError> {
        Ok(self.shapes[self.obj(h)?.shape as usize].props.contains_key(name))
    }

    /// The base address of an object's property-slot buffer (0 = none
    /// yet); test support for re-keying the page under a cached site.
    pub fn slots_base(&self, h: ObjHandle) -> Result<u64, EngineError> {
        Ok(self.obj(h)?.slots_addr)
    }

    /// The address of an array's first element (debug intrinsic support).
    pub fn elems_base(&self, h: ObjHandle) -> Result<u64, EngineError> {
        let data = self.obj(h)?;
        if data.kind != ObjKind::Array {
            return Err(EngineError::Type("not an array".into()));
        }
        Ok(data.elems_addr + ARRAY_HEADER)
    }

    /// Interns a string, returning its handle.
    pub fn intern_string(&mut self, s: &JsStr) -> u32 {
        if let Some(&i) = self.string_index.get(s) {
            return i;
        }
        let i = self.strings.len() as u32;
        self.strings.push(s.clone());
        self.string_index.insert(s.clone(), i);
        i
    }

    /// Interns a name, returning its symbol (allocates only on first use).
    pub fn intern_name(&mut self, name: &str) -> Sym {
        match self.string_index.get(name) {
            Some(&i) => Sym(i),
            None => Sym(self.intern_string(&name.into())),
        }
    }

    /// The symbol of an already-interned name, without interning it.
    pub fn lookup_name(&self, name: &str) -> Option<Sym> {
        self.string_index.get(name).map(|&i| Sym(i))
    }

    /// The text of an interned name.
    pub fn name(&self, sym: Sym) -> &JsStr {
        &self.strings[sym.0 as usize]
    }

    /// Wraps text the evaluator just built, counting its bytes as copied.
    pub fn new_str(&mut self, text: impl Into<Box<str>>) -> JsStr {
        let text = text.into();
        self.string_bytes_copied += text.len() as u64;
        JsStr::from(text)
    }

    /// The one-character string `c`: shared from the ASCII table, so only
    /// a non-ASCII character allocates (and counts as copied).
    pub fn char_str(&mut self, c: char) -> JsStr {
        match self.ascii.get(c) {
            Some(s) => s,
            None => self.new_str(c.to_string()),
        }
    }

    /// How many strings the table holds.
    #[cfg(test)]
    pub(crate) fn string_count(&self) -> usize {
        self.strings.len()
    }

    /// The global slot of `name`, numbering it on first use.
    pub(crate) fn global_slot(&mut self, name: Sym) -> u32 {
        let next = self.globals.len() as u32;
        let slot = *self.global_slots.entry(name).or_insert(next);
        if slot == next {
            self.globals.push(None);
        }
        slot
    }

    /// The value bound in global slot `slot`, if any.
    #[inline]
    pub(crate) fn global(&self, slot: u32) -> Option<Value> {
        self.global_ref(slot).cloned()
    }

    /// The value bound in global slot `slot`, borrowed.
    #[inline]
    pub(crate) fn global_ref(&self, slot: u32) -> Option<&Value> {
        self.globals[slot as usize].as_ref()
    }

    /// Binds global slot `slot`.
    #[inline]
    pub(crate) fn set_global(&mut self, slot: u32, value: Value) {
        self.globals[slot as usize] = Some(value);
    }

    /// The value bound to global `name`, if any (the end of every by-name
    /// walk).
    pub(crate) fn global_by_name(&self, name: Sym) -> Option<Value> {
        self.global(*self.global_slots.get(&name)?)
    }

    /// How many globals are bound.
    #[cfg(test)]
    pub(crate) fn bound_globals(&self) -> usize {
        self.globals.iter().filter(|v| v.is_some()).count()
    }

    /// Registers a closure of `def` over `env`, returning its handle.
    pub fn add_closure(&mut self, def: Rc<FuncDef>, env: Rc<Env>) -> FunHandle {
        let index = self.closures.len() as u32;
        let gen = next_gen(&mut self.fun_gens, index);
        self.closures.push(Closure { def, env });
        FunHandle { index, gen }
    }

    /// Looks up a closure.
    #[inline]
    pub fn closure(&self, h: FunHandle) -> Result<&Closure, EngineError> {
        match self.closures.get(h.index as usize) {
            Some(closure) if self.fun_gens[h.index as usize] == h.gen => Ok(closure),
            _ => Err(EngineError::StaleHandle("function")),
        }
    }

    /// Registers (or reuses) a host-reference index for `(addr, class)`.
    pub fn hostref_index(&mut self, addr: u64, class: HostClassId) -> u64 {
        if let Some(&i) = self.hostref_index.get(&(addr, class.0)) {
            return i;
        }
        let i = self.hostrefs.len() as u64;
        self.hostrefs.push((addr, class));
        self.hostref_index.insert((addr, class.0), i);
        i
    }

    /// A checkpoint at the current state: what [`Heap::rewind`] goes
    /// back to.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            objects: self.objects.len() as u32,
            closures: self.closures.len() as u32,
            globals: self.globals.clone(),
        }
    }

    /// Goes back to `cp`: drops every object and closure made after it,
    /// hands the dropped objects' slot and element buffers back to
    /// `machine`'s allocator, and restores the global slots (slots
    /// numbered after it become unbound; the table never shrinks, since
    /// cached programs hold slot numbers). Strings, shapes, host
    /// references and inline caches are kept: none of them names an
    /// object or a closure.
    ///
    /// First it scans every root older than `cp` for a handle made after
    /// it: the property slots and elements of old objects, the frames old
    /// closures captured, and `roots`, the values the embedder holds. If
    /// it finds one, or a dropped slot's generation is spent, it changes
    /// nothing, moves `cp` to the current state (a promotion: later
    /// rewinds still reclaim, and no handle ever dangles) and returns why.
    ///
    /// The scan reads `M_U` through the rights-checked machine and the
    /// frees touch only `M_U` chunk tags, so a rewind needs no `M_T`
    /// access and no gate crossing.
    pub fn rewind<'r>(
        &mut self,
        machine: &mut Machine,
        cp: &mut Checkpoint,
        roots: impl IntoIterator<Item = &'r Value>,
    ) -> Rewind {
        let (objects, closures) = (cp.objects as usize, cp.closures as usize);
        let grew = self.objects.len() > objects || self.closures.len() > closures;
        if grew {
            if let Err(refusal) = self.may_rewind(machine, cp, roots) {
                self.rewinds_refused += 1;
                *cp = self.checkpoint();
                return Rewind::Refused(refusal);
            }
        }
        let dropped_objects = bump_gens(&mut self.obj_gens, objects, self.objects.len());
        let dropped_closures = bump_gens(&mut self.fun_gens, closures, self.closures.len());
        self.closures.truncate(closures);
        let (mut freed, mut leaked) = (0, 0);
        // Newest first, so buffers at the top of the heap go back to its
        // wilderness.
        for data in self.objects.drain(objects..).rev() {
            for addr in [data.slots_addr, data.elems_addr] {
                if addr == 0 {
                    continue;
                }
                match machine.alloc.dealloc(addr) {
                    Ok(()) => freed += 1,
                    Err(_) => leaked += 1,
                }
            }
        }
        let (kept, added) = self.globals.split_at_mut(cp.globals.len());
        kept.clone_from_slice(&cp.globals);
        added.fill(None);
        self.rewinds += 1;
        self.rewind_leaks += u64::from(leaked);
        Rewind::Rewound { objects: dropped_objects, closures: dropped_closures, freed, leaked }
    }

    /// Whether the heap may go back to `cp`: no root older than it holds
    /// a handle made after it, and no dropped slot's generation is spent.
    /// Reads no engine counter.
    fn may_rewind<'r>(
        &self,
        machine: &mut Machine,
        cp: &Checkpoint,
        roots: impl IntoIterator<Item = &'r Value>,
    ) -> Result<(), Refusal> {
        let newer = |raw: NanBox| match raw.decode() {
            DecodedBox::Obj(i) => i >= cp.objects,
            DecodedBox::Fun(i) => i >= cp.closures,
            _ => false,
        };
        for (i, data) in self.objects[..cp.objects as usize].iter().enumerate() {
            let index = i as u32;
            let mut read = |addr| machine.mem_read(addr).map_err(|_| Refusal::Unscannable(index));
            let escaped = Refusal::Escaped(Root::Object(index));
            for slot in 0..u64::from(self.shapes[data.shape as usize].len) {
                if newer(NanBox(read(data.slots_addr + 8 * slot)?)) {
                    return Err(escaped);
                }
            }
            if data.kind == ObjKind::Array {
                // The whole buffer, not just up to the length: a length
                // raise exposes what lies past it.
                let cap = read(data.elems_addr + 8)?;
                if cap > MAX_ARRAY_LEN {
                    return Err(Refusal::Unscannable(index));
                }
                for e in 0..cap {
                    if newer(NanBox(read(data.elems_addr + ARRAY_HEADER + 8 * e)?)) {
                        return Err(escaped);
                    }
                }
            }
        }
        let newer_value = |v: &Value| match v {
            Value::Obj(h) => h.index >= cp.objects,
            Value::Fun(h) => h.index >= cp.closures,
            _ => false,
        };
        // Closures share frames (every top-level closure captures the
        // root), so each frame is scanned once.
        let mut seen: HashSet<*const Env> = HashSet::new();
        for (i, closure) in self.closures[..cp.closures as usize].iter().enumerate() {
            let mut frame = Some(&*closure.env);
            while let Some(env) = frame {
                if !seen.insert(env) {
                    break;
                }
                if env.values().iter().flatten().any(newer_value) {
                    return Err(Refusal::Escaped(Root::Closure(i as u32)));
                }
                frame = env.parent();
            }
        }
        if roots.into_iter().any(newer_value) {
            return Err(Refusal::Escaped(Root::Embedder));
        }
        let spent = |gens: &[u32]| gens.contains(&u32::MAX);
        if spent(&self.obj_gens[cp.objects as usize..self.objects.len()])
            || spent(&self.fun_gens[cp.closures as usize..self.closures.len()])
        {
            return Err(Refusal::GenerationExhausted);
        }
        Ok(())
    }

    /// Encodes an interpreter value for storage in simulated memory.
    pub fn box_value(&mut self, value: &Value) -> NanBox {
        match value {
            Value::Str(s) => NanBox::from_str_handle(self.intern_string(s)),
            other => NanBox::from_value(other, |addr, class| self.hostref_index(addr, class)),
        }
    }

    /// Decodes a stored value; forged handles fail safely.
    pub fn unbox(&self, raw: NanBox) -> Result<Value, EngineError> {
        Ok(match raw.decode() {
            DecodedBox::Num(n) => Value::Num(n),
            DecodedBox::Bool(b) => Value::Bool(b),
            DecodedBox::Null => Value::Null,
            DecodedBox::Undefined => Value::Undefined,
            // A boxed handle is a bare index: the rewind's root scan
            // proves no stored one outlives its slot, so it names the
            // slot's current generation.
            DecodedBox::Obj(i) if (i as usize) < self.objects.len() => {
                Value::Obj(ObjHandle { index: i, gen: self.obj_gens[i as usize] })
            }
            DecodedBox::Obj(_) => {
                return Err(EngineError::Type("corrupted object reference".into()))
            }
            DecodedBox::Str(i) => match self.strings.get(i as usize) {
                Some(s) => Value::Str(s.clone()),
                None => return Err(EngineError::Type("corrupted string reference".into())),
            },
            DecodedBox::Fun(i) if (i as usize) < self.closures.len() => {
                Value::Fun(FunHandle { index: i, gen: self.fun_gens[i as usize] })
            }
            DecodedBox::Fun(_) => {
                return Err(EngineError::Type("corrupted function reference".into()))
            }
            DecodedBox::Native(i) => Value::Native(i),
            DecodedBox::HostRef(i) => match self.hostrefs.get(i as usize) {
                Some(&(addr, class)) => Value::HostRef { addr, class },
                None => return Err(EngineError::Type("corrupted host reference".into())),
            },
        })
    }
}

/// Sets the length header of the array buffer at `addr` to `len`, first
/// writing `undefined` into the elements a shrink vacates, so that no
/// element past the length keeps a value: a later length raise reads
/// `undefined`, as in JS. A header the length bug corrupted (length past
/// capacity) bounds nothing, so then the buffer is left as it is.
fn set_len(machine: &mut Machine, addr: u64, len: u64) -> Result<(), EngineError> {
    let old = machine.mem_read(addr)?;
    if len < old && old <= machine.mem_read(addr + 8)? {
        clear_elems(machine, addr, len, old)?;
    }
    Ok(machine.mem_write(addr, len)?)
}

/// Writes `undefined` into elements `from..to` of the array buffer at
/// `addr`: the part of a new buffer no element was copied into holds
/// whatever the reused `M_U` chunk held before.
fn clear_elems(machine: &mut Machine, addr: u64, from: u64, to: u64) -> Result<(), EngineError> {
    for e in from..to {
        machine.mem_write(addr + ARRAY_HEADER + 8 * e, NanBox::UNDEFINED.0)?;
    }
    Ok(())
}

/// The generation of table slot `index`, which is the next slot: a slot
/// used before keeps the generation its last rewind gave it, a new one
/// starts at 0.
fn next_gen(gens: &mut Vec<u32>, index: u32) -> u32 {
    match gens.get(index as usize) {
        Some(&gen) => gen,
        None => {
            gens.push(0);
            0
        }
    }
}

/// Moves table slots `kept..len` to their next generation (the rewind
/// checked that none is spent), returning how many there are.
fn bump_gens(gens: &mut [u32], kept: usize, len: usize) -> u32 {
    for gen in &mut gens[kept..len] {
        *gen += 1;
    }
    (len - kept) as u32
}

/// A point [`Heap::rewind`] goes back to: the lengths of the object and
/// closure tables, and the values of the global slots.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    objects: u32,
    closures: u32,
    globals: Vec<Option<Value>>,
}

impl Checkpoint {
    /// How many objects are older than the checkpoint.
    pub fn objects(&self) -> usize {
        self.objects as usize
    }

    /// How many closures are older than the checkpoint.
    pub fn closures(&self) -> usize {
        self.closures as usize
    }
}

/// What [`Heap::rewind`] did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rewind {
    /// The heap is back at its checkpoint.
    Rewound {
        /// Objects dropped.
        objects: u32,
        /// Closures dropped.
        closures: u32,
        /// Slot and element buffers handed back to the allocator.
        freed: u32,
        /// Buffers the allocator refused to take back (their chunk tags
        /// in `M_U` were overwritten), left allocated.
        leaked: u32,
    },
    /// Nothing changed but the checkpoint, which moved to the current
    /// state.
    Refused(Refusal),
}

/// Why [`Heap::rewind`] refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Refusal {
    /// A root older than the checkpoint holds a handle made after it.
    Escaped(Root),
    /// The storage of the old object with this index could not be
    /// scanned: a read faulted, or its array header claims a capacity no
    /// array can have.
    Unscannable(u32),
    /// A dropped slot is at its last generation; reusing it would wrap.
    GenerationExhausted,
}

/// Where [`Heap::rewind`] found a handle newer than its checkpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Root {
    /// A property slot or element of the old object with this index.
    Object(u32),
    /// A frame that the old closure with this index captured.
    Closure(u32),
    /// A value the embedder holds.
    Embedder,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::{FaultPolicy, Machine};

    fn setup() -> (Machine, Heap) {
        (Machine::split(FaultPolicy::Crash).unwrap(), Heap::new())
    }

    #[test]
    fn array_roundtrip() {
        let (mut m, mut heap) = setup();
        let a = heap
            .new_array(&mut m, &[Value::Num(1.5), Value::Str("hi".into()), Value::Bool(true)])
            .unwrap();
        assert_eq!(heap.array_len(&mut m, a).unwrap(), 3);
        assert!(matches!(heap.elem_get(&mut m, a, 0.0).unwrap(), Value::Num(n) if n == 1.5));
        assert!(
            matches!(heap.elem_get(&mut m, a, 1.0).unwrap(), Value::Str(ref s) if &**s == "hi")
        );
        assert!(matches!(heap.elem_get(&mut m, a, 2.0).unwrap(), Value::Bool(true)));
        assert!(matches!(heap.elem_get(&mut m, a, 3.0).unwrap(), Value::Undefined));
        assert!(matches!(heap.elem_get(&mut m, a, -1.0).unwrap(), Value::Undefined));
    }

    #[test]
    fn array_growth_preserves_elements() {
        let (mut m, mut heap) = setup();
        let a = heap.new_array(&mut m, &[]).unwrap();
        for i in 0..100 {
            heap.elem_set(&mut m, a, i as f64, &Value::Num(i as f64 * 2.0)).unwrap();
        }
        assert_eq!(heap.array_len(&mut m, a).unwrap(), 100);
        for i in 0..100 {
            match heap.elem_get(&mut m, a, i as f64).unwrap() {
                Value::Num(n) => assert_eq!(n, i as f64 * 2.0),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn push_pop() {
        let (mut m, mut heap) = setup();
        let a = heap.new_array(&mut m, &[]).unwrap();
        assert_eq!(heap.array_push(&mut m, a, &Value::Num(1.0)).unwrap(), 1);
        assert_eq!(heap.array_push(&mut m, a, &Value::Num(2.0)).unwrap(), 2);
        assert!(matches!(heap.array_pop(&mut m, a).unwrap(), Value::Num(n) if n == 2.0));
        assert_eq!(heap.array_len(&mut m, a).unwrap(), 1);
        heap.array_pop(&mut m, a).unwrap();
        assert!(matches!(heap.array_pop(&mut m, a).unwrap(), Value::Undefined));
    }

    #[test]
    fn properties_roundtrip_and_grow() {
        let (mut m, mut heap) = setup();
        let o = heap.new_object();
        for i in 0..20 {
            let name: JsStr = format!("k{i}").into();
            heap.prop_set(&mut m, o, &name, &Value::Num(i as f64)).unwrap();
        }
        for i in 0..20 {
            match heap.prop_get(&mut m, o, &format!("k{i}")).unwrap() {
                Value::Num(n) => assert_eq!(n, i as f64),
                other => panic!("{other:?}"),
            }
        }
        assert!(matches!(heap.prop_get(&mut m, o, "missing").unwrap(), Value::Undefined));
        assert_eq!(heap.prop_names(o).unwrap().len(), 20);
    }

    #[test]
    fn vulnerable_length_setter_permits_oob() {
        let (mut m, mut heap) = setup();
        let a = heap.new_array(&mut m, &[Value::Num(1.0)]).unwrap();
        // Corrupt the length far past capacity.
        heap.array_set_len(&mut m, a, 1000.0).unwrap();
        assert_eq!(heap.array_len(&mut m, a).unwrap(), 1000);
        // OOB read within M_U succeeds (adjacent heap memory).
        assert!(heap.elem_get(&mut m, a, 500.0).is_ok());
    }

    #[test]
    fn patched_length_setter_reallocates() {
        let (mut m, mut heap) = setup();
        heap.vulnerable = false;
        let a = heap.new_array(&mut m, &[Value::Num(7.0)]).unwrap();
        heap.array_set_len(&mut m, a, 1000.0).unwrap();
        assert_eq!(heap.array_len(&mut m, a).unwrap(), 1000);
        // Element 999 is within the (reallocated) buffer and reads as the
        // hole it is; element 0 survived the move.
        assert!(matches!(heap.elem_get(&mut m, a, 0.0).unwrap(), Value::Num(n) if n == 7.0));
        assert!(matches!(heap.elem_get(&mut m, a, 999.0).unwrap(), Value::Undefined));
    }

    #[test]
    fn oob_write_to_trusted_memory_faults_under_untrusted_pkru() {
        let (mut m, mut heap) = setup();
        // A trusted secret the engine should never reach.
        let secret = m.alloc.alloc(64).unwrap();
        m.mem_write(secret, 42).unwrap();
        let a = heap.new_array(&mut m, &[Value::Num(1.0)]).unwrap();
        let base = {
            // elems_addr + header is element 0.
            heap.obj(a).unwrap().elems_addr + ARRAY_HEADER
        };
        heap.array_set_len(&mut m, a, 1e15).unwrap();
        let index = ((secret.wrapping_sub(base)) / 8) as f64;
        // With trusted rights (no gate), the OOB write lands.
        heap.elem_set(&mut m, a, index, &Value::Num(1337.0)).unwrap();
        assert_eq!(m.mem_read(secret).unwrap(), 1337.0_f64.to_bits());
        // Behind the call gate, the same write is an MPK violation.
        m.gates.enter_untrusted(&mut m.cpu).unwrap();
        let err = heap.elem_set(&mut m, a, index, &Value::Num(9.0)).unwrap_err();
        assert!(err.is_pkey_violation(), "{err}");
    }

    #[test]
    fn rewind_refuses_a_spent_generation_instead_of_wrapping() {
        let (mut m, mut heap) = setup();
        let mut cp = heap.checkpoint();
        let h = heap.new_object();
        assert!(matches!(heap.rewind(&mut m, &mut cp, []), Rewind::Rewound { objects: 1, .. }));
        let h2 = heap.new_object();
        assert_eq!((h2.index, h2.gen), (h.index, 1));
        assert_eq!(heap.shape_of(h).unwrap_err().to_string(), "TypeError: stale object handle");
        // The slot's last generation: reusing it once more would wrap.
        heap.obj_gens[0] = u32::MAX;
        let rewind = heap.rewind(&mut m, &mut cp, []);
        assert_eq!(rewind, Rewind::Refused(Refusal::GenerationExhausted));
        assert_eq!(cp.objects(), 1, "promoted");
        assert_eq!(heap.obj_gens[0], u32::MAX);
    }

    #[test]
    fn rewind_refuses_an_old_array_whose_header_cannot_be_scanned() {
        let (mut m, mut heap) = setup();
        let a = heap.new_array(&mut m, &[Value::Num(1.0)]).unwrap();
        let mut cp = heap.checkpoint();
        heap.new_object();
        // A capacity no array can have (only memory corruption writes it).
        m.mem_write(heap.obj(a).unwrap().elems_addr + 8, MAX_ARRAY_LEN + 1).unwrap();
        let rewind = heap.rewind(&mut m, &mut cp, []);
        assert_eq!(rewind, Rewind::Refused(Refusal::Unscannable(a.index)));
        assert_eq!((heap.rewinds, heap.rewinds_refused), (0, 1));
    }

    #[test]
    fn forged_handles_fail_safely() {
        let heap = Heap::new();
        let forged = NanBox::from_str_handle(99);
        assert!(matches!(heap.unbox(forged), Err(EngineError::Type(_))));
    }
}
