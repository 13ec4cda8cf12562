//! `minijs` — the untrusted JavaScript engine (the SpiderMonkey stand-in).
//!
//! Servo's evaluation compartmentalizes the browser against its JavaScript
//! engine: SpiderMonkey is ~unsafe C++, processes attacker-controlled
//! input, and shares the address space with the Rust browser. This crate
//! is that untrusted compartment, built from scratch:
//!
//! - a lexer and parser for a JavaScript subset large enough to run the
//!   benchmark kernels (closures, objects, arrays, strings,
//!   bitwise/`ToInt32` semantics, `Math`/`JSON`/`String` builtins), which
//!   lowers each program once into linear streams of typed ops, and the
//!   one loop that runs them;
//! - engine heap data (array elements, object property slots) lives in the
//!   simulated untrusted pool `M_U`, NaN-boxed, and **every** element
//!   access is rights-checked against the thread's PKRU — so when the
//!   embedder runs the engine behind a call gate, any touch of trusted
//!   memory raises a real MPK violation;
//! - *host classes* let the embedder expose raw structures (DOM nodes) for
//!   direct field access from script — the cross-compartment data flows
//!   PKRU-Safe's profiler must discover;
//! - native host functions (the browser's gated DOM API);
//! - a deliberately planted vulnerability faithful to the CVE-2019-11707
//!   exploit structure (§5.4): the `Array.length` setter fails to clamp,
//!   yielding out-of-bounds indexed access and therefore an arbitrary
//!   read/write primitive over the simulated address space — which MPK
//!   confines to `M_U` under enforcement.
//!
//! The engine is deterministic: `Math.random()` is a seeded LCG and
//! `Date.now()` is a virtual clock, so benchmark workloads are exactly
//! reproducible.

mod ast;
mod engine;
mod error;
mod exec;
mod heap;
mod ic;
mod lexer;
mod lower;
mod nanbox;
mod parser;
mod resolve;
mod string;
#[cfg(test)]
mod walker;

pub use ast::{Expr, FuncDef, Stmt};
pub use engine::{Engine, ExecStats, HostClass, HostElements, HostField, HostFieldKind, NativeFn};
pub use error::EngineError;
pub use exec::Ctx;
pub use heap::{
    Checkpoint, FunHandle, Heap, HostClassId, ObjHandle, ObjKind, Refusal, Rewind, Root, Sym,
};
pub use ic::{IcEntry, IcState, PropIc};
pub use lower::{Code, Program};
pub use nanbox::{DecodedBox, NanBox};
pub use parser::parse_program;
pub use string::JsStr;

/// Engine execution result values.
///
/// Interpreter-level values are a plain enum; the NaN-boxed `u64` form
/// ([`NanBox`]) is used only when values are stored into simulated memory.
#[derive(Clone, Debug)]
pub enum Value {
    /// A double-precision number (every JS number).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// `undefined`.
    Undefined,
    /// An immutable string.
    Str(JsStr),
    /// A heap object (plain object or array) by handle.
    Obj(heap::ObjHandle),
    /// A closure by handle.
    Fun(heap::FunHandle),
    /// A native (host) function by handle.
    Native(u32),
    /// A raw host structure reference (a DOM node pointer, etc.).
    HostRef {
        /// Address of the structure in simulated memory.
        addr: u64,
        /// The host class describing its fields.
        class: heap::HostClassId,
    },
}

impl Value {
    /// JS truthiness.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Bool(b) => *b,
            Value::Null | Value::Undefined => false,
            Value::Str(s) => !s.is_empty(),
            Value::Obj(_) | Value::Fun(_) | Value::Native(_) | Value::HostRef { .. } => true,
        }
    }

    /// The `typeof` string.
    pub fn type_of(&self) -> &'static str {
        match self {
            Value::Num(_) => "number",
            Value::Bool(_) => "boolean",
            Value::Null => "object",
            Value::Undefined => "undefined",
            Value::Str(_) => "string",
            Value::Obj(_) | Value::HostRef { .. } => "object",
            Value::Fun(_) | Value::Native(_) => "function",
        }
    }
}

/// JavaScript `ToInt32` (the bitwise-operator coercion).
pub fn to_int32(n: f64) -> i32 {
    // Below 2^63 in magnitude the truncation to `i64` is exact, and its
    // low 32 bits are the value modulo 2^32; only NaN, the infinities and
    // larger magnitudes need the modular spec path.
    if n.abs() < 9223372036854775808.0 {
        return n as i64 as i32;
    }
    if !n.is_finite() {
        return 0;
    }
    let m = n.trunc() % 4294967296.0;
    let m = if m < 0.0 { m + 4294967296.0 } else { m };
    if m >= 2147483648.0 {
        (m - 4294967296.0) as i32
    } else {
        m as i32
    }
}

/// JavaScript `ToUint32` (for `>>>`).
pub fn to_uint32(n: f64) -> u32 {
    to_int32(n) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_int32_follows_spec() {
        assert_eq!(to_int32(0.0), 0);
        assert_eq!(to_int32(-0.0), 0);
        assert_eq!(to_int32(1.9), 1);
        assert_eq!(to_int32(-1.9), -1);
        assert_eq!(to_int32(f64::NAN), 0);
        assert_eq!(to_int32(f64::INFINITY), 0);
        assert_eq!(to_int32(4294967296.0), 0);
        assert_eq!(to_int32(4294967295.0), -1);
        assert_eq!(to_int32(2147483648.0), i32::MIN);
        assert_eq!(to_int32(-2147483649.0), i32::MAX);
        assert_eq!(to_uint32(-1.0), u32::MAX);
        // Past 2^31 and up to 2^63 the `i64` truncation wraps; beyond it
        // the modular path does.
        assert_eq!(to_int32(3000000000.5), -1294967296);
        assert_eq!(to_int32(-3000000000.5), 1294967296);
        assert_eq!(to_int32(9007199254740993.0), 0);
        assert_eq!(to_int32(-9223372036854775808.0), 0);
        assert_eq!(to_int32(1e20), 1661992960);
        assert_eq!(to_int32(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Num(0.0).truthy());
        assert!(!Value::Num(f64::NAN).truthy());
        assert!(Value::Num(-1.0).truthy());
        assert!(!Value::Str("".into()).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(!Value::Null.truthy());
        assert!(!Value::Undefined.truthy());
        assert!(Value::Bool(true).truthy());
    }
}
