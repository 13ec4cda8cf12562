//! Engine errors.

use core::fmt;

use pkalloc::AllocError;
use pkru_gates::GateError;
use pkru_vmem::Fault;

/// Errors raised while parsing or executing script.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// A syntax error with its 1-based line.
    Parse {
        /// The line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A dynamic type error (`TypeError`).
    Type(String),
    /// An unresolved identifier (`ReferenceError`).
    Reference(String),
    /// An out-of-range argument (`RangeError`).
    Range(String),
    /// The engine touched memory it may not access. Under enforcement this
    /// is the MPK violation that terminates the exploit (§5.4).
    MemoryFault(Fault),
    /// A call gate aborted.
    Gate(GateError),
    /// The engine's allocator failed.
    Alloc(AllocError),
    /// The step budget was exhausted (runaway script guard).
    Fuel,
    /// An error thrown by a host function.
    Host(String),
    /// A handle to an object or a closure (named) that a heap rewind
    /// dropped: its slot has moved on to a newer generation.
    StaleHandle(&'static str),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse { line, message } => {
                write!(f, "SyntaxError (line {line}): {message}")
            }
            EngineError::Type(m) => write!(f, "TypeError: {m}"),
            EngineError::Reference(m) => write!(f, "ReferenceError: {m} is not defined"),
            EngineError::Range(m) => write!(f, "RangeError: {m}"),
            EngineError::MemoryFault(fault) => write!(f, "engine crashed: {fault}"),
            EngineError::Gate(e) => write!(f, "gate abort: {e}"),
            EngineError::Alloc(e) => write!(f, "allocation failure: {e}"),
            EngineError::Fuel => write!(f, "script step budget exhausted"),
            EngineError::Host(m) => write!(f, "host error: {m}"),
            EngineError::StaleHandle(kind) => write!(f, "TypeError: stale {kind} handle"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<Fault> for EngineError {
    fn from(f: Fault) -> EngineError {
        EngineError::MemoryFault(f)
    }
}

impl From<GateError> for EngineError {
    fn from(e: GateError) -> EngineError {
        EngineError::Gate(e)
    }
}

impl From<AllocError> for EngineError {
    fn from(e: AllocError) -> EngineError {
        EngineError::Alloc(e)
    }
}

impl From<lir::Trap> for EngineError {
    fn from(t: lir::Trap) -> EngineError {
        match t {
            lir::Trap::Fault(f) => EngineError::MemoryFault(f),
            lir::Trap::Gate(g) => EngineError::Gate(g),
            lir::Trap::Alloc(a) => EngineError::Alloc(a),
            lir::Trap::FuelExhausted => EngineError::Fuel,
            other => EngineError::Host(other.to_string()),
        }
    }
}

impl EngineError {
    /// Whether this error is an MPK violation (the enforcement signal).
    pub fn is_pkey_violation(&self) -> bool {
        matches!(self, EngineError::MemoryFault(f) if f.is_pkey_violation())
    }
}
