//! NaN-boxed value encoding for simulated-memory storage.
//!
//! Interpreter values are a Rust enum; when a value is stored into an
//! array element or object slot (which live in simulated `M_U`), it is
//! encoded into a single `u64` the way real engines do: ordinary doubles
//! are stored as their bit pattern, and everything else is packed into the
//! unused quiet-NaN payload space. Tags live in the top 16 bits above
//! `0xFFF8` (a range no canonical hardware NaN produces), and payloads use
//! the low 48 bits.

use crate::{heap::HostClassId, Value};

/// Tag values in the top 16 bits of a boxed non-double.
const TAG_SPECIAL: u64 = 0xFFF9; // undefined / null / bool
const TAG_OBJ: u64 = 0xFFFA;
const TAG_STR: u64 = 0xFFFB;
const TAG_FUN: u64 = 0xFFFC;
const TAG_NATIVE: u64 = 0xFFFD;
const TAG_HOSTREF: u64 = 0xFFFE;

const PAYLOAD_MASK: u64 = 0x0000_FFFF_FFFF_FFFF;

const SPECIAL_UNDEFINED: u64 = 0;
const SPECIAL_NULL: u64 = 1;
const SPECIAL_FALSE: u64 = 2;
const SPECIAL_TRUE: u64 = 3;

/// A NaN-boxed value as stored in simulated memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NanBox(pub u64);

impl NanBox {
    /// The boxed representation of `undefined` (all-zero memory decodes to
    /// a `0.0` double, so `undefined` is explicit).
    pub const UNDEFINED: NanBox = NanBox(pack(TAG_SPECIAL, SPECIAL_UNDEFINED));

    /// Encodes an interpreter value.
    ///
    /// Host references carry a 32-bit class ID and only the low 16 bits of
    /// their address payload... host refs are encoded via a side index
    /// instead: see [`NanBox::from_value`] callers. Plain doubles that
    /// happen to collide with the tag space (only possible for hand-crafted
    /// NaNs) are canonicalized first.
    pub fn from_value(
        value: &Value,
        hostref_index: impl FnOnce(u64, HostClassId) -> u64,
    ) -> NanBox {
        match value {
            Value::Num(n) => {
                let bits = n.to_bits();
                if bits >= (TAG_SPECIAL << 48) {
                    // A non-canonical NaN colliding with tag space.
                    NanBox(f64::NAN.to_bits())
                } else {
                    NanBox(bits)
                }
            }
            Value::Bool(true) => NanBox(pack(TAG_SPECIAL, SPECIAL_TRUE)),
            Value::Bool(false) => NanBox(pack(TAG_SPECIAL, SPECIAL_FALSE)),
            Value::Null => NanBox(pack(TAG_SPECIAL, SPECIAL_NULL)),
            Value::Undefined => NanBox::UNDEFINED,
            Value::Str(_) => unreachable!("strings are boxed via Heap::box_value"),
            Value::Obj(h) => NanBox(pack(TAG_OBJ, u64::from(h.index()))),
            Value::Fun(h) => NanBox(pack(TAG_FUN, u64::from(h.index()))),
            Value::Native(h) => NanBox(pack(TAG_NATIVE, u64::from(*h))),
            Value::HostRef { addr, class } => {
                NanBox(pack(TAG_HOSTREF, hostref_index(*addr, *class)))
            }
        }
    }

    /// Encodes a string handle.
    pub fn from_str_handle(handle: u32) -> NanBox {
        NanBox(pack(TAG_STR, u64::from(handle)))
    }

    /// Decodes the raw tag, if this is a boxed non-double.
    pub fn tag(self) -> Option<u64> {
        let t = self.0 >> 48;
        (t >= TAG_SPECIAL).then_some(t)
    }

    /// The 48-bit payload.
    pub fn payload(self) -> u64 {
        self.0 & PAYLOAD_MASK
    }

    /// Decodes into a [`DecodedBox`].
    pub fn decode(self) -> DecodedBox {
        match self.tag() {
            None => DecodedBox::Num(f64::from_bits(self.0)),
            Some(TAG_SPECIAL) => match self.payload() {
                SPECIAL_NULL => DecodedBox::Null,
                SPECIAL_FALSE => DecodedBox::Bool(false),
                SPECIAL_TRUE => DecodedBox::Bool(true),
                _ => DecodedBox::Undefined,
            },
            Some(TAG_OBJ) => DecodedBox::Obj(self.payload() as u32),
            Some(TAG_STR) => DecodedBox::Str(self.payload() as u32),
            Some(TAG_FUN) => DecodedBox::Fun(self.payload() as u32),
            Some(TAG_NATIVE) => DecodedBox::Native(self.payload() as u32),
            Some(TAG_HOSTREF) => DecodedBox::HostRef(self.payload()),
            // Unknown tags (forged by memory corruption) decode to the NaN
            // they are: the engine stays memory-safe.
            Some(_) => DecodedBox::Num(f64::from_bits(self.0)),
        }
    }
}

const fn pack(tag: u64, payload: u64) -> u64 {
    (tag << 48) | (payload & PAYLOAD_MASK)
}

/// The decoded form of a boxed value; handles are still raw indices that
/// the heap validates on use.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum DecodedBox {
    /// A double.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// `undefined`.
    Undefined,
    /// Object-table index.
    Obj(u32),
    /// String-table index.
    Str(u32),
    /// Closure-table index.
    Fun(u32),
    /// Native-table index.
    Native(u32),
    /// Host-reference-table index.
    HostRef(u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{FunHandle, ObjHandle};

    fn no_hostref(_: u64, _: HostClassId) -> u64 {
        panic!("no hostref expected")
    }

    #[test]
    fn doubles_roundtrip_bit_exact() {
        for n in [0.0, -0.0, 1.5, -12345.678, f64::MAX, f64::MIN_POSITIVE, 1e308] {
            let b = NanBox::from_value(&Value::Num(n), no_hostref);
            match b.decode() {
                DecodedBox::Num(m) => assert_eq!(m.to_bits(), n.to_bits()),
                other => panic!("{other:?}"),
            }
        }
        // NaN round-trips as NaN.
        let b = NanBox::from_value(&Value::Num(f64::NAN), no_hostref);
        assert!(matches!(b.decode(), DecodedBox::Num(n) if n.is_nan()));
    }

    #[test]
    fn specials_roundtrip() {
        assert_eq!(NanBox::from_value(&Value::Null, no_hostref).decode(), DecodedBox::Null);
        assert_eq!(
            NanBox::from_value(&Value::Undefined, no_hostref).decode(),
            DecodedBox::Undefined
        );
        assert_eq!(
            NanBox::from_value(&Value::Bool(true), no_hostref).decode(),
            DecodedBox::Bool(true)
        );
        assert_eq!(
            NanBox::from_value(&Value::Bool(false), no_hostref).decode(),
            DecodedBox::Bool(false)
        );
    }

    #[test]
    fn handles_roundtrip() {
        // A box keeps the bare index, whatever the handle's generation.
        let b = NanBox::from_value(&Value::Obj(ObjHandle::at(7, 2)), no_hostref);
        assert_eq!(b.decode(), DecodedBox::Obj(7));
        let b = NanBox::from_str_handle(9);
        assert_eq!(b.decode(), DecodedBox::Str(9));
        let b = NanBox::from_value(&Value::Fun(FunHandle::at(3, 1)), no_hostref);
        assert_eq!(b.decode(), DecodedBox::Fun(3));
    }

    #[test]
    fn zero_memory_is_the_double_zero() {
        // Demand-zero pages decode as 0.0, matching engines that zero-fill.
        assert_eq!(NanBox(0).decode(), DecodedBox::Num(0.0));
    }

    #[test]
    fn forged_nan_payloads_stay_numbers_or_decode_safely() {
        // A hand-crafted NaN in the tag space is canonicalized on encode.
        let evil = f64::from_bits(pack(TAG_OBJ, 123));
        let b = NanBox::from_value(&Value::Num(evil), no_hostref);
        assert!(matches!(b.decode(), DecodedBox::Num(n) if n.is_nan()));
    }
}
