//! Software model of Intel Memory Protection Keys for Userspace (PKU).
//!
//! PKRU-Safe (EuroSys 2022) enforces compartment boundaries with Intel MPK:
//! every user page carries one of 16 *protection keys*, and the per-thread
//! `PKRU` register holds two rights bits per key — *access disable* (AD) and
//! *write disable* (WD). A load is permitted only if the AD bit for the
//! page's key is clear; a store additionally requires the WD bit to be
//! clear. The `WRPKRU` instruction updates the register without a syscall,
//! which is what makes MPK-based call gates cheap.
//!
//! This crate models that architecture exactly — key space, rights-bit
//! layout, register semantics, and the key-allocation interface the kernel
//! exposes (`pkey_alloc`/`pkey_free`) — so that the rest of the system can
//! be built and evaluated without MPK hardware. See `DESIGN.md` for the
//! substitution rationale.

mod cpu;
mod pkey;
mod pkru;
mod revoke;
mod shared;

pub use cpu::Cpu;
pub use pkey::{AccessKind, Pkey, PkeyRights, MAX_PKEYS};
pub use pkru::Pkru;
pub use revoke::{LeaseStamp, RevocationBarrier, WorkerEpoch};
pub use shared::{PkeyPoolError, SharedPkeyPool};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pkru_allows_key0_only_like_linux() {
        // Linux initializes PKRU to 0x5555_5554: all keys but key 0 are
        // access-disabled.
        let pkru = Pkru::linux_default();
        assert!(pkru.allows(Pkey::DEFAULT, AccessKind::Read));
        assert!(pkru.allows(Pkey::DEFAULT, AccessKind::Write));
        for k in 1..MAX_PKEYS {
            let key = Pkey::new(k).unwrap();
            assert!(!pkru.allows(key, AccessKind::Read));
            assert!(!pkru.allows(key, AccessKind::Write));
        }
    }

    #[test]
    fn wrpkru_roundtrip() {
        let mut cpu = Cpu::new();
        cpu.wrpkru(0xdead_beef & Pkru::VALID_MASK);
        assert_eq!(cpu.rdpkru(), 0xdead_beef & Pkru::VALID_MASK);
    }
}
