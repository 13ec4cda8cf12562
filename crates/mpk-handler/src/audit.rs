//! The bounded audit log: one record per serviced violation.

use pkru_mpk::AccessKind;
use pkru_provenance::json::JsonValue;
use pkru_provenance::AllocId;
use pkru_vmem::VirtAddr;

/// Maximum records one handler retains.
///
/// The log is evidence, not a database: under a hostile flood of
/// violations it must not grow the heap without bound. Overflow is
/// counted, not silently dropped.
pub const AUDIT_LOG_CAP: usize = 256;

/// One serviced MPK violation, with its provenance resolved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AuditRecord {
    /// Pool slot of the worker whose compartment faulted.
    pub worker: usize,
    /// Position of this record in the worker's violation stream (0-based,
    /// monotonic across incarnations; survives quarantine respawns).
    pub seq: u64,
    /// The faulting byte address.
    pub addr: VirtAddr,
    /// The protection key tagged on the faulting page.
    pub pkey: u8,
    /// The PKRU value that denied the access.
    pub pkru: u32,
    /// Whether the faulting access was a load or a store.
    pub access: AccessKind,
    /// The allocation site owning the faulting address, if the metadata
    /// table could resolve it (a raw pointer into an untracked object
    /// resolves to `None`).
    pub site: Option<AllocId>,
}

/// The deterministic JSON object for one record.
impl From<AuditRecord> for JsonValue {
    fn from(r: AuditRecord) -> JsonValue {
        JsonValue::object([
            ("worker", r.worker.into()),
            ("seq", r.seq.into()),
            ("addr", r.addr.into()),
            ("pkey", r.pkey.into()),
            ("pkru", r.pkru.into()),
            ("access", r.access.to_string().into()),
            ("site", r.site.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(site: Option<AllocId>) -> AuditRecord {
        AuditRecord {
            worker: 2,
            seq: 5,
            addr: 0x9000_1234,
            pkey: 1,
            pkru: 0x0000_000c,
            access: AccessKind::Read,
            site,
        }
    }

    #[test]
    fn record_json_schema() {
        assert_eq!(
            JsonValue::from(record(Some(AllocId::new(7, 0, 3)))).to_string(),
            "{\"worker\":2,\"seq\":5,\"addr\":2415923764,\"pkey\":1,\"pkru\":12,\
             \"access\":\"read\",\"site\":{\"func\":7,\"block\":0,\"site\":3}}"
        );
        assert_eq!(
            JsonValue::from(record(None)).to_string(),
            "{\"worker\":2,\"seq\":5,\"addr\":2415923764,\"pkey\":1,\"pkru\":12,\
             \"access\":\"read\",\"site\":null}"
        );
    }
}
