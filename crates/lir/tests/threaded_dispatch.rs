//! The threaded interpreter's public surface: a decoded stream reused
//! across runs, and the machine's fused page-run memory ops pinned
//! against the per-byte accessors. (The op stream's bit-identity with
//! the legacy match loop is pinned by the `interp` unit tests, where
//! that loop lives.)

use lir::{parse_module, FaultPolicy, Machine, ThreadedModule, Trap};

#[test]
fn decode_once_run_many_reuses_the_stream() {
    let module = parse_module(
        "fn @f(1) {\nbb0:\n  %1 = eq %0, 0\n  brif %1, bb1, bb2\nbb1:\n  ret 0\nbb2:\n  %2 = sub %0, 1\n  %3 = call @f(%2)\n  ret %3\n}",
    )
    .unwrap();
    let threaded = ThreadedModule::decode(&module);
    for n in [0, 1, 17, 60] {
        let mut machine = Machine::split(FaultPolicy::Crash).unwrap();
        let result = threaded.run(&module, &mut machine, "f", &[n]);
        assert_eq!(result, Ok(Some(0)), "n={n}");
    }
}

#[test]
fn bulk_memory_ops_match_per_byte_lane() {
    // Fused page-run reads/writes must be byte-identical to the per-byte
    // accessors, including across page boundaries.
    let pattern: Vec<u8> = (0..9000u32).map(|i| (i * 31 % 251) as u8).collect();

    let mut fused = Machine::split(FaultPolicy::Crash).unwrap();
    let p = fused.alloc.alloc(pattern.len() as u64).unwrap();
    fused.mem_write_bytes(p, &pattern).unwrap();
    let mut back = vec![0u8; pattern.len()];
    fused.mem_read_bytes(p, &mut back).unwrap();
    assert_eq!(back, pattern);
    assert!(fused.fused_ops > 0, "page runs must fuse");
    // The same bytes, one at a time: a fused write reads back per byte,
    // and a per-byte write reads back fused.
    for (i, &b) in pattern.iter().enumerate() {
        assert_eq!(fused.mem_read_u8(p + i as u64).unwrap(), b, "byte {i}");
    }

    let mut plain = Machine::split(FaultPolicy::Crash).unwrap();
    let q = plain.alloc.alloc(pattern.len() as u64).unwrap();
    for (i, &b) in pattern.iter().enumerate() {
        plain.mem_write_u8(q + i as u64, b).unwrap();
    }
    assert_eq!(plain.fused_ops, 0, "per-byte accessors must not count superinstructions");
    let mut back = vec![0u8; pattern.len()];
    plain.mem_read_bytes(q, &mut back).unwrap();
    assert_eq!(back, pattern);
}

#[test]
fn bulk_memory_ops_still_fault_under_untrusted_rights() {
    // The fused path amortizes the TLB lookup, never the rights check: a
    // compartment without access to M_T must fault on the fused ops
    // exactly as on the per-byte accessors.
    let mut m = Machine::split(FaultPolicy::Crash).unwrap();
    let p = m.alloc.alloc(64).unwrap();
    m.mem_write_bytes(p, &[1, 2, 3, 4]).unwrap();
    m.gates.enter_untrusted(&mut m.cpu).unwrap();
    let mut buf = [0u8; 4];
    let read = m.mem_read_bytes(p, &mut buf);
    assert!(matches!(read, Err(Trap::Fault(ref f)) if f.is_pkey_violation()), "{read:?}");
    let write = m.mem_write_bytes(p, &[9; 4]);
    assert!(matches!(write, Err(Trap::Fault(ref f)) if f.is_pkey_violation()), "{write:?}");
    let read = m.mem_read_u8(p);
    assert!(matches!(read, Err(Trap::Fault(ref f)) if f.is_pkey_violation()), "{read:?}");
    let write = m.mem_write_u8(p, 9);
    assert!(matches!(write, Err(Trap::Fault(ref f)) if f.is_pkey_violation()), "{write:?}");
    m.gates.exit_untrusted(&mut m.cpu).unwrap();
    let mut buf = [0u8; 4];
    m.mem_read_bytes(p, &mut buf).unwrap();
    assert_eq!(buf, [1, 2, 3, 4], "a refused write must leave the bytes as they were");
}
