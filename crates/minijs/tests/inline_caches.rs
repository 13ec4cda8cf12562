//! Inline-cache behavior: hit rates, shape polymorphism, epoch
//! invalidation, parity with uncached lookups — and the one property
//! that must never regress: a cache hit still takes the live PKRU check.

use lir::{FaultPolicy, Machine};
use minijs::{Engine, Value};
use pkru_vmem::{page_base, Prot, PAGE_SIZE};

fn setup() -> (Machine, Engine) {
    let mut machine = Machine::split(FaultPolicy::Crash).unwrap();
    let engine = Engine::new(&mut machine).unwrap();
    (machine, engine)
}

#[test]
fn monomorphic_site_hits_after_first_fill() {
    let (mut m, mut e) = setup();
    e.eval(&mut m, "var o = {x: 1, y: 2}; var s = 0;").unwrap();
    let (h0, _) = e.ic_stats();
    e.eval(&mut m, "for (var i = 0; i < 100; i = i + 1) { s = s + o.x + o.y; }").unwrap();
    let (hits, misses) = e.ic_stats();
    // Two member sites, each misses once to fill and hits 99 times.
    assert!(hits - h0 >= 198, "hits {hits}");
    assert!(misses <= 16, "misses {misses}");
    assert!(matches!(e.global("s"), Some(Value::Num(n)) if n == 300.0));
}

#[test]
fn object_literals_share_shapes_through_transitions() {
    let (mut m, mut e) = setup();
    e.eval(
        &mut m,
        "function node(k) { return {key: k, left: null, right: null}; }
         var a = node(1); var b = node(2);",
    )
    .unwrap();
    let (Some(Value::Obj(a)), Some(Value::Obj(b))) = (e.global("a"), e.global("b")) else {
        panic!("nodes not created");
    };
    let heap = e.heap_mut();
    // Same insertion order => hash-consed to the same shape id.
    assert_eq!(heap.shape_of(a).unwrap(), heap.shape_of(b).unwrap());
    // The literal's add-sites hit from the second construction onward —
    // except the first add on each fresh object, which must grow the
    // slot buffer and therefore always takes the slow path.
    let (h0, _) = e.ic_stats();
    e.eval(&mut m, "var c = node(3); var d = node(4);").unwrap();
    let (h1, _) = e.ic_stats();
    assert!(h1 - h0 >= 4, "literal transitions must hit: {}", h1 - h0);
}

#[test]
fn polymorphic_site_stays_correct_across_shape_changes() {
    let (mut m, mut e) = setup();
    // One site alternating between two shapes, plus a shape mutation
    // (property add) mid-run: correctness over cache friendliness.
    e.eval(
        &mut m,
        "var p = {x: 10};
         var q = {y: 1, x: 20};
         var s = 0;
         for (var i = 0; i < 10; i = i + 1) {
           var o = (i % 2 == 0) ? p : q;
           s = s + o.x;
           if (i == 4) { p.z = 99; }
         }",
    )
    .unwrap();
    assert!(matches!(e.global("s"), Some(Value::Num(n)) if n == 150.0));
}

#[test]
fn cached_sites_match_computed_keys() {
    // The same program through member sites (each with its inline cache)
    // and through computed keys (`o['a']`, which no cache serves): same
    // value, same output, same element-access counters. Only hit/miss
    // stats may differ.
    let cached = "
        function mk(i) { return {a: i, b: i * 2, c: 'v' + i}; }
        var objs = [];
        for (var i = 0; i < 20; i = i + 1) { objs.push(mk(i)); }
        var total = 0;
        for (var r = 0; r < 5; r = r + 1) {
          for (var i = 0; i < objs.length; i = i + 1) {
            var o = objs[i];
            o.a = o.a + 1;
            total = total + o.a + o.b;
          }
        }
        __print(JSON.stringify(mk(3)));
    ";
    let computed = "
        function mk(i) { var o = {}; o['a'] = i; o['b'] = i * 2; o['c'] = 'v' + i; return o; }
        var objs = [];
        for (var i = 0; i < 20; i = i + 1) { objs.push(mk(i)); }
        var total = 0;
        for (var r = 0; r < 5; r = r + 1) {
          for (var i = 0; i < objs['length']; i = i + 1) {
            var o = objs[i];
            o['a'] = o['a'] + 1;
            total = total + o['a'] + o['b'];
          }
        }
        __print(JSON['stringify'](mk(3)));
    ";
    let mut results = Vec::new();
    for (program, caches) in [(cached, true), (computed, false)] {
        let (mut m, mut e) = setup();
        e.eval(&mut m, program).unwrap();
        let (hits, misses) = e.ic_stats();
        if caches {
            assert!(hits > 0, "member sites must actually cache");
        } else {
            assert_eq!((hits, misses), (0, 0), "computed keys must never touch a cache");
        }
        results.push((format!("{:?}", e.global("total")), e.take_output(), e.elem_accesses()));
    }
    assert_eq!(results[0], results[1], "the caches changed behavior");
}

#[test]
fn host_class_mutation_bumps_the_epoch() {
    let (mut m, mut e) = setup();
    e.eval(&mut m, "var o = {x: 7}; function probe() { return o.x; }").unwrap();
    e.call(&mut m, "probe", &[]).unwrap();
    let (h0, _) = e.ic_stats();
    assert!(matches!(e.call(&mut m, "probe", &[]).unwrap(), Value::Num(n) if n == 7.0));
    let (h1, m1) = e.ic_stats();
    assert!(h1 > h0, "warm site must hit");
    // Defining a host class invalidates everything (epoch bump): the
    // next probe misses once, refills, then hits again.
    e.define_host_class(minijs::HostClass::new("Widget"));
    assert!(matches!(e.call(&mut m, "probe", &[]).unwrap(), Value::Num(n) if n == 7.0));
    let (_, m2) = e.ic_stats();
    assert!(m2 > m1, "epoch bump must force a refill miss");
    let (h2, _) = e.ic_stats();
    assert!(matches!(e.call(&mut m, "probe", &[]).unwrap(), Value::Num(n) if n == 7.0));
    let (h3, _) = e.ic_stats();
    assert!(h3 > h2, "refilled site must hit again");
}

#[test]
fn cached_site_still_takes_the_live_pkru_check() {
    // The regression the design forbids: caching the *verdict*. Warm a
    // site, then re-key the page under it to the trusted key; with
    // untrusted rights in force the very same cached fast path must
    // fault — the cache may skip the shape walk, never the MMU.
    let (mut m, mut e) = setup();
    e.eval(&mut m, "var o = {x: 41}; function probe() { return o.x; }").unwrap();
    assert!(matches!(e.call(&mut m, "probe", &[]).unwrap(), Value::Num(n) if n == 41.0));
    let (h0, _) = e.ic_stats();
    assert!(matches!(e.call(&mut m, "probe", &[]).unwrap(), Value::Num(n) if n == 41.0));
    let (h1, _) = e.ic_stats();
    assert!(h1 > h0, "probe site must be warm before the re-key");

    // Move the slot page from M_U to the trusted key.
    let Some(Value::Obj(o)) = e.global("o") else { panic!("o missing") };
    let slots = e.heap_mut().slots_base(o).unwrap();
    assert_ne!(slots, 0);
    m.space.pkey_mprotect(page_base(slots), PAGE_SIZE, Prot::READ_WRITE, m.trusted_pkey()).unwrap();

    // Trusted rights still read it — through the warm cache.
    assert!(matches!(e.call(&mut m, "probe", &[]).unwrap(), Value::Num(n) if n == 41.0));

    // Untrusted rights must fault on the *hit* path: the hit counter
    // advances (the cache matched) and the access still traps.
    m.gates.enter_untrusted(&mut m.cpu).unwrap();
    let (h2, m2) = e.ic_stats();
    let err = e.call(&mut m, "probe", &[]).unwrap_err();
    assert!(err.is_pkey_violation(), "{err}");
    let (h3, m3) = e.ic_stats();
    assert_eq!(h3, h2 + 1, "fault must come from the cached fast path");
    assert_eq!(m3, m2, "no slow-path fallback may mask the violation");
}

#[test]
fn dom_style_host_fields_cache_and_invalidate() {
    use minijs::{HostClass, HostFieldKind};
    let (mut m, mut e) = setup();
    // A host structure: [count: u64][weight: f64].
    let addr = m.alloc.alloc(16).unwrap();
    m.mem_write(addr, 5).unwrap();
    m.mem_write(addr + 8, 2.5f64.to_bits()).unwrap();
    let class = e.define_host_class(
        HostClass::new("Node").field("count", 0, HostFieldKind::U64, true).field(
            "weight",
            8,
            HostFieldKind::F64,
            false,
        ),
    );
    e.set_global("n", Engine::host_ref(addr, class));
    e.eval(
        &mut m,
        "var acc = 0;
         for (var i = 0; i < 50; i = i + 1) { acc = acc + n.count + n.weight; }",
    )
    .unwrap();
    assert!(matches!(e.global("acc"), Some(Value::Num(n)) if n == 375.0));
    let (hits, _) = e.ic_stats();
    assert!(hits >= 98, "host-field sites must hit: {hits}");
    // Writable field through the cache, then a layout edit: the epoch
    // bump forces refills and reads stay correct.
    e.eval(&mut m, "n.count = 9;").unwrap();
    assert_eq!(m.mem_read(addr).unwrap(), 9);
    e.host_class_mut(class).fields.insert(
        "count".into(),
        minijs::HostField { offset: 0, kind: HostFieldKind::U64, writable: false },
    );
    let err = e.eval(&mut m, "n.count = 11;").unwrap_err();
    assert!(format!("{err}").contains("read-only"), "{err}");
}
