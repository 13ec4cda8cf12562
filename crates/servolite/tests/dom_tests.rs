//! DOM-layer tests: tree surgery, attributes, text, layout.

use minijs::Value;
use pkalloc::Domain;
use pkru_provenance::Profile;
use servolite::{Browser, BrowserConfig, Site};

fn browser() -> Browser {
    let mut b = Browser::new(BrowserConfig::Base).unwrap();
    b.load_html(
        r#"
<div id="a">
  <p id="p1">one</p>
  <p id="p2">two</p>
  <p id="p3">three</p>
</div>
"#,
    )
    .unwrap();
    b
}

fn num(v: Value) -> f64 {
    match v {
        Value::Num(n) => n,
        other => panic!("expected number, got {other:?}"),
    }
}

#[test]
fn remove_child_relinks_siblings() {
    let mut b = browser();
    let v = b
        .eval_script(
            r#"
var a = document.getElementById('a');
var p2 = document.getElementById('p2');
a.removeChild(p2);
var order = '';
var c = a.firstChild;
while (c != null) { order += c.id; c = c.nextSibling; }
return order + ':' + a.childCount;
"#,
        )
        .unwrap();
    assert!(matches!(v, Value::Str(ref s) if &**s == "p1p3:2"), "{v:?}");
}

#[test]
fn append_detaches_from_previous_parent() {
    let mut b = browser();
    let v = b
        .eval_script(
            r#"
var a = document.getElementById('a');
var p1 = document.getElementById('p1');
var host = document.createElement('div');
a.appendChild(host);
host.appendChild(p1);           // Moves p1 under host.
return a.childCount * 10 + host.childCount;
"#,
        )
        .unwrap();
    assert_eq!(num(v), 31.0);
}

#[test]
fn attributes_overwrite_and_miss() {
    let mut b = browser();
    let v = b
        .eval_script(
            r#"
var p = document.getElementById('p1');
p.setAttribute('data-k', 'v1');
p.setAttribute('data-k', 'v2');
var hit = p.getAttribute('data-k');
var miss = p.getAttribute('nope');
return hit + ':' + (miss == null ? 'null' : miss);
"#,
        )
        .unwrap();
    assert!(matches!(v, Value::Str(ref s) if &**s == "v2:null"), "{v:?}");
}

#[test]
fn inner_html_replaces_subtree() {
    let mut b = browser();
    let v = b
        .eval_script(
            r#"
var a = document.getElementById('a');
a.setInnerHTML('<span id="s">new <b>world</b></span>');
return a.childCount + ':' + a.firstChild.id + ':' + a.innerText();
"#,
        )
        .unwrap();
    assert!(matches!(v, Value::Str(ref s) if &**s == "1:s:newworld"), "{v:?}"); // Whitespace collapses at text-run edges.
}

#[test]
fn layout_stacks_blocks_vertically() {
    let mut b = browser();
    let v = b
        .eval_script(
            r#"
document.reflow();
var p1 = document.getElementById('p1');
var p2 = document.getElementById('p2');
return p2.y > p1.y && p1.height > 0 ? 1 : 0;
"#,
        )
        .unwrap();
    assert_eq!(num(v), 1.0);
}

#[test]
fn get_elements_by_tag_name_document_order() {
    let mut b = browser();
    let v = b
        .eval_script(
            r#"
var ps = document.getElementsByTagName('p');
var order = '';
for (var i = 0; i < ps.length; i++) order += ps[i].id;
return order;
"#,
        )
        .unwrap();
    assert!(matches!(v, Value::Str(ref s) if &**s == "p1p2p3"), "{v:?}");
}

#[test]
fn direct_style_writes_visible_through_script_reads() {
    // Script writes the style word directly (host field) and reads it
    // back — a full round trip through browser memory.
    let mut b = browser();
    let v = b
        .eval_script(
            "document.getElementById('p1').style = 0xbeef;              return document.getElementById('p1').style;",
        )
        .unwrap();
    assert_eq!(num(v), 0xbeef as f64);
}

/// `(trusted arena live bytes, demand pages)`.
fn trusted_footprint(b: &Browser) -> (u64, u64) {
    let arena = b.machine.alloc.trusted_arena_stats().expect("split allocator");
    (arena.live_bytes, b.machine.space.stats().demand_pages)
}

#[test]
fn overwriting_attributes_frees_the_values_they_replace() {
    let mut b = Browser::new(BrowserConfig::Mpk).unwrap();
    b.load_html(r#"<div id="a" class="c"><p id="p1">one</p></div>"#).unwrap();
    // Every value is five characters, so every buffer is the same size.
    let overwrite = "function overwrite(i) { var el = document.getElementById('a'); \
                     var v = 'v' + (10000 + i); el.setAttribute('data-x', v); \
                     el.setAttribute('class', v); el.setAttribute('id', 'a'); \
                     return el.getAttribute('data-x') + el.getAttribute('class'); }";
    b.eval_script(overwrite).unwrap();
    let first = b.eval_script("return overwrite(0);").unwrap();
    assert!(matches!(first, Value::Str(ref s) if &**s == "v10000v10000"), "{first:?}");
    let after_first = trusted_footprint(&b);
    let last = b
        .eval_script("var last; for (var i = 1; i <= 1000; i++) last = overwrite(i); return last;")
        .unwrap();
    assert!(matches!(last, Value::Str(ref s) if &**s == "v11000v11000"), "{last:?}");
    assert_eq!(trusted_footprint(&b), after_first, "1,000 overwrites grew M_T");
    assert_eq!(b.dom.borrow().leaked_buffers, 0);
}

#[test]
fn a_forged_value_pointer_in_untrusted_memory_frees_nothing_trusted() {
    // Node record layout: the `id` pointer and the attribute table.
    const ID: u64 = 56;
    const ATTRS: u64 = 112;
    // Nodes and attribute tables in `M_U`, their text buffers in `M_T`.
    let mut profile = Profile::new();
    profile.record(Site::ElementNode.alloc_id());
    profile.record(Site::AttrTable.alloc_id());
    let mut b = Browser::with_profile(BrowserConfig::Mpk, Some(&profile)).unwrap();
    b.load_html(r#"<div id="a" data-x="1"></div>"#).unwrap();
    let node = match b.eval_script("el = document.getElementById('a'); return el;").unwrap() {
        Value::HostRef { addr, .. } => addr,
        other => panic!("expected a node, got {other:?}"),
    };
    assert_eq!(b.machine.alloc.domain_of(node), Some(Domain::Untrusted));
    // A live trusted allocation whose first word passes for a short length.
    let victim = b.machine.alloc.alloc(64).unwrap();
    b.machine.mem_write(victim, 1).unwrap();
    // What script's write primitive can do: point the node's `id` field and
    // its `data-x` value at the victim.
    b.machine.mem_write(node + ID, victim).unwrap();
    let table = b.machine.mem_read(node + ATTRS).unwrap();
    b.machine.mem_write(table + 16 + 8, victim).unwrap();
    let frees = b.machine.alloc.trusted_arena_stats().unwrap().frees;
    let v = b
        .eval_script(
            "el.setAttribute('id', 'b'); el.setAttribute('data-x', '2'); \
             return el.getAttribute('id') + el.getAttribute('data-x');",
        )
        .unwrap();
    assert!(matches!(v, Value::Str(ref s) if &**s == "b2"), "{v:?}");
    assert_eq!(b.machine.alloc.usable_size(victim), Some(64), "the victim was freed");
    assert_eq!(b.machine.alloc.trusted_arena_stats().unwrap().frees, frees);
    assert_eq!(b.dom.borrow().leaked_buffers, 2);
}
