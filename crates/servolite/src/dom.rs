//! The DOM: node records, text buffers, attributes, and layout, all living
//! in simulated memory at named allocation sites.

use lir::Machine;
use pkalloc::Domain;

use crate::atoms::Atoms;
use crate::browser::BrowserError;
use crate::sites::{Site, SiteRegistry};

/// Size of one node record in bytes.
pub const NODE_SIZE: u64 = 128;

/// Field offsets within a node record.
pub mod off {
    /// Node kind (1 = element, 2 = text).
    pub const KIND: u64 = 0;
    /// Pointer to the tag-name text buffer.
    pub const TAG: u64 = 8;
    /// Parent node pointer.
    pub const PARENT: u64 = 16;
    /// First-child pointer.
    pub const FIRST: u64 = 24;
    /// Next-sibling pointer.
    pub const NEXT: u64 = 32;
    /// Child count.
    pub const CHILDN: u64 = 40;
    /// Pointer to the text-content buffer (text nodes).
    pub const TEXT: u64 = 48;
    /// Pointer to the `id` attribute buffer.
    pub const ID: u64 = 56;
    /// Pointer to the `class` attribute buffer.
    pub const CLASS: u64 = 64;
    /// Packed style word.
    pub const STYLE: u64 = 72;
    /// Layout box: x.
    pub const X: u64 = 80;
    /// Layout box: y.
    pub const Y: u64 = 88;
    /// Layout box: width.
    pub const W: u64 = 96;
    /// Layout box: height.
    pub const H: u64 = 104;
    /// Pointer to the attribute table.
    pub const ATTRS: u64 = 112;
    /// Listener count.
    pub const NLISTEN: u64 = 120;
}

/// Node kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// An element node.
    Element = 1,
    /// A text node.
    Text = 2,
}

/// The DOM state: site registry, atom table, and the document tree.
pub struct Dom {
    /// The allocation-site registry (pool bindings + census).
    pub sites: SiteRegistry,
    /// Interned text buffers.
    pub atoms: Atoms,
    /// The document root node (0 before a document loads).
    pub root: u64,
    /// Whether allocations are logged to the profiling runtime.
    pub profiling: bool,
    /// Total nodes created.
    pub node_count: u64,
    /// Replaced attribute buffers left allocated (see `set_attribute`).
    pub leaked_buffers: u64,
}

impl Dom {
    /// Creates an empty DOM over the given site bindings.
    pub fn new(sites: SiteRegistry, profiling: bool) -> Dom {
        Dom { sites, atoms: Atoms::new(), root: 0, profiling, node_count: 0, leaked_buffers: 0 }
    }

    /// Allocates at a named site, honoring the site's pool binding and
    /// logging provenance metadata when profiling.
    pub fn alloc(
        &mut self,
        machine: &mut Machine,
        site: Site,
        size: u64,
    ) -> Result<u64, BrowserError> {
        let addr = match self.sites.domain(site) {
            Domain::Trusted => machine.alloc.alloc(size)?,
            Domain::Untrusted => machine.alloc.untrusted_alloc(size)?,
        };
        if self.profiling {
            machine.profiler.metadata.log_alloc(addr, size, site.alloc_id());
        }
        self.sites.count(site);
        Ok(addr)
    }

    /// Frees `old`, the text buffer that the field at `from` pointed to
    /// before `new`, written at the same site, replaced it. A field in
    /// `M_U` may have been forged by script, so a buffer of `M_T` read from
    /// one is never freed; nor is one outside the site's pool, or one whose
    /// length header overruns its allocation. Such a buffer, and one the
    /// allocator refuses, is left allocated and counted in `leaked_buffers`.
    fn free_replaced(&mut self, machine: &mut Machine, from: u64, old: u64, new: u64) {
        if old == 0 {
            return;
        }
        let pool = machine.alloc.domain_of(new);
        let trusted_field = pool == Some(Domain::Untrusted)
            || machine.alloc.domain_of(from) == Some(Domain::Trusted);
        let whole = machine.alloc.usable_size(old).is_some_and(|size| {
            machine.mem_read(old).is_ok_and(|len| len.checked_add(8).is_some_and(|n| n <= size))
        });
        if trusted_field
            && machine.alloc.domain_of(old) == pool
            && whole
            && machine.alloc.dealloc(old).is_ok()
        {
            if self.profiling {
                machine.profiler.metadata.log_dealloc(old);
            }
        } else {
            self.leaked_buffers += 1;
        }
    }

    /// Writes a `[len][bytes...]` text buffer at a named site.
    pub fn write_text_buffer(
        &mut self,
        machine: &mut Machine,
        site: Site,
        text: &str,
    ) -> Result<u64, BrowserError> {
        let bytes = text.as_bytes();
        let addr = self.alloc(machine, site, 8 + bytes.len().max(1) as u64)?;
        machine.mem_write(addr, bytes.len() as u64)?;
        machine.mem_write_bytes(addr + 8, bytes)?;
        Ok(addr)
    }

    /// Interns a tag/attribute-name atom as a text buffer.
    pub fn intern_atom(&mut self, machine: &mut Machine, text: &str) -> Result<u64, BrowserError> {
        if let Some(addr) = self.atoms.get(text) {
            return Ok(addr);
        }
        let addr = self.write_text_buffer(machine, Site::TagBuffer, text)?;
        self.atoms.insert(text, addr);
        Ok(addr)
    }

    /// Reads a `[len][bytes...]` buffer back as a string.
    pub fn read_text_buffer(
        &self,
        machine: &mut Machine,
        addr: u64,
    ) -> Result<String, BrowserError> {
        if addr == 0 {
            return Ok(String::new());
        }
        let len = machine.mem_read(addr)? as usize;
        let mut bytes = vec![0u8; len];
        machine.mem_read_bytes(addr + 8, &mut bytes)?;
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    /// Creates an element node.
    pub fn create_element(
        &mut self,
        machine: &mut Machine,
        tag: &str,
    ) -> Result<u64, BrowserError> {
        let tag_addr = self.intern_atom(machine, tag)?;
        let node = self.alloc(machine, Site::ElementNode, NODE_SIZE)?;
        self.init_node(machine, node, NodeKind::Element, tag_addr, 0)?;
        Ok(node)
    }

    /// Creates a text node.
    pub fn create_text(&mut self, machine: &mut Machine, text: &str) -> Result<u64, BrowserError> {
        let text_addr = self.write_text_buffer(machine, Site::TextBuffer, text)?;
        let node = self.alloc(machine, Site::TextNode, NODE_SIZE)?;
        let tag_addr = self.intern_atom(machine, "#text")?;
        self.init_node(machine, node, NodeKind::Text, tag_addr, text_addr)?;
        Ok(node)
    }

    fn init_node(
        &mut self,
        machine: &mut Machine,
        node: u64,
        kind: NodeKind,
        tag: u64,
        text: u64,
    ) -> Result<(), BrowserError> {
        self.node_count += 1;
        machine.mem_write(node + off::KIND, kind as u64)?;
        machine.mem_write(node + off::TAG, tag)?;
        machine.mem_write(node + off::TEXT, text)?;
        for field in [
            off::PARENT,
            off::FIRST,
            off::NEXT,
            off::CHILDN,
            off::ID,
            off::CLASS,
            off::STYLE,
            off::X,
            off::Y,
            off::W,
            off::H,
            off::ATTRS,
            off::NLISTEN,
        ] {
            machine.mem_write(node + field, 0)?;
        }
        Ok(())
    }

    /// A node field read.
    pub fn field(
        &self,
        machine: &mut Machine,
        node: u64,
        offset: u64,
    ) -> Result<u64, BrowserError> {
        Ok(machine.mem_read(node + offset)?)
    }

    /// A node field write.
    pub fn set_field(
        &self,
        machine: &mut Machine,
        node: u64,
        offset: u64,
        value: u64,
    ) -> Result<(), BrowserError> {
        Ok(machine.mem_write(node + offset, value)?)
    }

    /// Appends `child` as the last child of `parent` (detaching it from
    /// any previous parent first).
    pub fn append_child(
        &mut self,
        machine: &mut Machine,
        parent: u64,
        child: u64,
    ) -> Result<(), BrowserError> {
        let old_parent = self.field(machine, child, off::PARENT)?;
        if old_parent != 0 {
            self.remove_child(machine, old_parent, child)?;
        }
        let first = self.field(machine, parent, off::FIRST)?;
        if first == 0 {
            self.set_field(machine, parent, off::FIRST, child)?;
        } else {
            let mut cursor = first;
            loop {
                let next = self.field(machine, cursor, off::NEXT)?;
                if next == 0 {
                    break;
                }
                cursor = next;
            }
            self.set_field(machine, cursor, off::NEXT, child)?;
        }
        self.set_field(machine, child, off::NEXT, 0)?;
        self.set_field(machine, child, off::PARENT, parent)?;
        let n = self.field(machine, parent, off::CHILDN)?;
        self.set_field(machine, parent, off::CHILDN, n + 1)?;
        Ok(())
    }

    /// Unlinks `child` from `parent`.
    pub fn remove_child(
        &mut self,
        machine: &mut Machine,
        parent: u64,
        child: u64,
    ) -> Result<(), BrowserError> {
        let mut cursor = self.field(machine, parent, off::FIRST)?;
        let mut prev = 0u64;
        while cursor != 0 {
            if cursor == child {
                let next = self.field(machine, child, off::NEXT)?;
                if prev == 0 {
                    self.set_field(machine, parent, off::FIRST, next)?;
                } else {
                    self.set_field(machine, prev, off::NEXT, next)?;
                }
                self.set_field(machine, child, off::PARENT, 0)?;
                self.set_field(machine, child, off::NEXT, 0)?;
                let n = self.field(machine, parent, off::CHILDN)?;
                self.set_field(machine, parent, off::CHILDN, n.saturating_sub(1))?;
                return Ok(());
            }
            prev = cursor;
            cursor = self.field(machine, cursor, off::NEXT)?;
        }
        Err(BrowserError::Dom("removeChild: not a child".into()))
    }

    /// Replaces a node's text content.
    pub fn set_text(
        &mut self,
        machine: &mut Machine,
        node: u64,
        text: &str,
    ) -> Result<(), BrowserError> {
        let buf = self.write_text_buffer(machine, Site::TextBuffer, text)?;
        self.set_field(machine, node, off::TEXT, buf)
    }

    /// Sets an attribute; `id` and `class` have dedicated fields, the rest
    /// append to the attribute table. The value an overwrite replaces is
    /// freed when its pointer can be trusted, and leaked otherwise.
    pub fn set_attribute(
        &mut self,
        machine: &mut Machine,
        node: u64,
        name: &str,
        value: &str,
    ) -> Result<(), BrowserError> {
        match name {
            "id" | "class" => {
                let (site, field) = match name {
                    "id" => (Site::IdBuffer, off::ID),
                    _ => (Site::ClassBuffer, off::CLASS),
                };
                let old = self.field(machine, node, field)?;
                let buf = self.write_text_buffer(machine, site, value)?;
                self.set_field(machine, node, field, buf)?;
                self.free_replaced(machine, node + field, old, buf);
                Ok(())
            }
            _ => {
                // Attribute table: [count][cap][(name, value) * cap].
                let mut table = self.field(machine, node, off::ATTRS)?;
                if table == 0 {
                    table = self.alloc(machine, Site::AttrTable, 16 + 8 * 16)?;
                    machine.mem_write(table, 0)?;
                    machine.mem_write(table + 8, 8)?;
                    self.set_field(machine, node, off::ATTRS, table)?;
                }
                let count = machine.mem_read(table)?;
                let cap = machine.mem_read(table + 8)?;
                let name_addr = self.intern_atom(machine, name)?;
                // Overwrite an existing entry if present.
                for i in 0..count {
                    let slot = table + 16 + 16 * i;
                    if machine.mem_read(slot)? == name_addr {
                        let old = machine.mem_read(slot + 8)?;
                        let value_addr =
                            self.write_text_buffer(machine, Site::AttrValueBuffer, value)?;
                        machine.mem_write(slot + 8, value_addr)?;
                        self.free_replaced(machine, slot + 8, old, value_addr);
                        return Ok(());
                    }
                }
                if count >= cap {
                    return Err(BrowserError::Dom("attribute table full".into()));
                }
                let value_addr = self.write_text_buffer(machine, Site::AttrValueBuffer, value)?;
                let slot = table + 16 + 16 * count;
                machine.mem_write(slot, name_addr)?;
                machine.mem_write(slot + 8, value_addr)?;
                machine.mem_write(table, count + 1)?;
                Ok(())
            }
        }
    }

    /// Reads an attribute back.
    pub fn get_attribute(
        &mut self,
        machine: &mut Machine,
        node: u64,
        name: &str,
    ) -> Result<Option<String>, BrowserError> {
        match name {
            "id" => {
                let buf = self.field(machine, node, off::ID)?;
                Ok((buf != 0).then(|| self.read_text_buffer(machine, buf)).transpose()?)
            }
            "class" => {
                let buf = self.field(machine, node, off::CLASS)?;
                Ok((buf != 0).then(|| self.read_text_buffer(machine, buf)).transpose()?)
            }
            _ => {
                let table = self.field(machine, node, off::ATTRS)?;
                if table == 0 {
                    return Ok(None);
                }
                let count = machine.mem_read(table)?;
                let name_addr = self.atoms.get(name);
                for i in 0..count {
                    let slot = table + 16 + 16 * i;
                    let stored = machine.mem_read(slot)?;
                    if Some(stored) == name_addr {
                        let value_addr = machine.mem_read(slot + 8)?;
                        return Ok(Some(self.read_text_buffer(machine, value_addr)?));
                    }
                }
                Ok(None)
            }
        }
    }

    /// Depth-first search for the element with the given `id`.
    pub fn find_by_id(
        &mut self,
        machine: &mut Machine,
        id: &str,
    ) -> Result<Option<u64>, BrowserError> {
        if self.root == 0 {
            return Ok(None);
        }
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            let id_buf = self.field(machine, node, off::ID)?;
            if id_buf != 0 && self.read_text_buffer(machine, id_buf)? == id {
                return Ok(Some(node));
            }
            let mut child = self.field(machine, node, off::FIRST)?;
            while child != 0 {
                stack.push(child);
                child = self.field(machine, child, off::NEXT)?;
            }
        }
        Ok(None)
    }

    /// All elements with the given tag name, in document order.
    pub fn elements_by_tag(
        &mut self,
        machine: &mut Machine,
        tag: &str,
    ) -> Result<Vec<u64>, BrowserError> {
        let mut out = Vec::new();
        if self.root == 0 {
            return Ok(out);
        }
        let tag_addr = self.atoms.get(tag);
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            if Some(self.field(machine, node, off::TAG)?) == tag_addr {
                out.push(node);
            }
            // Push children in reverse to visit in document order.
            let mut children = Vec::new();
            let mut child = self.field(machine, node, off::FIRST)?;
            while child != 0 {
                children.push(child);
                child = self.field(machine, child, off::NEXT)?;
            }
            for c in children.into_iter().rev() {
                stack.push(c);
            }
        }
        Ok(out)
    }

    /// Concatenated text content beneath `node`.
    pub fn inner_text(&mut self, machine: &mut Machine, node: u64) -> Result<String, BrowserError> {
        let mut out = String::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if self.field(machine, n, off::KIND)? == NodeKind::Text as u64 {
                let buf = self.field(machine, n, off::TEXT)?;
                out.push_str(&self.read_text_buffer(machine, buf)?);
            }
            let mut children = Vec::new();
            let mut child = self.field(machine, n, off::FIRST)?;
            while child != 0 {
                children.push(child);
                child = self.field(machine, child, off::NEXT)?;
            }
            for c in children.into_iter().rev() {
                stack.push(c);
            }
        }
        Ok(out)
    }

    /// The block-layout pass: stacks children vertically, text advances by
    /// content length, and every node's box is written back to its record.
    /// Returns the number of boxes laid out.
    pub fn layout(&mut self, machine: &mut Machine) -> Result<u64, BrowserError> {
        if self.root == 0 {
            return Ok(0);
        }
        // One layout-box record per reflow models layout-engine churn.
        let _scratch = self.alloc(machine, Site::LayoutBox, 64)?;
        self.layout_node(machine, self.root, 0.0, 0.0, 800.0)
    }

    fn layout_node(
        &mut self,
        machine: &mut Machine,
        node: u64,
        x: f64,
        y: f64,
        width: f64,
    ) -> Result<u64, BrowserError> {
        let mut boxes = 1u64;
        let cursor_y = y;
        let kind = self.field(machine, node, off::KIND)?;
        let height;
        if kind == NodeKind::Text as u64 {
            let buf = self.field(machine, node, off::TEXT)?;
            let len = if buf == 0 { 0 } else { machine.mem_read(buf)? };
            // 8px per character, wrapped at the content width.
            let lines = (len as f64 * 8.0 / width).ceil().max(1.0);
            height = lines * 16.0;
        } else {
            let mut child = self.field(machine, node, off::FIRST)?;
            let mut content = 0.0;
            while child != 0 {
                boxes +=
                    self.layout_node(machine, child, x + 4.0, cursor_y + content, width - 8.0)?;
                let child_h = f64::from_bits(machine.mem_read(child + off::H)?);
                content += child_h;
                child = self.field(machine, child, off::NEXT)?;
            }
            height = content.max(16.0);
        }
        machine.mem_write(node + off::X, x.to_bits())?;
        machine.mem_write(node + off::Y, cursor_y.to_bits())?;
        machine.mem_write(node + off::W, width.to_bits())?;
        machine.mem_write(node + off::H, height.to_bits())?;
        Ok(boxes)
    }
}
