//! The engine's one string type.
//!
//! A [`JsStr`] is an immutable shared string that records, when it is
//! built, how many characters it holds. Characters are Unicode scalar
//! values (code points), not UTF-16 units: `'é'.length` is 1 and
//! `'€'.charCodeAt(0)` is 8364. A string is all ASCII exactly when its
//! character count equals its byte length; on such a string character `i`
//! is byte `i`, so every position lookup below is O(1). Only a non-ASCII
//! string walks its code points, and each walk reports how many bytes it
//! crossed so the engine can count them.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::rc::Rc;

/// An immutable, cheaply cloned string with its character count.
#[derive(Clone)]
pub struct JsStr(Rc<Inner>);

struct Inner {
    /// Character (code point) count; equals `text.len()` iff all ASCII.
    chars: usize,
    text: Box<str>,
}

impl JsStr {
    /// Wraps `text` whose character count the caller already knows.
    fn with_chars(text: Box<str>, chars: usize) -> JsStr {
        debug_assert_eq!(chars, text.chars().count());
        JsStr(Rc::new(Inner { chars, text }))
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0.text
    }

    /// The character count (JS `length`).
    pub fn char_len(&self) -> usize {
        self.0.chars
    }

    /// Whether every character is ASCII (so positions index bytes); O(1),
    /// unlike `str::is_ascii`, which this shadows.
    pub fn is_ascii(&self) -> bool {
        self.0.chars == self.0.text.len()
    }

    /// The byte offset of character `i` (`i <= char_len()`), adding the
    /// bytes a non-ASCII walk crosses to `walked`.
    fn byte_offset(&self, i: usize, walked: &mut u64) -> usize {
        if self.is_ascii() || i == 0 {
            return i;
        }
        if i >= self.0.chars {
            return self.0.text.len();
        }
        let offset = self.0.text.char_indices().nth(i).map_or(self.0.text.len(), |(b, _)| b);
        *walked += offset as u64;
        offset
    }

    /// The character at position `i`, if any.
    pub fn char_at(&self, i: usize, walked: &mut u64) -> Option<char> {
        if i >= self.0.chars {
            return None;
        }
        if self.is_ascii() {
            return Some(char::from(self.0.text.as_bytes()[i]));
        }
        self.0.text[self.byte_offset(i, walked)..].chars().next()
    }

    /// Characters `lo..hi` (`lo <= hi <= char_len()`) as a new string,
    /// adding its length to `copied`.
    pub fn substring(&self, lo: usize, hi: usize, walked: &mut u64, copied: &mut u64) -> JsStr {
        let start = self.byte_offset(lo, walked);
        let end = self.byte_offset(hi, walked);
        *copied += (end - start) as u64;
        JsStr::with_chars(self.0.text[start..end].into(), hi - lo)
    }

    /// The character position of the first `needle` at or after character
    /// `from` (`from <= char_len()`).
    pub fn index_of(&self, needle: &str, from: usize, walked: &mut u64) -> Option<usize> {
        let start = self.byte_offset(from, walked);
        let found = self.0.text[start..].find(needle)?;
        if self.is_ascii() {
            return Some(from + found);
        }
        *walked += found as u64;
        Some(from + self.0.text[start..start + found].chars().count())
    }

    /// `parts` joined by `sep` into one new string, adding its length to
    /// `copied`.
    pub fn join(parts: &[JsStr], sep: &JsStr, copied: &mut u64) -> JsStr {
        JsStr::build(parts, sep, sep.char_len(), copied)
    }

    /// `parts` concatenated into one new string, adding its length to
    /// `copied`.
    pub fn concat(parts: &[JsStr], copied: &mut u64) -> JsStr {
        JsStr::build(parts, "", 0, copied)
    }

    /// One buffer sized to the result and one copy of each part; the
    /// character count is summed, never rescanned.
    fn build(parts: &[JsStr], sep: &str, sep_chars: usize, copied: &mut u64) -> JsStr {
        let gaps = parts.len().saturating_sub(1);
        let bytes = parts.iter().map(|p| p.len()).sum::<usize>() + gaps * sep.len();
        let chars = parts.iter().map(JsStr::char_len).sum::<usize>() + gaps * sep_chars;
        let mut out = String::with_capacity(bytes);
        for (i, part) in parts.iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            out.push_str(part);
        }
        *copied += bytes as u64;
        JsStr::with_chars(out.into_boxed_str(), chars)
    }
}

impl From<&str> for JsStr {
    fn from(text: &str) -> JsStr {
        JsStr::from(Box::<str>::from(text))
    }
}

impl From<String> for JsStr {
    fn from(text: String) -> JsStr {
        JsStr::from(text.into_boxed_str())
    }
}

impl From<Box<str>> for JsStr {
    fn from(text: Box<str>) -> JsStr {
        let chars = if text.is_ascii() { text.len() } else { text.chars().count() };
        JsStr::with_chars(text, chars)
    }
}

impl From<char> for JsStr {
    fn from(c: char) -> JsStr {
        JsStr::with_chars(c.to_string().into_boxed_str(), 1)
    }
}

impl Deref for JsStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for JsStr {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for JsStr {
    fn eq(&self, other: &JsStr) -> bool {
        Rc::ptr_eq(&self.0, &other.0) || self.as_str() == other.as_str()
    }
}

impl Eq for JsStr {}

impl PartialOrd for JsStr {
    fn partial_cmp(&self, other: &JsStr) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for JsStr {
    /// Byte order, which for UTF-8 is code-point order.
    fn cmp(&self, other: &JsStr) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for JsStr {
    /// Hashes as the text does, so `&str` keys find `JsStr` entries.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for JsStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for JsStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The 128 one-character ASCII strings of one engine, each built on first
/// use and shared from then on, so a single-character result (`charAt`,
/// `s[i]`, `String.fromCharCode`, `split('')`) is an `Rc` clone instead of
/// an allocation. Filling lazily keeps engine creation as cheap as before.
pub(crate) struct AsciiTable(Vec<Option<JsStr>>);

impl AsciiTable {
    /// An empty table.
    pub(crate) fn new() -> AsciiTable {
        AsciiTable(vec![None; 128])
    }

    /// The one-character string for `c`, if `c` is ASCII.
    pub(crate) fn get(&mut self, c: char) -> Option<JsStr> {
        let slot = self.0.get_mut(c as usize)?;
        Some(slot.get_or_insert_with(|| JsStr::from(c)).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_is_recorded_at_construction() {
        let ascii = JsStr::from("hello");
        assert_eq!((ascii.char_len(), ascii.is_ascii()), (5, true));
        let mixed = JsStr::from("hé€");
        assert_eq!((mixed.char_len(), mixed.len(), mixed.is_ascii()), (3, 6, false));
    }

    #[test]
    fn ascii_positions_walk_nothing() {
        let s = JsStr::from("abcdef");
        let (mut walked, mut copied) = (0, 0);
        assert_eq!(s.char_at(3, &mut walked), Some('d'));
        assert_eq!(&*s.substring(1, 4, &mut walked, &mut copied), "bcd");
        assert_eq!(s.index_of("c", 3, &mut walked), None);
        assert_eq!(s.index_of("e", 1, &mut walked), Some(4));
        assert_eq!((walked, copied), (0, 3));
    }

    #[test]
    fn non_ascii_positions_are_code_points() {
        let s = JsStr::from("é€a€");
        let (mut walked, mut copied) = (0, 0);
        assert_eq!(s.char_at(2, &mut walked), Some('a'));
        assert_eq!(walked, 5, "walked past é and €");
        let sub = s.substring(1, 3, &mut walked, &mut copied);
        assert_eq!((&*sub, sub.char_len()), ("€a", 2));
        assert_eq!(s.index_of("€", 2, &mut walked), Some(3));
        assert_eq!(s.char_at(4, &mut walked), None);
    }

    #[test]
    fn join_sums_the_metadata() {
        let mut copied = 0;
        let parts = [JsStr::from("ab"), JsStr::from("é")];
        let joined = JsStr::join(&parts, &JsStr::from("-"), &mut copied);
        assert_eq!((&*joined, joined.char_len(), joined.is_ascii()), ("ab-é", 4, false));
        assert_eq!(copied, 5);
        let both = JsStr::concat(&[JsStr::from("abc"), JsStr::from("def")], &mut copied);
        assert_eq!((&*both, both.char_len(), both.is_ascii()), ("abcdef", 6, true));
        assert_eq!(copied, 11);
    }

    #[test]
    fn table_shares_each_ascii_character() {
        let mut table = AsciiTable::new();
        let a = table.get('A').unwrap();
        assert_eq!(a.as_str(), "A");
        assert!(Rc::ptr_eq(&a.0, &table.get('A').unwrap().0), "built once, then shared");
        assert!(table.get('é').is_none());
    }
}
