//! The tokenizer.

use crate::error::EngineError;
use crate::heap::{Heap, Sym};
use crate::string::JsStr;

/// A lexical token.
#[derive(Clone, PartialEq, Debug)]
pub enum Tok {
    /// A number literal.
    Num(f64),
    /// A string literal (escapes resolved).
    Str(JsStr),
    /// An identifier, interned.
    Ident(Sym),
    /// A keyword.
    Keyword(&'static str),
    /// Punctuation or an operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

/// A token with its source line (for diagnostics).
#[derive(Clone, Debug)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// 1-based line number.
    pub line: usize,
}

const KEYWORDS: &[&str] = &[
    "var",
    "let",
    "function",
    "return",
    "if",
    "else",
    "while",
    "for",
    "do",
    "break",
    "continue",
    "true",
    "false",
    "null",
    "undefined",
    "typeof",
    "this",
    "new",
];

/// Multi-character operators, longest first.
const PUNCTS: &[&str] = &[
    ">>>=", "===", "!==", ">>>", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "+", "-", "*", "/", "%", "=", "<",
    ">", "!", "&", "|", "^", "~", "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
];

/// Tokenizes `source`, interning every identifier in `heap`'s string table.
pub fn lex(source: &str, heap: &mut Heap) -> Result<Vec<SpannedTok>, EngineError> {
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(EngineError::Parse {
                            line,
                            message: "unterminated block comment".into(),
                        });
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let start = i;
                if c == b'0' && i + 1 < bytes.len() && (bytes[i + 1] | 0x20) == b'x' {
                    i += 2;
                    while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                        i += 1;
                    }
                    let hex = &source[start + 2..i];
                    let v = u64::from_str_radix(hex, 16).map_err(|_| EngineError::Parse {
                        line,
                        message: format!("bad hex literal 0x{hex}"),
                    })?;
                    out.push(SpannedTok { tok: Tok::Num(v as f64), line });
                } else {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    if i < bytes.len() && bytes[i] == b'.' {
                        i += 1;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                    if i < bytes.len() && (bytes[i] | 0x20) == b'e' {
                        i += 1;
                        if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                            i += 1;
                        }
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                    let text = &source[start..i];
                    let v: f64 = text.parse().map_err(|_| EngineError::Parse {
                        line,
                        message: format!("bad number literal {text}"),
                    })?;
                    out.push(SpannedTok { tok: Tok::Num(v), line });
                }
            }
            b'"' | b'\'' => {
                let quote = c;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(EngineError::Parse {
                            line,
                            message: "unterminated string".into(),
                        });
                    }
                    let b = bytes[i];
                    if b == quote {
                        i += 1;
                        break;
                    }
                    if b == b'\\' {
                        i += 1;
                        if i >= bytes.len() {
                            return Err(EngineError::Parse {
                                line,
                                message: "unterminated escape".into(),
                            });
                        }
                        let e = bytes[i];
                        if e < 0x80 {
                            s.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                b'r' => '\r',
                                b'0' => '\0',
                                b'\\' => '\\',
                                b'\'' => '\'',
                                b'"' => '"',
                                other => other as char,
                            });
                            i += 1;
                        } else {
                            // An escaped multi-byte character: consume the
                            // whole scalar, not just its lead byte.
                            let ch_len = utf8_len(e);
                            s.push_str(&source[i..i + ch_len]);
                            i += ch_len;
                        }
                    } else if b == b'\n' {
                        return Err(EngineError::Parse {
                            line,
                            message: "newline in string".into(),
                        });
                    } else {
                        // Consume a whole UTF-8 scalar.
                        let ch_len = utf8_len(b);
                        s.push_str(&source[i..i + ch_len]);
                        i += ch_len;
                    }
                }
                out.push(SpannedTok { tok: Tok::Str(s.into()), line });
            }
            _ if c.is_ascii_alphabetic() || c == b'_' || c == b'$' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                let word = &source[start..i];
                match KEYWORDS.iter().find(|&&k| k == word) {
                    Some(&k) => out.push(SpannedTok { tok: Tok::Keyword(k), line }),
                    None => out.push(SpannedTok { tok: Tok::Ident(heap.intern_name(word)), line }),
                }
            }
            _ => {
                let rest = &source[i..];
                match PUNCTS.iter().find(|&&p| rest.starts_with(p)) {
                    Some(&p) => {
                        out.push(SpannedTok { tok: Tok::Punct(p), line });
                        i += p.len();
                    }
                    None => {
                        return Err(EngineError::Parse {
                            line,
                            message: format!("unexpected character {:?}", rest.chars().next()),
                        });
                    }
                }
            }
        }
    }
    out.push(SpannedTok { tok: Tok::Eof, line });
    Ok(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src, &mut Heap::new()).unwrap().into_iter().map(|t| t.tok).collect()
    }

    /// The symbols a fresh heap hands out, in order of first use.
    fn sym(n: u32) -> Tok {
        Tok::Ident(Sym(Sym::THIS.0 + 1 + n))
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42"), vec![Tok::Num(42.0), Tok::Eof]);
        assert_eq!(kinds("3.25"), vec![Tok::Num(3.25), Tok::Eof]);
        assert_eq!(kinds("1e3"), vec![Tok::Num(1000.0), Tok::Eof]);
        assert_eq!(kinds("2.5e-2"), vec![Tok::Num(0.025), Tok::Eof]);
        assert_eq!(kinds("0xff"), vec![Tok::Num(255.0), Tok::Eof]);
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(kinds(r#""a\nb""#), vec![Tok::Str("a\nb".into()), Tok::Eof]);
        assert_eq!(kinds(r#"'it\'s'"#), vec![Tok::Str("it's".into()), Tok::Eof]);
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(
            kinds("var x while whiled x"),
            vec![Tok::Keyword("var"), sym(0), Tok::Keyword("while"), sym(1), sym(0), Tok::Eof]
        );
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            kinds("a>>>=b >>> c >> d > e"),
            vec![
                sym(0),
                Tok::Punct(">>>="),
                sym(1),
                Tok::Punct(">>>"),
                sym(2),
                Tok::Punct(">>"),
                sym(3),
                Tok::Punct(">"),
                sym(4),
                Tok::Eof
            ]
        );
        assert_eq!(kinds("==="), vec![Tok::Punct("==="), Tok::Eof]);
    }

    #[test]
    fn comments_are_skipped_and_lines_counted() {
        let mut heap = Heap::new();
        let toks = lex("x // c\n/* m\nm */ y", &mut heap).unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 3);
        assert!(matches!(toks[1].tok, Tok::Ident(s) if &**heap.name(s) == "y"));
    }

    #[test]
    fn escaped_multibyte_characters_lex_whole_scalars() {
        // Regression: a backslash followed by a multi-byte character must
        // consume the whole scalar (found by proptest).
        assert_eq!(kinds("'\\é x'"), vec![Tok::Str("é x".into()), Tok::Eof]);
    }

    #[test]
    fn bad_input_reports_line() {
        let e = lex("x\n  #", &mut Heap::new()).unwrap_err();
        match e {
            EngineError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("{other:?}"),
        }
    }
}
