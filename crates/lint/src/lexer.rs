//! A minimal, self-contained Rust lexer.
//!
//! The build environment is registry-free, so this crate cannot use `syn`.
//! Instead we lex just enough of Rust to drive token-pattern rules:
//! comments and strings are stripped (string *values* are kept as tokens,
//! since the RNG-label rule needs them), identifiers, numbers, lifetimes
//! and single-character punctuation come out as a flat token stream with
//! 1-based line/column positions.
//!
//! One side channel rides along with the token stream: the
//! `// lint: allow(rule, reason)` directives found in comments, keyed by
//! line, so rules can be suppressed with an in-code justification.

use std::collections::BTreeMap;

/// Token category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (Rust keywords are not distinguished).
    Ident,
    /// String literal; `text` holds the (raw, unescaped) contents.
    Str,
    /// Numeric literal.
    Num,
    /// Single punctuation character.
    Punct,
    /// Lifetime (`'a`), without the quote.
    Lifetime,
    /// Character literal.
    Char,
}

/// One lexed token with its source position (1-based line and column; the
/// column counts characters, not bytes) and its byte span in the source.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Category.
    pub kind: TokKind,
    /// Token text (contents only, for string literals).
    pub text: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (characters).
    pub col: u32,
    /// Byte offset of the token's first byte in the source.
    pub lo: usize,
    /// Byte offset one past the token's last byte.
    pub hi: usize,
}

impl Tok {
    /// The token text if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        (self.kind == TokKind::Ident).then_some(self.text.as_str())
    }

    /// True if this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// A `// lint: allow(rule, reason)` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule name being allowed.
    pub rule: String,
    /// Justification text (must be non-empty for the directive to count).
    pub reason: String,
}

/// A fully lexed source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// The token stream.
    pub toks: Vec<Tok>,
    /// Allow directives keyed by the line the comment sits on.
    pub allows: BTreeMap<u32, Vec<Allow>>,
    /// Source lines, for diagnostics snippets.
    pub lines: Vec<String>,
}

/// Lex one source file.
pub fn lex(src: &str) -> LexedFile {
    let cs: Vec<char> = src.chars().collect();
    let mut out = LexedFile {
        lines: src.lines().map(str::to_string).collect(),
        ..LexedFile::default()
    };
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    let mut bpos = 0usize;

    macro_rules! bump {
        () => {{
            if cs[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            bpos += cs[i].len_utf8();
            i += 1;
        }};
    }

    while i < cs.len() {
        let c = cs[i];
        let (tline, tcol) = (line, col);
        let tlo = bpos;

        // Line comment.
        if c == '/' && cs.get(i + 1) == Some(&'/') {
            let start = i;
            while i < cs.len() && cs[i] != '\n' {
                bump!();
            }
            let text: String = cs[start..i].iter().collect();
            scan_comment(&text, tline, &mut out);
            continue;
        }
        // Block comment (nested).
        if c == '/' && cs.get(i + 1) == Some(&'*') {
            let start = i;
            bump!();
            bump!();
            let mut depth = 1usize;
            while i < cs.len() && depth > 0 {
                if cs[i] == '/' && cs.get(i + 1) == Some(&'*') {
                    depth += 1;
                    bump!();
                    bump!();
                } else if cs[i] == '*' && cs.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    bump!();
                    bump!();
                } else {
                    bump!();
                }
            }
            let text: String = cs[start..i].iter().collect();
            scan_comment(&text, tline, &mut out);
            continue;
        }
        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }
        // Raw strings and raw identifiers: r"..", r#".."#, r#ident.
        if (c == 'r' || c == 'b') && is_raw_or_byte_string(&cs, i) {
            // Optional b prefix, optional r, hashes, then the quote.
            let mut j = i;
            if cs[j] == 'b' {
                j += 1;
            }
            let mut raw = false;
            if j < cs.len() && cs[j] == 'r' {
                raw = true;
                j += 1;
            }
            let mut hashes = 0usize;
            while raw && j < cs.len() && cs[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if cs.get(j) == Some(&'\'') {
                // Byte char literal b'x'.
                while i <= j {
                    bump!();
                }
                if i < cs.len() && cs[i] == '\\' {
                    bump!();
                    if i < cs.len() {
                        bump!();
                    }
                } else if i < cs.len() {
                    bump!();
                }
                if i < cs.len() && cs[i] == '\'' {
                    bump!();
                }
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line: tline,
                    col: tcol,
                    lo: tlo,
                    hi: bpos,
                });
                continue;
            }
            // Advance past the prefix and opening quote.
            while i <= j {
                bump!();
            }
            let vstart = i;
            if raw {
                // Read until `"` followed by `hashes` hash marks.
                'raw: while i < cs.len() {
                    if cs[i] == '"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if cs.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            let text: String = cs[vstart..i].iter().collect();
                            bump!();
                            for _ in 0..hashes {
                                bump!();
                            }
                            out.toks.push(Tok {
                                kind: TokKind::Str,
                                text,
                                line: tline,
                                col: tcol,
                                lo: tlo,
                                hi: bpos,
                            });
                            break 'raw;
                        }
                    }
                    bump!();
                }
            } else {
                let text = read_quoted(&cs, &mut i, &mut line, &mut col, &mut bpos);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text,
                    line: tline,
                    col: tcol,
                    lo: tlo,
                    hi: bpos,
                });
            }
            continue;
        }
        // Raw identifier r#ident.
        if c == 'r'
            && cs.get(i + 1) == Some(&'#')
            && cs.get(i + 2).is_some_and(|c| is_ident_start(*c))
        {
            bump!();
            bump!();
            let start = i;
            while i < cs.len() && is_ident_continue(cs[i]) {
                bump!();
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: cs[start..i].iter().collect(),
                line: tline,
                col: tcol,
                lo: tlo,
                hi: bpos,
            });
            continue;
        }
        // Plain string literal.
        if c == '"' {
            bump!();
            let text = read_quoted(&cs, &mut i, &mut line, &mut col, &mut bpos);
            out.toks.push(Tok {
                kind: TokKind::Str,
                text,
                line: tline,
                col: tcol,
                lo: tlo,
                hi: bpos,
            });
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            let next = cs.get(i + 1).copied();
            let after = cs.get(i + 2).copied();
            if next == Some('\\') {
                // Escaped char literal: '\n', '\'', '\u{..}'.
                bump!(); // '
                bump!(); // backslash
                while i < cs.len() && cs[i] != '\'' {
                    bump!();
                }
                if i < cs.len() {
                    bump!();
                }
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line: tline,
                    col: tcol,
                    lo: tlo,
                    hi: bpos,
                });
            } else if next.is_some_and(is_ident_start) && after != Some('\'') {
                // Lifetime.
                bump!();
                let start = i;
                while i < cs.len() && is_ident_continue(cs[i]) {
                    bump!();
                }
                out.toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: cs[start..i].iter().collect(),
                    line: tline,
                    col: tcol,
                    lo: tlo,
                    hi: bpos,
                });
            } else {
                // Plain char literal 'x'.
                bump!();
                if i < cs.len() {
                    bump!();
                }
                if i < cs.len() && cs[i] == '\'' {
                    bump!();
                }
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line: tline,
                    col: tcol,
                    lo: tlo,
                    hi: bpos,
                });
            }
            continue;
        }
        // Identifier.
        if is_ident_start(c) {
            let start = i;
            while i < cs.len() && is_ident_continue(cs[i]) {
                bump!();
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: cs[start..i].iter().collect(),
                line: tline,
                col: tcol,
                lo: tlo,
                hi: bpos,
            });
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let start = i;
            while i < cs.len() && (cs[i].is_ascii_alphanumeric() || cs[i] == '_') {
                bump!();
            }
            // Fractional part — but not the `..` of a range.
            if i < cs.len() && cs[i] == '.' && cs.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
                bump!();
                while i < cs.len() && (cs[i].is_ascii_alphanumeric() || cs[i] == '_') {
                    bump!();
                }
            }
            // Signed exponent: `1e-3`.
            if i < cs.len()
                && (cs[i] == '+' || cs[i] == '-')
                && cs[i - 1].eq_ignore_ascii_case(&'e')
                && cs.get(i + 1).is_some_and(|c| c.is_ascii_digit())
            {
                bump!();
                while i < cs.len() && (cs[i].is_ascii_alphanumeric() || cs[i] == '_') {
                    bump!();
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: cs[start..i].iter().collect(),
                line: tline,
                col: tcol,
                lo: tlo,
                hi: bpos,
            });
            continue;
        }
        // Everything else: single punctuation character.
        bump!();
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line: tline,
            col: tcol,
            lo: tlo,
            hi: bpos,
        });
    }
    out
}

/// Read a double-quoted string body; the cursor starts just after the
/// opening quote and is left just after the closing quote.
fn read_quoted(
    cs: &[char],
    i: &mut usize,
    line: &mut u32,
    col: &mut u32,
    bpos: &mut usize,
) -> String {
    let mut text = String::new();
    macro_rules! bump {
        () => {{
            if cs[*i] == '\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
            *bpos += cs[*i].len_utf8();
            *i += 1;
        }};
    }
    while *i < cs.len() && cs[*i] != '"' {
        if cs[*i] == '\\' {
            bump!();
            if *i < cs.len() {
                text.push(cs[*i]);
                bump!();
            }
        } else {
            text.push(cs[*i]);
            bump!();
        }
    }
    if *i < cs.len() {
        bump!(); // closing quote
    }
    text
}

/// Detect `r"`, `r#"`, `b"`, `br"`, `br#"`, `b'` starting at `i`.
fn is_raw_or_byte_string(cs: &[char], i: usize) -> bool {
    let mut j = i;
    if cs[j] == 'b' {
        j += 1;
        if cs.get(j) == Some(&'\'') {
            return true;
        }
    }
    if cs.get(j) == Some(&'r') {
        let mut k = j + 1;
        while cs.get(k) == Some(&'#') {
            k += 1;
        }
        return cs.get(k) == Some(&'"');
    }
    cs.get(j) == Some(&'"') && j > i
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Record the `lint: allow(...)` directives of one comment.
fn scan_comment(text: &str, line: u32, out: &mut LexedFile) {
    // Strip comment sigils, then look for the directive anywhere in the
    // comment so both standalone and trailing comments work.
    let body = text
        .trim_start_matches('/')
        .trim_start_matches('*')
        .trim_start_matches('!')
        .trim();
    let Some(rest) = body.strip_prefix("lint:") else {
        return;
    };
    let rest = rest.trim();
    let Some(args) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.rfind(')').map(|e| &r[..e]))
    else {
        return;
    };
    let (rule, reason) = match args.split_once(',') {
        Some((r, why)) => (r.trim().to_string(), why.trim().to_string()),
        None => (args.trim().to_string(), String::new()),
    };
    out.allows
        .entry(line)
        .or_default()
        .push(Allow { rule, reason });
}

/// Mark tokens that belong to `#[cfg(test)]`-gated items (attribute,
/// following attributes, and the item body through its matching brace or
/// terminating semicolon). Rules skip masked tokens: test code is exempt.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let (end, is_test) = scan_attr(toks, i + 1);
            if is_test {
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                let mut j = end + 1;
                // Further attributes on the same item.
                while j < toks.len()
                    && toks[j].is_punct('#')
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    let (aend, _) = scan_attr(toks, j + 1);
                    for m in mask.iter_mut().take(aend + 1).skip(j) {
                        *m = true;
                    }
                    j = aend + 1;
                }
                // The item itself: through the matching `}` of its first
                // top-level `{`, or through a terminating `;`.
                let mut depth = 0i32;
                while j < toks.len() {
                    mask[j] = true;
                    let t = &toks[j];
                    if t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth -= 1;
                    } else if t.is_punct(';') && depth == 0 {
                        break;
                    } else if t.is_punct('{') {
                        let mut braces = 1i32;
                        j += 1;
                        while j < toks.len() && braces > 0 {
                            mask[j] = true;
                            if toks[j].is_punct('{') {
                                braces += 1;
                            } else if toks[j].is_punct('}') {
                                braces -= 1;
                            }
                            j += 1;
                        }
                        j -= 1;
                        break;
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            i = end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Scan an attribute starting at its `[` token; return the index of the
/// closing `]` and whether the attribute is a `cfg(...)` containing `test`.
fn scan_attr(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut has_cfg = false;
    let mut has_test = false;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (j, has_cfg && has_test);
            }
        } else if t.ident() == Some("cfg") {
            has_cfg = true;
        } else if t.ident() == Some("test") {
            has_test = true;
        }
        j += 1;
    }
    (toks.len() - 1, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn strings_and_comments_stripped() {
        let toks = lex("let x = \"HashMap in a string\"; // HashMap in a comment").toks;
        assert!(toks.iter().all(|t| t.ident() != Some("HashMap")));
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "HashMap in a string");
    }

    #[test]
    fn raw_strings() {
        let toks = lex(r###"let x = r#"a "quoted" label"#;"###).toks;
        let s: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(s[0].text, "a \"quoted\" label");
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }").toks;
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("a\n  bee").toks;
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
        assert_eq!(toks[1].text, "bee");
    }

    #[test]
    fn allow_directives_parsed() {
        let f = lex("x(); // lint: allow(unwrap-in-lib, len() checked above)\n");
        let a = &f.allows[&1][0];
        assert_eq!(a.rule, "unwrap-in-lib");
        assert_eq!(a.reason, "len() checked above");
    }

    #[test]
    fn cfg_test_mod_masked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn tail() {}";
        let f = lex(src);
        let mask = test_mask(&f.toks);
        let unwrap_pos = f
            .toks
            .iter()
            .position(|t| t.ident() == Some("unwrap"))
            .expect("token present");
        assert!(mask[unwrap_pos]);
        let tail = f
            .toks
            .iter()
            .position(|t| t.ident() == Some("tail"))
            .expect("token present");
        assert!(!mask[tail]);
        let lib = f
            .toks
            .iter()
            .position(|t| t.ident() == Some("lib"))
            .expect("token present");
        assert!(!mask[lib]);
    }

    #[test]
    fn non_test_attrs_not_masked() {
        let src = "#[derive(Debug)]\nstruct S { x: u8 }";
        let f = lex(src);
        let mask = test_mask(&f.toks);
        assert!(mask.iter().all(|m| !m));
    }

    #[test]
    fn byte_spans_reconstruct_source() {
        let src = "fn gré() -> &'static str {\n    \"héllo\" // ünïcode comment\n}\n";
        let f = lex(src);
        let mut prev_hi = 0usize;
        for t in &f.toks {
            assert!(
                t.lo >= prev_hi,
                "token spans overlap at {}:{}",
                t.line,
                t.col
            );
            assert!(t.hi <= src.len());
            let text = &src[t.lo..t.hi];
            match t.kind {
                TokKind::Ident | TokKind::Num => assert_eq!(text, t.text),
                TokKind::Str => assert!(text.starts_with('"') && text.ends_with('"')),
                TokKind::Lifetime => assert_eq!(text, format!("'{}", t.text)),
                _ => {}
            }
            prev_hi = t.hi;
        }
    }

    #[test]
    fn numbers_and_ranges() {
        let v = idents("for i in 0..10 { let x = 1.5e-3; }");
        assert_eq!(v, vec!["for", "i", "in", "let", "x"]);
        let toks = lex("1.5e-3 0..10").toks;
        assert_eq!(toks[0].text, "1.5e-3");
        assert_eq!(toks[1].text, "0");
    }
}
