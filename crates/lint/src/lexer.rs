//! A real Rust token stream plus the masked views the lexical rules
//! scan.
//!
//! The linter used to be purely lexical (substring patterns over two
//! masked copies of a file); the flow-aware rules (lock-order,
//! atomic-ordering, determinism-flow) need actual tokens with actual
//! positions. This module produces both from one pass:
//!
//! * [`Lexed::tokens`] — the token stream: identifiers (keywords are
//!   identifiers here), lifetimes, string/char/numeric literals, and
//!   single-byte punctuation, each carrying its byte range and 1-based
//!   line. Comments are not tokens; their only trace is the allow
//!   directives collected from them.
//! * [`Lexed::code`] — comments **and** string/char literal contents
//!   blanked to spaces (newlines preserved, so byte offsets map to the
//!   original line numbers). The substring rules scan this view.
//! * [`Lexed::code_with_strings`] — only comments blanked. The shim
//!   hygiene rule scans this view, because a forbidden
//!   `#[path = "../../shims/…"]` lives inside a string literal.
//!
//! While scanning comments the lexer also collects
//! `lint:allow(RULE[, RULE…]): reason` directives. A trailing comment
//! allowlists its own line; a comment that is alone on its line
//! allowlists the next line.
//!
//! Handled syntax: line and (nested) block comments, plain strings
//! with escapes, raw strings `r"…"` / `r#"…"#` (any number of `#`s),
//! byte and C strings (`b"…"`, `br#"…"#`, `c"…"`, `cr#"…"#`), char
//! and byte-char literals including multi-byte escapes (`'\\'`,
//! `'\''`, `'\u{1F600}'`, `'\x7f'`), raw identifiers (`r#type`),
//! numeric literals (so `1.5` never reads as a method call), and the
//! char-literal vs. lifetime ambiguity (`'a'` vs. `<'a>`).
//!
//! The predecessor masker scanned escaped char literals with a
//! start-offset bug: in `'\\'` it treated the *escaped* backslash as a
//! second escape opener, overshot the closing quote, and swallowed
//! everything up to the next apostrophe on the line — masking real
//! code (`let sep = '\\'; let bad = (n as u16, 'x');` hid the cast).
//! The token scanner consumes escapes by grammar instead of by
//! backslash-hopping, so that class of false negative is gone;
//! `tests/lexer_regressions.rs` pins it alongside the raw-string and
//! nested-comment shapes that already worked.

use std::collections::{BTreeMap, BTreeSet};

/// What one token is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers like `r#type`).
    Ident,
    /// A lifetime (`'a`, `'static`), quote included in the range.
    Lifetime,
    /// Any string-ish literal: `"…"`, `r#"…"#`, `b"…"`, `c"…"`.
    Str,
    /// A char or byte-char literal: `'x'`, `b'\n'`.
    Char,
    /// A numeric literal (`42`, `0xff_u16`, `1.5e3`).
    Num,
    /// One byte of punctuation.
    Punct(u8),
}

/// One token: kind plus byte range and the 1-based line it starts on.
#[derive(Clone, Copy, Debug)]
pub struct Token {
    /// What it is.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based source line of `start`.
    pub line: usize,
}

/// The token stream and masked views of one source file.
pub struct Lexed<'a> {
    /// The source the token ranges index into.
    pub src: &'a str,
    /// The token stream (comments and whitespace omitted).
    pub tokens: Vec<Token>,
    /// Comments and string/char contents blanked.
    pub code: String,
    /// Only comments blanked (string literals preserved).
    pub code_with_strings: String,
    /// 1-based line → rule ids allowlisted on that line.
    pub allows: BTreeMap<usize, BTreeSet<String>>,
}

impl<'a> Lexed<'a> {
    /// The source text of token `i`.
    pub fn text(&self, i: usize) -> &'a str {
        let t = &self.tokens[i];
        &self.src[t.start..t.end]
    }

    /// Is token `i` the identifier `word`?
    pub fn is_ident(&self, i: usize, word: &str) -> bool {
        self.tokens[i].kind == TokenKind::Ident && self.text(i) == word
    }

    /// Is token `i` the punctuation byte `b`?
    pub fn is_punct(&self, i: usize, b: u8) -> bool {
        self.tokens[i].kind == TokenKind::Punct(b)
    }

    /// Does line `line` allowlist `rule`?
    pub fn allowed(&self, line: usize, rule: &str) -> bool {
        self.allows.get(&line).is_some_and(|r| r.contains(rule))
    }
}

/// Scan `source` into its token stream and masked views.
pub fn lex(source: &str) -> Lexed<'_> {
    Scanner::new(source).run()
}

struct Scanner<'a> {
    src: &'a str,
    bytes: &'a [u8],
    i: usize,
    line: usize,
    /// Does the current line have a token before position `i`? Decides
    /// whether a comment directive targets its own line or the next.
    line_has_code: bool,
    tokens: Vec<Token>,
    code: Vec<u8>,
    strings_kept: Vec<u8>,
    allows: BTreeMap<usize, BTreeSet<String>>,
}

impl<'a> Scanner<'a> {
    fn new(src: &'a str) -> Self {
        Scanner {
            src,
            bytes: src.as_bytes(),
            i: 0,
            line: 1,
            line_has_code: false,
            tokens: Vec::new(),
            code: src.as_bytes().to_vec(),
            strings_kept: src.as_bytes().to_vec(),
            allows: BTreeMap::new(),
        }
    }

    fn run(mut self) -> Lexed<'a> {
        while self.i < self.bytes.len() {
            let b = self.bytes[self.i];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.line_has_code = false;
                    self.i += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string_literal(self.i),
                b'r' | b'b' | b'c' if self.string_prefix_at(self.i) => self.prefixed_literal(),
                b'r' if self.peek(1) == Some(b'#') && self.ident_follows(self.i + 2) => {
                    // Raw identifier `r#type`.
                    self.ident()
                }
                b'\'' => self.quote(),
                b'0'..=b'9' => self.number(),
                _ if is_ident_start(b) => self.ident(),
                _ if b.is_ascii_whitespace() => self.i += 1,
                _ => {
                    self.push(TokenKind::Punct(b), self.i, self.i + 1);
                    self.i += 1;
                }
            }
        }
        // Blanking replaces whole bytes of multi-byte characters with
        // spaces only inside literals/comments (never splitting a
        // character across a blank boundary), but go through the
        // checked constructor anyway rather than assert.
        Lexed {
            src: self.src,
            tokens: self.tokens,
            code: String::from_utf8_lossy(&self.code).into_owned(),
            code_with_strings: String::from_utf8_lossy(&self.strings_kept).into_owned(),
            allows: self.allows,
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, start: usize, end: usize) {
        self.tokens.push(Token {
            kind,
            start,
            end,
            line: self.line,
        });
        self.line_has_code = true;
    }

    /// Blank `[from, to)` in `code` (and, for comments, the
    /// strings-kept view too), preserving newlines.
    fn blank(&mut self, from: usize, to: usize, both: bool) {
        for j in from..to.min(self.code.len()) {
            if self.code[j] != b'\n' {
                self.code[j] = b' ';
                if both {
                    self.strings_kept[j] = b' ';
                }
            }
        }
    }

    fn line_comment(&mut self) {
        let start = self.i;
        while self.i < self.bytes.len() && self.bytes[self.i] != b'\n' {
            self.i += 1;
        }
        self.collect_allow(start, self.i, !self.line_has_code);
        self.blank(start, self.i, true);
    }

    fn block_comment(&mut self) {
        let start = self.i;
        let standalone = !self.line_has_code;
        let mut depth = 1usize;
        self.i += 2;
        while self.i < self.bytes.len() && depth > 0 {
            match self.bytes[self.i] {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.i += 2;
                }
                b'*' if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.i += 2;
                }
                _ => self.i += 1,
            }
        }
        // `line` is now the line the comment *ends* on; a standalone
        // block comment allowlists the next line.
        self.collect_allow(start, self.i, standalone);
        self.blank(start, self.i, true);
    }

    /// Is `r…` / `b…` / `c…` at `at` the start of a string-ish literal
    /// or byte-char (rather than an identifier like `radius` or a raw
    /// identifier `r#type`)?
    fn string_prefix_at(&self, at: usize) -> bool {
        // Must not be the tail of a longer identifier: `for b"x"` vs `ab"x"`.
        if at > 0 && is_ident_byte(self.bytes[at - 1]) {
            return false;
        }
        let mut j = at + 1;
        // `br` / `cr` raw variants.
        if (self.bytes[at] == b'b' || self.bytes[at] == b'c') && self.bytes.get(j) == Some(&b'r') {
            j += 1;
        }
        let raw = j > at + 1 || self.bytes[at] == b'r';
        let mut hashes = 0usize;
        while self.bytes.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if hashes > 0 && !raw {
            return false;
        }
        match self.bytes.get(j) {
            Some(&b'"') => true,
            // Byte char `b'x'` (no raw/hash form exists).
            Some(&b'\'') => self.bytes[at] == b'b' && hashes == 0 && j == at + 1,
            _ => false,
        }
    }

    /// Does an identifier start at `at`? (For raw-identifier detection.)
    fn ident_follows(&self, at: usize) -> bool {
        self.bytes.get(at).copied().is_some_and(is_ident_start)
    }

    /// A literal beginning with an `r`/`b`/`c` prefix: raw string,
    /// byte string, C string, or byte-char.
    fn prefixed_literal(&mut self) {
        let start = self.i;
        let mut j = start + 1;
        if (self.bytes[start] == b'b' || self.bytes[start] == b'c')
            && self.bytes.get(j) == Some(&b'r')
        {
            j += 1;
        }
        let raw = j > start + 1 || self.bytes[start] == b'r';
        let mut hashes = 0usize;
        while self.bytes.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if self.bytes.get(j) == Some(&b'\'') {
            // Byte char `b'x'`: escape-aware like a char literal.
            let end = self
                .scan_char_body(j)
                .unwrap_or_else(|| self.bytes.len().min(j + 2));
            self.push(TokenKind::Char, start, end);
            self.blank(start, end, false);
            self.i = end;
            return;
        }
        // `j` is at the opening quote.
        let end = if raw {
            self.scan_raw_string(j, hashes)
        } else {
            self.scan_string(j)
        };
        self.push(TokenKind::Str, start, end);
        self.blank(start, end, false);
        self.i = end;
    }

    fn string_literal(&mut self, start: usize) {
        let end = self.scan_string(start);
        self.push(TokenKind::Str, start, end);
        self.blank(start, end, false);
        self.i = end;
    }

    /// Scan a plain (escaped) string starting at its opening quote;
    /// returns the index one past the closing quote. Tracks newlines
    /// (multi-line strings are legal).
    fn scan_string(&mut self, start: usize) -> usize {
        let quote = self.bytes[start];
        let mut i = start + 1;
        while i < self.bytes.len() {
            match self.bytes[i] {
                b'\\' => {
                    // An escaped newline (line continuation) still ends
                    // a source line; keep the count honest.
                    if self.bytes.get(i + 1) == Some(&b'\n') {
                        self.line += 1;
                    }
                    i += 2;
                }
                b'\n' => {
                    self.line += 1;
                    i += 1;
                }
                b if b == quote => return i + 1,
                _ => i += 1,
            }
        }
        i
    }

    /// Scan a raw string whose opening quote is at `start` with
    /// `hashes` trailing `#`s; returns the index one past the final
    /// `#` (raw strings have no escapes).
    fn scan_raw_string(&mut self, start: usize, hashes: usize) -> usize {
        let mut i = start + 1;
        while i < self.bytes.len() {
            match self.bytes[i] {
                b'\n' => {
                    self.line += 1;
                    i += 1;
                }
                b'"' => {
                    let mut j = i + 1;
                    let mut seen = 0usize;
                    while seen < hashes && self.bytes.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        return j;
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
        i
    }

    /// A `'` token: char literal or lifetime.
    fn quote(&mut self) {
        let start = self.i;
        if let Some(end) = self.scan_char_body(start) {
            self.push(TokenKind::Char, start, end);
            self.blank(start, end, false);
            self.i = end;
            return;
        }
        // A lifetime: `'` plus the identifier after it, if any.
        let mut j = start + 1;
        if self.ident_follows(j) {
            while j < self.bytes.len() && is_ident_byte(self.bytes[j]) {
                j += 1;
            }
            self.push(TokenKind::Lifetime, start, j);
        } else {
            self.push(TokenKind::Punct(b'\''), start, start + 1);
            j = start + 1;
        }
        self.i = j;
    }

    /// If a char literal starts at the quote at `start`, return the
    /// index one past its closing quote. Consumes escapes by grammar
    /// (`\x41`, `\u{…}`, `\n`, `\\`, `\'`) instead of backslash-
    /// hopping, so `'\\'` and `'\''` close exactly where rustc says
    /// they do.
    fn scan_char_body(&self, start: usize) -> Option<usize> {
        let mut j = start + 1;
        match self.bytes.get(j)? {
            b'\\' => {
                j += 1;
                match self.bytes.get(j)? {
                    b'x' => j += 3, // \x7f
                    b'u' => {
                        // \u{…}
                        if self.bytes.get(j + 1) != Some(&b'{') {
                            return None;
                        }
                        j += 2;
                        while self.bytes.get(j).is_some_and(|&b| b != b'}' && b != b'\n') {
                            j += 1;
                        }
                        j += 1; // past `}`
                    }
                    b'\n' => return None, // malformed; treat as lifetime
                    _ => j += 1,          // \n \t \\ \' \" \0
                }
            }
            b'\'' | b'\n' => return None, // `''` or bare `'` at EOL
            _ => {
                // One char (possibly multi-byte) then a closing quote.
                let rest = &self.src[j..];
                let ch = rest.chars().next()?;
                j += ch.len_utf8();
            }
        }
        if self.bytes.get(j) == Some(&b'\'') {
            Some(j + 1)
        } else {
            None // `'a>` / `'static` — a lifetime
        }
    }

    fn number(&mut self) {
        let start = self.i;
        let mut j = start + 1;
        while let Some(&b) = self.bytes.get(j) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                j += 1;
            } else if b == b'.'
                && self.bytes.get(j + 1) != Some(&b'.')
                && self.bytes.get(j + 1).is_some_and(|b| b.is_ascii_digit())
            {
                // `1.5` continues the literal; `0..n` and `1.max(2)` don't.
                j += 1;
            } else if (b == b'+' || b == b'-')
                && matches!(self.bytes.get(j - 1), Some(&b'e') | Some(&b'E'))
                && self.bytes.get(j + 1).is_some_and(|b| b.is_ascii_digit())
            {
                // Exponent sign: `1e-3`.
                j += 1;
            } else {
                break;
            }
        }
        self.push(TokenKind::Num, start, j);
        self.i = j;
    }

    fn ident(&mut self) {
        let start = self.i;
        let mut j = start;
        if self.bytes[j] == b'r' && self.bytes.get(j + 1) == Some(&b'#') {
            j += 2; // raw identifier prefix
        }
        while j < self.bytes.len() && is_ident_byte(self.bytes[j]) {
            j += 1;
        }
        self.push(TokenKind::Ident, start, j);
        self.i = j;
    }

    /// Parse `lint:allow(L1, L2): reason` out of the comment text in
    /// `src[start..end]` and record the allowlisted rules.
    fn collect_allow(&mut self, start: usize, end: usize, standalone: bool) {
        let text = &self.src[start..end.min(self.src.len())];
        let Some(at) = text.find("lint:allow(") else {
            return;
        };
        let after = &text[at + "lint:allow(".len()..];
        let Some(close) = after.find(')') else {
            return;
        };
        let target = if standalone { self.line + 1 } else { self.line };
        let entry = self.allows.entry(target).or_default();
        for rule in after[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                entry.insert(rule.to_string());
            }
        }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

/// Given the token index of an opening delimiter (`{`, `(`, `[`),
/// return the index of its matching closer, honouring nesting of the
/// same delimiter pair.
pub fn matching(tokens: &[Token], open: usize) -> Option<usize> {
    let (o, c) = match tokens[open].kind {
        TokenKind::Punct(b'{') => (b'{', b'}'),
        TokenKind::Punct(b'(') => (b'(', b')'),
        TokenKind::Punct(b'[') => (b'[', b']'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct(b) if b == o => depth += 1,
            TokenKind::Punct(b) if b == c => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked() {
        let l = lex("let x = 1; // unwrap() here is prose\n");
        assert!(!l.code.contains("unwrap"));
        assert!(l.code.contains("let x = 1;"));
    }

    #[test]
    fn doc_comments_are_blanked() {
        let l = lex("/// server.unwrap() example\n//! x.unwrap()\nfn f() {}\n");
        assert!(!l.code.contains("unwrap"));
        assert!(l.code.contains("fn f() {}"));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner unwrap() */ still comment */ fn g() {}");
        assert!(!l.code.contains("unwrap"));
        assert!(l.code.contains("fn g() {}"));
    }

    #[test]
    fn string_contents_blanked_in_code_view_only() {
        let src = "let s = \"x as u16\"; let y = n as u16;";
        let l = lex(src);
        assert_eq!(l.code.matches("as u16").count(), 1);
        assert_eq!(l.code_with_strings.matches("as u16").count(), 2);
    }

    #[test]
    fn raw_strings_and_byte_strings() {
        let src =
            "let a = r#\"quote \" as u16\"#; let b = b\"as u16\"; let c = br##\"x\"# as u16\"##;";
        let l = lex(src);
        assert!(!l.code.contains("as u16"));
        assert!(l.code.contains("let a ="));
        assert!(l.code.contains("let c ="));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let q = '\"'; let n = '\\n'; let u = 'é'; let s = \"as u16\"; }";
        let l = lex(src);
        // The quote char literal must not open a string that swallows
        // the rest of the line.
        assert!(l.code.contains("let n ="));
        assert!(l.code.contains("let s ="));
        assert!(!l.code.contains("as u16"));
    }

    #[test]
    fn escaped_backslash_char_does_not_swallow_the_line() {
        // The predecessor masked `'\\'` one byte too greedily and
        // swallowed everything to the next apostrophe on the line.
        let src =
            "let sep = '\\\\'; let bad = (n as u16, 'x'); let q = '\\''; let worse = n as u16;";
        let l = lex(src);
        assert_eq!(l.code.matches("as u16").count(), 2, "{}", l.code);
        assert!(l.code.contains("let bad ="));
        assert!(l.code.contains("let worse ="));
    }

    #[test]
    fn multibyte_escapes_close_where_rustc_says() {
        let src = "let a = '\\u{1F600}'; let b = '\\x7f'; let bad = n as u16;";
        let l = lex(src);
        assert_eq!(l.code.matches("as u16").count(), 1);
        let chars: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn multiline_strings_keep_line_numbers() {
        let src = "let s = \"line one\n as u16 \n\"; // lint:allow(L1): prose\nlet t = 1;\n";
        let l = lex(src);
        assert!(!l.code.contains("as u16"));
        // The directive sits on line 3 (where the comment lives).
        assert!(l.allows.get(&3).is_some_and(|r| r.contains("L1")));
    }

    #[test]
    fn escaped_newline_continuations_keep_line_numbers() {
        // A `\`-continued string spans two source lines; directives
        // after it must land on the right line.
        let src = "let m = \"part one \\\n part two\";\n// lint:allow(L6): next\nlet x = 1;\n";
        let l = lex(src);
        assert!(l.allows.get(&4).is_some_and(|r| r.contains("L6")));
        assert_eq!(l.code.lines().count(), src.lines().count());
    }

    #[test]
    fn trailing_allow_hits_own_line_standalone_hits_next() {
        let src = "let a = x as u16; // lint:allow(L1): bounded\n// lint:allow(L2, L4): next line\nlet b = 1;\n";
        let l = lex(src);
        assert!(l.allows.get(&1).is_some_and(|r| r.contains("L1")));
        let next = l.allows.get(&3).cloned().unwrap_or_default();
        assert!(next.contains("L2") && next.contains("L4"));
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let src = "let r#type = 1; let s = \"as u16\";";
        let l = lex(src);
        assert!(!l.code.contains("as u16"));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident && &src[t.start..t.end] == "r#type"));
    }

    #[test]
    fn numbers_lex_as_single_tokens() {
        let src = "let a = 1.5e-3; let b = 0xff_u16; for i in 0..10 { let c = 1.max(2); }";
        let l = lex(src);
        let nums: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Num)
            .map(|t| &src[t.start..t.end])
            .collect();
        assert_eq!(nums, vec!["1.5e-3", "0xff_u16", "0", "10", "1", "2"]);
    }

    #[test]
    fn token_lines_are_accurate() {
        let src = "fn a() {}\n\nfn b() {\n    x.lock();\n}\n";
        let l = lex(src);
        let lock = l
            .tokens
            .iter()
            .position(|t| t.kind == TokenKind::Ident && &src[t.start..t.end] == "lock")
            .expect("lock token");
        assert_eq!(l.tokens[lock].line, 4);
    }

    #[test]
    fn matching_delimiters() {
        let src = "fn f(a: (u8, u8)) { if x { y(); } }";
        let l = lex(src);
        let open = l
            .tokens
            .iter()
            .position(|t| t.kind == TokenKind::Punct(b'{'))
            .expect("open");
        let close = matching(&l.tokens, open).expect("close");
        assert_eq!(close, l.tokens.len() - 1);
    }
}
