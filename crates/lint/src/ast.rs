//! A brace-matched item tree over the token stream.
//!
//! This is not a Rust parser; it is the minimum structure the flow
//! rules need: which token ranges are functions (and what they're
//! named), which `impl` block a method lives in (for resolving
//! `self.field` lock receivers), and which items are test code —
//! where `#[cfg(test)]` on a module exempts everything inside it,
//! inherited through the tree instead of re-derived per line.
//!
//! The parser walks the token stream recognising item keywords after
//! attributes and modifiers, matches the delimiters that close each
//! item, and recurses into `mod`/`impl`/`trait` bodies. Anything it
//! doesn't recognise (expressions, macro invocations, stray tokens)
//! is skipped token-by-token — unknown syntax can never desync the
//! tree, only fall out of it.

use crate::lexer::{matching, Lexed, TokenKind};

/// What kind of item a node is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ItemKind {
    Fn,
    Mod,
    Impl,
    Trait,
    Struct,
    Enum,
    Static,
    Const,
    Other,
}

/// One item in the tree.
#[derive(Debug)]
pub struct Item {
    pub kind: ItemKind,
    /// Function/mod/struct name; for `impl`, the self type's last path
    /// segment (`impl Display for Foo` → `Foo`).
    pub name: String,
    /// Is this item (or any ancestor) under `#[cfg(test)]` or `#[test]`?
    pub cfg_test: bool,
    /// 1-based line range of the whole item, attributes included.
    pub line_range: (usize, usize),
    /// Token indices of the body's `{` and `}` (absent for `fn f();`
    /// in traits, `struct S;`, `use`, etc.).
    pub body: Option<(usize, usize)>,
    /// For items inside an `impl` block: the self type name.
    pub self_ty: Option<String>,
    /// Nested items (a `mod`'s or `impl`'s children).
    pub children: Vec<Item>,
}

/// A function ready for statement walking.
pub struct FnInfo<'t> {
    pub name: &'t str,
    pub self_ty: Option<&'t str>,
    pub cfg_test: bool,
    /// Token indices of the body's `{` and `}`.
    pub body: (usize, usize),
    pub line: usize,
}

/// The item tree of one file.
pub struct ItemTree {
    pub items: Vec<Item>,
}

impl ItemTree {
    /// Every function with a body, including methods inside `impl`
    /// blocks and functions in nested modules. Functions nested
    /// *inside* another function's body are not separate entries —
    /// the statement walk of the outer function covers their tokens,
    /// which over-approximates guard liveness but never hides a lock
    /// acquisition.
    pub fn functions(&self) -> Vec<FnInfo<'_>> {
        let mut out = Vec::new();
        fn visit<'t>(items: &'t [Item], out: &mut Vec<FnInfo<'t>>) {
            for it in items {
                if it.kind == ItemKind::Fn {
                    if let Some(body) = it.body {
                        out.push(FnInfo {
                            name: &it.name,
                            self_ty: it.self_ty.as_deref(),
                            cfg_test: it.cfg_test,
                            body,
                            line: it.line_range.0,
                        });
                    }
                }
                visit(&it.children, out);
            }
        }
        visit(&self.items, &mut out);
        out
    }

    /// The sorted set of 1-based lines covered by test items
    /// (`#[test]` functions and `#[cfg(test)]` subtrees), for the
    /// lexical rules' test exemption.
    pub fn test_lines(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        fn visit(items: &[Item], spans: &mut Vec<(usize, usize)>) {
            for it in items {
                if it.cfg_test {
                    spans.push(it.line_range);
                    // Children are covered by the parent's range.
                } else {
                    visit(&it.children, spans);
                }
            }
        }
        visit(&self.items, &mut spans);
        spans.sort_unstable();
        spans
    }

    /// Is `line` inside a test item?
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines()
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }
}

/// Does attribute text mark an item as test code? Matches the
/// predecessor's semantics exactly: `#[test]`, `#[cfg(test)]`, and
/// compound forms like `#[cfg(all(test, unix))]`.
fn is_test_attr(attr: &str) -> bool {
    let t = attr.trim();
    if t == "test" || t.contains("cfg(test") {
        return true;
    }
    // `cfg(all(test, unix))` and friends: a word-bounded `test`
    // anywhere inside a cfg predicate.
    if let Some(rest) = t.strip_prefix("cfg(") {
        let bytes = rest.as_bytes();
        let mut from = 0;
        while let Some(off) = rest[from..].find("test") {
            let at = from + off;
            let before_ok =
                at == 0 || !bytes[at - 1].is_ascii_alphanumeric() && bytes[at - 1] != b'_';
            let end = at + 4;
            let after_ok =
                end >= bytes.len() || !bytes[end].is_ascii_alphanumeric() && bytes[end] != b'_';
            if before_ok && after_ok {
                return true;
            }
            from = at + 1;
        }
    }
    false
}

/// Build the item tree for a lexed file.
pub fn parse(lx: &Lexed<'_>) -> ItemTree {
    let mut p = Parser {
        lx,
        toks: &lx.tokens,
    };
    let end = lx.tokens.len();
    ItemTree {
        items: p.block(0, end, false, None),
    }
}

struct Parser<'a, 'src> {
    lx: &'a Lexed<'src>,
    toks: &'a [crate::lexer::Token],
}

const MODIFIERS: &[&str] = &["pub", "unsafe", "async", "extern", "default", "const"];

impl<'a, 'src> Parser<'a, 'src> {
    fn text(&self, i: usize) -> &'src str {
        self.lx.text(i)
    }

    fn line(&self, i: usize) -> usize {
        self.toks[i].line
    }

    /// Parse the items in token range `[from, to)`.
    fn block(
        &mut self,
        from: usize,
        to: usize,
        inherited_test: bool,
        self_ty: Option<&str>,
    ) -> Vec<Item> {
        let mut items = Vec::new();
        let mut i = from;
        while i < to {
            match self.item(i, to, inherited_test, self_ty) {
                Some((item, next)) => {
                    items.push(item);
                    i = next;
                }
                None => i += 1,
            }
        }
        items
    }

    /// Try to parse one item starting at token `i`; returns the item
    /// and the index just past it.
    fn item(
        &mut self,
        start: usize,
        to: usize,
        inherited_test: bool,
        outer_self_ty: Option<&str>,
    ) -> Option<(Item, usize)> {
        let mut i = start;
        let mut own_test = false;

        // Attributes: `#[…]` marks the next item; `#![…]` is an inner
        // attribute and belongs to the enclosing scope — skip it
        // without attaching.
        while i < to && self.lx.is_punct(i, b'#') {
            let inner = i + 1 < to && self.lx.is_punct(i + 1, b'!');
            let open = if inner { i + 2 } else { i + 1 };
            if open >= to || !self.lx.is_punct(open, b'[') {
                return None;
            }
            let close = matching(self.toks, open)?;
            if close >= to {
                return None;
            }
            if !inner {
                let t = &self.toks[open + 1];
                let u = &self.toks[close];
                let text = &self.lx.src[t.start..u.start];
                if is_test_attr(text) {
                    own_test = true;
                }
            }
            i = close + 1;
        }

        // Modifiers before the item keyword. `const` is ambiguous
        // (`const fn` vs `const NAME: …`): treat it as a modifier only
        // when `fn`/`unsafe`/`extern` follows.
        loop {
            if i >= to || self.toks[i].kind != TokenKind::Ident {
                break;
            }
            let w = self.text(i);
            if !MODIFIERS.contains(&w) {
                break;
            }
            if w == "const" {
                let next = self
                    .toks
                    .get(i + 1)
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| &self.lx.src[t.start..t.end]);
                if !matches!(next, Some("fn") | Some("unsafe") | Some("extern")) {
                    break; // a const item, handled below
                }
            }
            i += 1;
            // `pub(crate)` / `pub(in …)`.
            if w == "pub" && i < to && self.lx.is_punct(i, b'(') {
                i = matching(self.toks, i)? + 1;
            }
            // `extern "C"`.
            if w == "extern" && i < to && self.toks[i].kind == TokenKind::Str {
                i += 1;
            }
        }

        if i >= to || self.toks[i].kind != TokenKind::Ident {
            return None;
        }
        let kw = self.text(i);
        let cfg_test = inherited_test || own_test;
        let start_line = self.line(start);

        match kw {
            "fn" => {
                let name = self.ident_after(i + 1, to)?;
                let (body, next) = self.body_or_semi(i + 1, to)?;
                let end_line = self.line(next.saturating_sub(1).max(i));
                Some((
                    Item {
                        kind: ItemKind::Fn,
                        name,
                        cfg_test,
                        line_range: (start_line, end_line),
                        body,
                        self_ty: outer_self_ty.map(str::to_string),
                        children: Vec::new(),
                    },
                    next,
                ))
            }
            "mod" => {
                let name = self.ident_after(i + 1, to)?;
                let (body, next) = self.body_or_semi(i + 1, to)?;
                let children = match body {
                    Some((o, c)) => self.block(o + 1, c, cfg_test, None),
                    None => Vec::new(),
                };
                let end_line = self.line(next.saturating_sub(1).max(i));
                Some((
                    Item {
                        kind: ItemKind::Mod,
                        name,
                        cfg_test,
                        line_range: (start_line, end_line),
                        body,
                        self_ty: None,
                        children,
                    },
                    next,
                ))
            }
            "impl" | "trait" => {
                let is_impl = kw == "impl";
                let (body, next) = self.body_or_semi(i + 1, to)?;
                let (o, c) = body?;
                let self_ty = if is_impl {
                    self.impl_self_ty(i + 1, o)
                } else {
                    self.ident_after(i + 1, to)
                };
                let children = self.block(o + 1, c, cfg_test, self_ty.as_deref());
                let end_line = self.line(next.saturating_sub(1).max(i));
                Some((
                    Item {
                        kind: if is_impl {
                            ItemKind::Impl
                        } else {
                            ItemKind::Trait
                        },
                        name: self_ty.clone().unwrap_or_default(),
                        cfg_test,
                        line_range: (start_line, end_line),
                        body,
                        self_ty,
                        children,
                    },
                    next,
                ))
            }
            "struct" | "enum" | "union" => {
                let name = self.ident_after(i + 1, to)?;
                let (body, next) = self.body_or_semi(i + 1, to)?;
                let end_line = self.line(next.saturating_sub(1).max(i));
                Some((
                    Item {
                        kind: if kw == "struct" {
                            ItemKind::Struct
                        } else {
                            ItemKind::Enum
                        },
                        name,
                        cfg_test,
                        line_range: (start_line, end_line),
                        body,
                        self_ty: None,
                        children: Vec::new(),
                    },
                    next,
                ))
            }
            "static" | "const" | "use" | "type" => {
                // Terminated by `;` at depth 0.
                let next = self.skip_to_semi(i + 1, to)?;
                let end_line = self.line(next.saturating_sub(1).max(i));
                let kind = match kw {
                    "static" => ItemKind::Static,
                    "const" => ItemKind::Const,
                    _ => ItemKind::Other,
                };
                // `static mut NAME` / `const NAME`.
                let mut ni = i + 1;
                if ni < to && self.lx.is_ident(ni, "mut") {
                    ni += 1;
                }
                let name = self.ident_after(ni, to).unwrap_or_default();
                Some((
                    Item {
                        kind,
                        name,
                        cfg_test,
                        line_range: (start_line, end_line),
                        body: None,
                        self_ty: None,
                        children: Vec::new(),
                    },
                    next,
                ))
            }
            "macro_rules" => {
                let (body, next) = self.body_or_semi(i + 1, to)?;
                let end_line = self.line(next.saturating_sub(1).max(i));
                Some((
                    Item {
                        kind: ItemKind::Other,
                        name: String::new(),
                        cfg_test,
                        line_range: (start_line, end_line),
                        body,
                        self_ty: None,
                        children: Vec::new(),
                    },
                    next,
                ))
            }
            _ => None,
        }
    }

    /// First identifier at or after `i`.
    fn ident_after(&self, i: usize, to: usize) -> Option<String> {
        (i < to && self.toks[i].kind == TokenKind::Ident).then(|| self.text(i).to_string())
    }

    /// Scan forward from `i` to the item's `{…}` body or terminating
    /// `;`, skipping generics, parameter lists, where clauses, and
    /// return types. Returns (body token pair, index past the item).
    fn body_or_semi(&self, i: usize, to: usize) -> Option<(Option<(usize, usize)>, usize)> {
        let mut j = i;
        let mut angle = 0usize;
        while j < to {
            match self.toks[j].kind {
                TokenKind::Punct(b'<') => {
                    angle += 1;
                    j += 1;
                }
                TokenKind::Punct(b'>') => {
                    angle = angle.saturating_sub(1);
                    j += 1;
                }
                TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => {
                    j = matching(self.toks, j)? + 1;
                }
                TokenKind::Punct(b'{') if angle == 0 => {
                    let close = matching(self.toks, j)?;
                    return Some((Some((j, close)), close + 1));
                }
                TokenKind::Punct(b'{') => {
                    // `{` inside generics can't happen; treat as body.
                    let close = matching(self.toks, j)?;
                    return Some((Some((j, close)), close + 1));
                }
                TokenKind::Punct(b';') if angle == 0 => return Some((None, j + 1)),
                _ => j += 1,
            }
        }
        None
    }

    /// Skip to the `;` ending a `use`/`static`/`const`/`type` item,
    /// stepping over any nested delimiters (array initialisers,
    /// const fn calls in the value).
    fn skip_to_semi(&self, i: usize, to: usize) -> Option<usize> {
        let mut j = i;
        while j < to {
            match self.toks[j].kind {
                TokenKind::Punct(b'(') | TokenKind::Punct(b'[') | TokenKind::Punct(b'{') => {
                    j = matching(self.toks, j)? + 1;
                }
                TokenKind::Punct(b';') => return Some(j + 1),
                _ => j += 1,
            }
        }
        None
    }

    /// The self type of an `impl` header: the last path segment of the
    /// type after `for` (trait impls), else the first path after the
    /// impl generics. `impl<T> Index<T> for Table` → `Table`;
    /// `impl Topology` → `Topology`.
    fn impl_self_ty(&self, from: usize, body_open: usize) -> Option<String> {
        let mut after_for = None;
        let mut j = from;
        let mut angle = 0usize;
        while j < body_open {
            match self.toks[j].kind {
                TokenKind::Punct(b'<') => angle += 1,
                TokenKind::Punct(b'>') => angle = angle.saturating_sub(1),
                TokenKind::Ident if angle == 0 => {
                    let w = self.text(j);
                    if w == "for" {
                        after_for = Some(j + 1);
                    } else if w == "where" {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let seg_start = after_for.unwrap_or(from);
        // Last plain identifier of the path before generics/where/body.
        let mut name = None;
        let mut angle = 0usize;
        let mut j = seg_start;
        while j < body_open {
            match self.toks[j].kind {
                TokenKind::Punct(b'<') => angle += 1,
                TokenKind::Punct(b'>') => angle = angle.saturating_sub(1),
                TokenKind::Ident if angle == 0 => {
                    let w = self.text(j);
                    if w == "where" || w == "for" {
                        break;
                    }
                    name = Some(w.to_string());
                }
                _ => {}
            }
            j += 1;
        }
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> ItemTree {
        parse(&lex(src))
    }

    #[test]
    fn plain_fns_and_bodies() {
        let t = tree("fn a() { x(); }\npub async fn b(n: u8) -> u8 { n }\nfn sig_only();\n");
        let fns = t.functions();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "a");
        assert_eq!(fns[1].name, "b");
    }

    #[test]
    fn impl_methods_carry_self_ty() {
        let src = "struct Table;\nimpl Table {\n fn get(&self) {}\n}\nimpl<T> From<T> for Table {\n fn from(_: T) -> Self { Table }\n}\n";
        let t = tree(src);
        let fns = t.functions();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].self_ty, Some("Table"));
        assert_eq!(fns[1].self_ty, Some("Table"));
    }

    #[test]
    fn cfg_test_is_inherited_through_modules() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    use super::*;\n    #[test]\n    fn t1() { live(); }\n    fn helper() {}\n}\n";
        let t = tree(src);
        let fns = t.functions();
        assert_eq!(fns.len(), 3);
        assert!(!fns[0].cfg_test);
        assert!(fns.iter().filter(|f| f.cfg_test).count() == 2);
        assert!(t.is_test_line(6));
        assert!(!t.is_test_line(1));
    }

    #[test]
    fn test_attr_without_cfg_module() {
        let src = "#[test]\nfn standalone() { assert!(true); }\nfn live() {}\n";
        let t = tree(src);
        assert!(t.is_test_line(2));
        assert!(!t.is_test_line(3));
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, unix))]\nmod m { fn f() {} }\n";
        let t = tree(src);
        assert!(t.is_test_line(2));
    }

    #[test]
    fn where_clauses_and_generics_do_not_desync() {
        let src = "fn g<T: Iterator<Item = u8>>(x: T) -> Vec<u8>\nwhere T: Clone {\n    x.collect()\n}\nfn after() {}\n";
        let t = tree(src);
        let fns = t.functions();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[1].name, "after");
    }

    #[test]
    fn statics_and_consts_parse() {
        let src = "static QUEUE: Mutex<Vec<u8>> = Mutex::new(Vec::new());\nconst N: usize = 4;\nfn f() {}\n";
        let t = tree(src);
        assert_eq!(t.items[0].kind, ItemKind::Static);
        assert_eq!(t.items[0].name, "QUEUE");
        assert_eq!(t.items[1].kind, ItemKind::Const);
        assert_eq!(t.items[1].name, "N");
    }

    #[test]
    fn inner_attrs_do_not_eat_the_next_item() {
        let src = "#![allow(dead_code)]\nfn f() {}\n";
        let t = tree(src);
        assert_eq!(t.functions().len(), 1);
    }

    #[test]
    fn macro_invocations_are_skipped() {
        let src =
            "macro_rules! m { () => {} }\nthread_local! { static S: u8 = 0; }\nfn real() {}\n";
        let t = tree(src);
        assert!(t.functions().iter().any(|f| f.name == "real"));
    }
}
