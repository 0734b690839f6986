//! Per-function flow analyses behind L8 (atomic-ordering), L9
//! (determinism-flow), and L10 (error-swallowing).
//!
//! These walk the token stream through the item tree rather than
//! pattern-matching lines, so they can ask questions like "does this
//! function write non-atomic state before a Relaxed store?" or "does
//! this HashMap's iteration order ever reach an output sink?". They
//! are still approximations — resolution is name-based within one
//! file — but the approximation direction is chosen per rule: L8 and
//! L9 only fire on positive evidence of a hazardous *pair* (write +
//! Relaxed store, iteration + sink), so refactoring that separates
//! the pair genuinely clears the finding.

use crate::ast::ItemTree;
use crate::lexer::{matching, Lexed, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// Atomic RMW/load/store method names.
const ATOMIC_METHODS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Iterator-producing methods on hash collections.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Macro names that emit formatted output (a sink when fed hash
/// iteration order).
const SINK_MACROS: [&str; 6] = ["write", "writeln", "print", "println", "format", "eprintln"];

/// Method names that move data into an emitted buffer or encoder.
fn is_sink_method(name: &str) -> bool {
    matches!(
        name,
        "push" | "push_str" | "extend" | "write_all" | "serialize"
    ) || name.starts_with("put_")
        || name.starts_with("encode")
}

/// One atomic operation site.
struct AtomicOp {
    receiver: String,
    method: String,
    orderings: Vec<String>,
    line: usize,
}

/// L8 — atomic-ordering findings: `(line, message)`.
///
/// Two shapes:
/// * a `store(_, Ordering::Relaxed)` in a function that also writes
///   non-atomic shared state (a `self.…`/`*…` assignment) before the
///   store — the classic unpublished-data race; needs `Release`;
/// * any `SeqCst` operation in a function whose atomic footprint is a
///   single variable — sequential consistency orders *across*
///   atomics, so with one atomic it only buys cost.
pub fn atomic_findings(lexed: &Lexed<'_>, tree: &ItemTree) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for f in tree.functions() {
        if f.cfg_test {
            continue;
        }
        let (ops, shared_writes) = scan_fn_atomics(lexed, f.body.0 + 1, f.body.1);
        if ops.is_empty() {
            continue;
        }
        let receivers: BTreeSet<&str> = ops.iter().map(|o| o.receiver.as_str()).collect();
        for op in &ops {
            let relaxed = op.orderings.iter().any(|o| o == "Relaxed");
            let seqcst = op.orderings.iter().any(|o| o == "SeqCst");
            if op.method == "store" && relaxed {
                if let Some(&w) = shared_writes.iter().find(|&&w| w < op.line) {
                    out.push((
                        op.line,
                        format!(
                            "`{}.store(_, Ordering::Relaxed)` publishes non-atomic state \
                             written at line {w}; a reader that Acquire-loads the flag \
                             may still miss the data — store with `Ordering::Release`",
                            op.receiver
                        ),
                    ));
                    continue;
                }
            }
            if seqcst && receivers.len() == 1 {
                out.push((
                    op.line,
                    format!(
                        "`SeqCst` on `{}`, the only atomic this function touches: \
                         sequential consistency only orders operations across \
                         *different* atomics; `Acquire`/`Release` (or `Relaxed` for \
                         a pure counter) suffices",
                        op.receiver
                    ),
                ));
            }
        }
    }
    out.sort_unstable_by_key(|(l, _)| *l);
    out
}

/// Atomic ops and non-atomic shared-write lines within a token range.
fn scan_fn_atomics(lexed: &Lexed<'_>, from: usize, to: usize) -> (Vec<AtomicOp>, Vec<usize>) {
    let toks = &lexed.tokens;
    let mut ops = Vec::new();
    let mut writes = Vec::new();
    let mut i = from;
    while i < to {
        match toks[i].kind {
            TokenKind::Ident => {
                let w = lexed.text(i);
                if ATOMIC_METHODS.contains(&w)
                    && i > from
                    && lexed.is_punct(i - 1, b'.')
                    && i + 1 < to
                    && lexed.is_punct(i + 1, b'(')
                {
                    if let Some(close) = matching(toks, i + 1).filter(|&c| c <= to) {
                        let orderings: Vec<String> = (i + 2..close)
                            .filter(|&j| {
                                toks[j].kind == TokenKind::Ident
                                    && ORDERINGS.contains(&lexed.text(j))
                            })
                            .map(|j| lexed.text(j).to_string())
                            .collect();
                        // Only calls that actually name an ordering are
                        // atomic ops — keeps `Vec::swap`, serde `load`,
                        // etc. out of the table.
                        if !orderings.is_empty() {
                            ops.push(AtomicOp {
                                receiver: receiver_chain(lexed, i - 1, from),
                                method: w.to_string(),
                                orderings,
                                line: toks[i].line,
                            });
                        }
                        i = close + 1;
                        continue;
                    }
                }
                i += 1;
            }
            TokenKind::Punct(b'=') => {
                // A plain assignment (not ==, <=, +=, …): check the
                // statement's left side for shared state.
                let prev_op = i > from
                    && matches!(
                        toks[i - 1].kind,
                        TokenKind::Punct(b'=')
                            | TokenKind::Punct(b'!')
                            | TokenKind::Punct(b'<')
                            | TokenKind::Punct(b'>')
                            | TokenKind::Punct(b'+')
                            | TokenKind::Punct(b'-')
                            | TokenKind::Punct(b'*')
                            | TokenKind::Punct(b'/')
                            | TokenKind::Punct(b'&')
                            | TokenKind::Punct(b'|')
                            | TokenKind::Punct(b'^')
                            | TokenKind::Punct(b'%')
                    );
                let next_eq = i + 1 < to && lexed.is_punct(i + 1, b'=');
                if !prev_op && !next_eq && lhs_is_shared(lexed, i, from) {
                    writes.push(toks[i].line);
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    (ops, writes)
}

/// Does the statement left of the `=` at `eq` write through `self` or
/// a deref — i.e. potentially shared state rather than a local?
fn lhs_is_shared(lexed: &Lexed<'_>, eq: usize, floor: usize) -> bool {
    let toks = &lexed.tokens;
    let mut j = eq;
    let mut saw_self = false;
    let mut first = eq;
    while j > floor {
        j -= 1;
        match toks[j].kind {
            TokenKind::Punct(b';') | TokenKind::Punct(b'{') | TokenKind::Punct(b'}') => break,
            TokenKind::Ident => {
                let w = lexed.text(j);
                if w == "let" {
                    return false; // a local binding, not a write
                }
                if w == "self" {
                    saw_self = true;
                }
                first = j;
            }
            _ => first = j,
        }
    }
    saw_self || toks[first].kind == TokenKind::Punct(b'*')
}

/// The dotted receiver chain ending at the `.` at `dot`, rendered as
/// text (`self.count`, `GLOBAL`, …).
fn receiver_chain(lexed: &Lexed<'_>, dot: usize, floor: usize) -> String {
    let toks = &lexed.tokens;
    let mut parts: Vec<&str> = Vec::new();
    let mut j = dot;
    while j > floor {
        let k = j - 1;
        if toks[k].kind != TokenKind::Ident {
            break;
        }
        parts.push(lexed.text(k));
        j = k;
        if j > floor && toks[j - 1].kind == TokenKind::Punct(b'.') {
            j -= 1;
        } else {
            break;
        }
    }
    parts.reverse();
    parts.join(".")
}

/// L9 — determinism-flow findings: `(line, "HashMap" | "HashSet")`.
///
/// A finding anchors at every declaration/mention line of a hash
/// collection *symbol* whose iteration order can reach an output
/// sink; symbols that are only keyed into (lookups, inserts,
/// membership) never fire. This keeps finding lines a subset of the
/// retired L4's mention lines, so surviving fingerprints are stable.
pub fn hash_flow_findings(lexed: &Lexed<'_>, tree: &ItemTree) -> Vec<(usize, &'static str)> {
    let toks = &lexed.tokens;
    let test_spans = tree.test_lines();
    let in_test = |line: usize| test_spans.iter().any(|&(a, b)| line >= a && line <= b);

    // 1. Every HashMap/HashSet mention, resolved to a symbol where
    //    possible. `use` imports are tracked separately: they fire iff
    //    any symbol in the file is tainted.
    let mut symbol_mentions: BTreeMap<String, Vec<(usize, &'static str)>> = BTreeMap::new();
    let mut import_mentions: Vec<(usize, &'static str)> = Vec::new();
    let mut symbols: BTreeSet<String> = BTreeSet::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let kind: &'static str = match lexed.text(i) {
            "HashMap" => "HashMap",
            "HashSet" => "HashSet",
            _ => continue,
        };
        let line = tok.line;
        match classify_mention(lexed, i) {
            Mention::Import => import_mentions.push((line, kind)),
            Mention::Symbol(sym) => {
                symbols.insert(sym.clone());
                symbol_mentions.entry(sym).or_default().push((line, kind));
            }
            Mention::Unresolved => {}
        }
    }
    if symbols.is_empty() {
        return Vec::new();
    }

    // 2. Taint: any hazardous iteration of the symbol anywhere in the
    //    file (outside test code).
    let mut tainted: BTreeSet<&str> = BTreeSet::new();
    for sym in &symbols {
        if has_hazardous_iteration(lexed, sym, &in_test) {
            tainted.insert(sym);
        }
    }
    if tainted.is_empty() {
        return Vec::new();
    }

    let mut out: Vec<(usize, &'static str)> = Vec::new();
    for (sym, mentions) in &symbol_mentions {
        if tainted.contains(sym.as_str()) {
            out.extend(mentions.iter().copied());
        }
    }
    out.extend(import_mentions);
    out.sort_unstable();
    out.dedup();
    out
}

enum Mention {
    Import,
    Symbol(String),
    Unresolved,
}

/// What does the HashMap/HashSet ident at token `at` declare?
/// Walks back to the statement boundary looking for `name :` (a
/// field, parameter, or typed let), stopping at `->` (a return type
/// declares no symbol); falls back to the `let` binding when the
/// mention sits in a let's right-hand side (`let m = HashMap::new()`).
fn classify_mention(lexed: &Lexed<'_>, at: usize) -> Mention {
    let toks = &lexed.tokens;
    // Find the statement start.
    let mut s = at;
    while s > 0 {
        match toks[s - 1].kind {
            TokenKind::Punct(b';') | TokenKind::Punct(b'{') | TokenKind::Punct(b'}') => break,
            _ => s -= 1,
        }
    }
    if toks[s].kind == TokenKind::Ident && lexed.text(s) == "use" {
        return Mention::Import;
    }
    // Back-scan for `name :` — skipping `::` pairs.
    let mut k = at;
    while k > s {
        k -= 1;
        match toks[k].kind {
            TokenKind::Punct(b':') => {
                if k > s && toks[k - 1].kind == TokenKind::Punct(b':') {
                    k -= 1; // `::` path separator
                    continue;
                }
                if k + 1 < toks.len() && toks[k + 1].kind == TokenKind::Punct(b':') {
                    continue; // first colon of `::`, already stepped past
                }
                if k > s && toks[k - 1].kind == TokenKind::Ident {
                    let name = lexed.text(k - 1);
                    if name != "let" && name != "mut" {
                        return Mention::Symbol(name.to_string());
                    }
                }
                return Mention::Unresolved;
            }
            TokenKind::Punct(b'>') if k > s && toks[k - 1].kind == TokenKind::Punct(b'-') => {
                return Mention::Unresolved; // `-> HashMap<..>` return type
            }
            _ => {}
        }
    }
    // `let [mut] name = … HashMap …`.
    if toks[s].kind == TokenKind::Ident && lexed.text(s) == "let" {
        let mut j = s + 1;
        while j < at && toks[j].kind == TokenKind::Ident && lexed.text(j) == "mut" {
            j += 1;
        }
        if j < at && toks[j].kind == TokenKind::Ident {
            let name = lexed.text(j);
            if name != "_" {
                return Mention::Symbol(name.to_string());
            }
        }
    }
    Mention::Unresolved
}

/// Does iteration order of `sym` reach a sink anywhere in the file?
fn has_hazardous_iteration(lexed: &Lexed<'_>, sym: &str, in_test: &dyn Fn(usize) -> bool) -> bool {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident || in_test(toks[i].line) {
            continue;
        }
        let w = lexed.text(i);
        // `for pat in …sym… { body }` — hazardous if the body emits.
        if w == "for" {
            if let Some((expr_from, body_open)) = for_header(lexed, i) {
                let names_sym = (expr_from..body_open)
                    .any(|j| toks[j].kind == TokenKind::Ident && lexed.text(j) == sym);
                if names_sym {
                    if let Some(body_close) = matching(toks, body_open) {
                        if range_has_sink(lexed, body_open + 1, body_close) {
                            return true;
                        }
                    }
                }
            }
            continue;
        }
        // `sym.iter()` / `.keys()` / … — hazardous if the enclosing
        // statement emits, float-sums, or collects into an ordered
        // container that is never sorted.
        if w == sym
            && i + 2 < toks.len()
            && lexed.is_punct(i + 1, b'.')
            && toks[i + 2].kind == TokenKind::Ident
            && ITER_METHODS.contains(&lexed.text(i + 2))
            && i + 3 < toks.len()
            && lexed.is_punct(i + 3, b'(')
            && statement_is_hazardous(lexed, i)
        {
            return true;
        }
    }
    false
}

/// For a `for` keyword at `i`, the token range of its iterable
/// expression (just past `in`) and the body's `{`.
fn for_header(lexed: &Lexed<'_>, i: usize) -> Option<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut j = i + 1;
    let mut in_at = None;
    while j < toks.len() {
        match toks[j].kind {
            TokenKind::Ident if lexed.text(j) == "in" && in_at.is_none() => in_at = Some(j),
            TokenKind::Punct(b'{') => return in_at.map(|a| (a + 1, j)),
            TokenKind::Punct(b';') | TokenKind::Punct(b'}') => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Does the token range contain an output sink (formatting macro or
/// buffer/encoder method call)?
fn range_has_sink(lexed: &Lexed<'_>, from: usize, to: usize) -> bool {
    let toks = &lexed.tokens;
    for (j, tok) in toks.iter().enumerate().take(to).skip(from) {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let w = lexed.text(j);
        if SINK_MACROS.contains(&w) && j + 1 < to && lexed.is_punct(j + 1, b'!') {
            return true;
        }
        if is_sink_method(w) && j > from && lexed.is_punct(j - 1, b'.') {
            return true;
        }
    }
    false
}

/// Hazard analysis for the statement containing the iteration that
/// starts at token `i` (the symbol ident of `sym.iter()…`).
fn statement_is_hazardous(lexed: &Lexed<'_>, i: usize) -> bool {
    let toks = &lexed.tokens;
    // Statement extent: back to the previous `;`/`{`/`}`, forward to
    // the next `;` (stepping over nested delimiters).
    let mut s = i;
    while s > 0 {
        match toks[s - 1].kind {
            TokenKind::Punct(b';') | TokenKind::Punct(b'{') | TokenKind::Punct(b'}') => break,
            _ => s -= 1,
        }
    }
    let mut e = i;
    while e < toks.len() {
        match toks[e].kind {
            TokenKind::Punct(b'(') | TokenKind::Punct(b'[') | TokenKind::Punct(b'{') => {
                match matching(toks, e) {
                    Some(c) => e = c + 1,
                    None => break,
                }
            }
            TokenKind::Punct(b';') => break,
            _ => e += 1,
        }
    }

    // Float summation order is itself the hazard.
    for j in s..e.min(toks.len()) {
        if toks[j].kind == TokenKind::Ident
            && lexed.text(j) == "sum"
            && (s..e)
                .any(|k| toks[k].kind == TokenKind::Ident && matches!(lexed.text(k), "f64" | "f32"))
        {
            return true;
        }
    }

    if range_has_sink(lexed, s, e.min(toks.len())) {
        return true;
    }

    // `.collect::<Vec<_>>()` / `::<String>`: ordered container built
    // from hash order — hazardous unless the binding is sorted later.
    let mut collects_ordered = false;
    for j in s..e.min(toks.len()) {
        if toks[j].kind == TokenKind::Ident && lexed.text(j) == "collect" {
            let tail = (j..(j + 8).min(e)).any(|k| {
                toks[k].kind == TokenKind::Ident
                    && matches!(lexed.text(k), "Vec" | "String" | "VecDeque")
            });
            if tail {
                collects_ordered = true;
            }
        }
    }
    if collects_ordered {
        // `let v = …collect…;` followed by `v.sort…` anywhere after.
        if toks[s].kind == TokenKind::Ident && lexed.text(s) == "let" {
            let mut b = s + 1;
            while b < i && toks[b].kind == TokenKind::Ident && lexed.text(b) == "mut" {
                b += 1;
            }
            if b < i && toks[b].kind == TokenKind::Ident {
                let binding = lexed.text(b);
                for j in e..toks.len() {
                    if toks[j].kind == TokenKind::Ident
                        && lexed.text(j) == binding
                        && j + 2 < toks.len()
                        && lexed.is_punct(j + 1, b'.')
                        && toks[j + 2].kind == TokenKind::Ident
                        && lexed.text(j + 2).starts_with("sort")
                    {
                        return false; // sorted before any emission
                    }
                }
            }
        }
        return true;
    }
    false
}

/// L10 — swallowed-Result findings: `(line, what)`.
pub fn swallow_sites(lexed: &Lexed<'_>, _tree: &ItemTree) -> Vec<(usize, String)> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        let w = lexed.text(i);
        // `let _ = <call>;` — but not `let _ = write!(…)`, where the
        // `!` marks a macro whose Result the io-writer idiom already
        // accounts for.
        if w == "let"
            && (i == 0
                || matches!(
                    toks[i - 1].kind,
                    TokenKind::Punct(b';') | TokenKind::Punct(b'{') | TokenKind::Punct(b'}')
                ))
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokenKind::Ident
            && lexed.text(i + 1) == "_"
            && lexed.is_punct(i + 2, b'=')
        {
            let mut has_call = false;
            let mut has_macro = false;
            let mut j = i + 3;
            while j < toks.len() {
                match toks[j].kind {
                    TokenKind::Punct(b';') => break,
                    TokenKind::Punct(b'(') => has_call = true,
                    TokenKind::Punct(b'!') => has_macro = true,
                    _ => {}
                }
                j += 1;
            }
            if has_call && !has_macro {
                out.push((toks[i].line, "`let _ = …` on a fallible call".to_string()));
            }
        }
        // Statement-level `….ok();` — the chain's Result vanishes.
        if w == "ok"
            && i > 0
            && lexed.is_punct(i - 1, b'.')
            && i + 3 < toks.len()
            && lexed.is_punct(i + 1, b'(')
            && lexed.is_punct(i + 2, b')')
            && lexed.is_punct(i + 3, b';')
        {
            out.push((toks[i].line, "statement-level `.ok()`".to_string()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;

    fn l8(src: &str) -> Vec<usize> {
        let lx = lex(src);
        let tree = parse(&lx);
        atomic_findings(&lx, &tree)
            .into_iter()
            .map(|(l, _)| l)
            .collect()
    }

    fn l9(src: &str) -> Vec<usize> {
        let lx = lex(src);
        let tree = parse(&lx);
        hash_flow_findings(&lx, &tree)
            .into_iter()
            .map(|(l, _)| l)
            .collect()
    }

    fn l10(src: &str) -> Vec<usize> {
        let lx = lex(src);
        let tree = parse(&lx);
        swallow_sites(&lx, &tree)
            .into_iter()
            .map(|(l, _)| l)
            .collect()
    }

    #[test]
    fn relaxed_publish_fires() {
        let src = "\
impl S {
    fn publish(&mut self, v: u64) {
        self.data = v;
        self.ready.store(true, Ordering::Relaxed);
    }
}
";
        assert_eq!(l8(src), vec![4]);
    }

    #[test]
    fn counter_relaxed_is_fine_and_release_store_is_fine() {
        let src = "\
impl S {
    fn bump(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
    fn publish(&mut self, v: u64) {
        self.data = v;
        self.ready.store(true, Ordering::Release);
    }
}
";
        assert!(l8(src).is_empty());
    }

    #[test]
    fn seqcst_single_atomic_fires_two_atomics_exempt() {
        let one = "\
impl S {
    fn bump(&self) {
        self.hits.fetch_add(1, Ordering::SeqCst);
    }
}
";
        assert_eq!(l8(one), vec![3]);
        let two = "\
impl S {
    fn handoff(&self) {
        self.head.store(1, Ordering::SeqCst);
        let t = self.tail.load(Ordering::SeqCst);
        let _n = t;
    }
}
";
        assert!(l8(two).is_empty());
    }

    #[test]
    fn vec_swap_is_not_an_atomic_op() {
        let src = "\
fn f(v: &mut Vec<u8>) {
    v.swap(0, 1);
}
";
        assert!(l8(src).is_empty());
    }

    #[test]
    fn hash_to_csv_fires_on_all_mentions() {
        let src = "\
use std::collections::HashMap;
struct T { counts: HashMap<u32, u64> }
impl T {
    fn emit(&self, out: &mut String) {
        for (k, v) in self.counts.iter() {
            out.push_str(&format!(\"{k},{v}\\n\"));
        }
    }
}
";
        // Import line 1 + field decl line 2.
        assert_eq!(l9(src), vec![1, 2]);
    }

    #[test]
    fn keyed_cache_is_clean() {
        let src = "\
use std::collections::HashMap;
struct Cache { map: HashMap<u32, u64> }
impl Cache {
    fn get(&mut self, k: u32) -> u64 {
        if let Some(v) = self.map.get(&k) { return *v; }
        let v = compute(k);
        self.map.insert(k, v);
        v
    }
}
";
        assert!(l9(src).is_empty());
    }

    #[test]
    fn collect_to_vec_then_serialize_fires_but_sorted_is_clean() {
        let hazard = "\
use std::collections::HashMap;
fn dump(m: &HashMap<u32, u64>, out: &mut String) {
    let rows = m.iter().collect::<Vec<_>>();
    for (k, v) in rows {
        out.push_str(&format!(\"{k},{v}\\n\"));
    }
}
";
        assert_eq!(l9(hazard), vec![1, 2]);
        let sorted = "\
use std::collections::HashMap;
fn dump(m: &HashMap<u32, u64>, out: &mut String) {
    let mut rows = m.iter().collect::<Vec<_>>();
    rows.sort();
    for (k, v) in rows {
        out.push_str(&format!(\"{k},{v}\\n\"));
    }
}
";
        assert!(l9(sorted).is_empty());
    }

    #[test]
    fn float_sum_over_hash_iteration_fires() {
        let src = "\
use std::collections::HashMap;
fn total(m: &HashMap<u32, f64>) -> f64 {
    m.values().sum::<f64>()
}
";
        assert_eq!(l9(src), vec![1, 2]);
    }

    #[test]
    fn int_sum_and_len_are_order_free() {
        let src = "\
use std::collections::HashMap;
fn total(m: &HashMap<u32, u64>) -> u64 {
    let n = m.len() as u64;
    m.values().sum::<u64>() + n
}
";
        assert!(l9(src).is_empty());
    }

    #[test]
    fn iteration_in_tests_does_not_taint() {
        let src = "\
use std::collections::HashMap;
struct T { m: HashMap<u32, u64> }
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let t = super::T { m: Default::default() };
        for (k, v) in t.m.iter() { println!(\"{k}{v}\"); }
    }
}
";
        assert!(l9(src).is_empty());
    }

    #[test]
    fn swallowed_result_fires() {
        let src = "\
fn f(s: &std::net::TcpStream) {
    let _ = s.set_nodelay(true);
    s.shutdown(std::net::Shutdown::Both).ok();
}
";
        assert_eq!(l10(src), vec![2, 3]);
    }

    #[test]
    fn write_macro_and_plain_discard_are_fine() {
        let src = "\
fn f(out: &mut String, g: Guard) {
    let _ = write!(out, \"x\");
    let _ = g;
}
";
        assert!(l10(src).is_empty());
    }
}
