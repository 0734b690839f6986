//! The workspace lock-order graph behind rule L7.
//!
//! Nodes are lock *declarations*: `Mutex`/`RwLock` struct fields
//! (named `Type.field`), statics (named `NAME`), and function-local
//! `Mutex::new` bindings (named `func::name`). An edge A→B is
//! recorded when B is acquired at a point where a guard for A is
//! still live; a cycle in that graph means two code paths can take
//! the same locks in opposite orders — a potential deadlock — and the
//! finding prints the witness path (each hold site and acquisition
//! site by file:line).
//!
//! Guard liveness is tracked per function over the token stream:
//! a `let`-bound guard lives until its enclosing brace scope closes
//! or an explicit `drop(name)`; an unbound guard (expression
//! statement or `let _ =`) dies at the end of its statement.
//! `if let` / `while let` guards and guards returned out of the
//! function are *not* tracked — deliberately under-approximate:
//! the graph may miss edges but never fabricates one, so a reported
//! cycle is always backed by real acquisition sites.
//!
//! Receiver resolution is name-based: `self.field.lock()` resolves
//! through the surrounding `impl`'s self type; a bare `name.lock()`
//! resolves to a local lock binding, then to a struct field if the
//! field name is unique across the table, then to a static. Unknown
//! receivers (`stdout().lock()`, guards passed in as arguments) are
//! ignored. Only zero-argument `.lock()` / `.read()` / `.write()`
//! calls count, which keeps io `write(buf)` calls out of the table;
//! `try_*` variants never block and are excluded.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Item, ItemKind, ItemTree};
use crate::lexer::{matching, Lexed, TokenKind};

/// One acquired-while-held edge.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Node whose guard was live.
    pub held: String,
    /// Line where the held guard was acquired.
    pub held_line: usize,
    /// Node being acquired.
    pub acquired: String,
    /// Acquisition site.
    pub line: usize,
    pub path: String,
    pub func: String,
}

/// The assembled graph.
#[derive(Default)]
pub struct LockGraph {
    pub nodes: BTreeSet<String>,
    pub edges: Vec<Edge>,
}

/// Build the graph from already-lexed files: `(path, lexed, tree)`.
pub fn build(files: &[(&str, &Lexed<'_>, &ItemTree)]) -> LockGraph {
    let mut g = LockGraph::default();
    // Pass 1: the lock table — fields and statics across all files.
    let mut fields: BTreeMap<String, BTreeSet<String>> = BTreeMap::new(); // field → nodes
    let mut statics: BTreeSet<String> = BTreeSet::new();
    for (_, lx, tree) in files {
        collect_decls(lx, &tree.items, &mut g.nodes, &mut fields, &mut statics);
    }
    // Pass 2: walk every non-test function body.
    for (path, lx, tree) in files {
        for f in tree.functions() {
            if f.cfg_test {
                continue;
            }
            FnWalker {
                lx,
                path,
                func: f.name,
                self_ty: f.self_ty,
                fields: &fields,
                statics: &statics,
                graph: &mut g,
            }
            .walk(f.body.0 + 1, f.body.1);
        }
    }
    g
}

impl LockGraph {
    /// Enumerate distinct cycles; each is the edge path that closes
    /// it. Cycles are found by DFS from each node in sorted order,
    /// visiting only nodes ≥ the start, so each cycle is reported
    /// rooted at its smallest node; duplicates with the same node
    /// sequence are dropped.
    pub fn cycles(&self) -> Vec<Vec<&Edge>> {
        // One representative edge per (from, to).
        let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
        let mut seen_pair = BTreeSet::new();
        for e in &self.edges {
            if seen_pair.insert((e.held.as_str(), e.acquired.as_str())) {
                adj.entry(e.held.as_str()).or_default().push(e);
            }
        }
        let mut out: Vec<Vec<&Edge>> = Vec::new();
        let mut seen_cycle: BTreeSet<Vec<&str>> = BTreeSet::new();
        let starts: Vec<&str> = adj.keys().copied().collect();
        for &start in &starts {
            let mut path: Vec<&Edge> = Vec::new();
            let mut on_path: BTreeSet<&str> = BTreeSet::new();
            on_path.insert(start);
            dfs(start, start, &adj, &mut path, &mut on_path, &mut |cycle| {
                let key: Vec<&str> = cycle.iter().map(|e| e.held.as_str()).collect();
                if seen_cycle.insert(key) {
                    out.push(cycle.to_vec());
                }
            });
        }
        out
    }

    /// Render one cycle as a witness message.
    pub fn witness(cycle: &[&Edge]) -> String {
        let steps: Vec<String> = cycle
            .iter()
            .map(|e| {
                format!(
                    "lock `{}` held at {}:{} while acquiring `{}` at {}:{} (in {})",
                    e.held, e.path, e.held_line, e.acquired, e.path, e.line, e.func
                )
            })
            .collect();
        format!("lock-order cycle: {}", steps.join("; "))
    }
}

fn dfs<'g>(
    start: &str,
    at: &'g str,
    adj: &BTreeMap<&'g str, Vec<&'g Edge>>,
    path: &mut Vec<&'g Edge>,
    on_path: &mut BTreeSet<&'g str>,
    emit: &mut impl FnMut(&[&'g Edge]),
) {
    if path.len() > 16 {
        return; // cycle longer than any real lock chain; bail
    }
    let Some(edges) = adj.get(at) else { return };
    for &e in edges {
        let to = e.acquired.as_str();
        if to == start {
            path.push(e);
            emit(path);
            path.pop();
            continue;
        }
        // Root each cycle at its smallest node: never descend below start.
        if to < start || on_path.contains(to) {
            continue;
        }
        path.push(e);
        on_path.insert(to);
        dfs(start, to, adj, path, on_path, emit);
        on_path.remove(to);
        path.pop();
    }
}

/// Walk the item tree collecting lock declarations.
fn collect_decls(
    lx: &Lexed<'_>,
    items: &[Item],
    nodes: &mut BTreeSet<String>,
    fields: &mut BTreeMap<String, BTreeSet<String>>,
    statics: &mut BTreeSet<String>,
) {
    for it in items {
        if it.cfg_test {
            continue;
        }
        match it.kind {
            ItemKind::Struct => {
                if let Some((o, c)) = it.body {
                    for (field, node) in struct_lock_fields(lx, &it.name, o, c) {
                        nodes.insert(node.clone());
                        fields.entry(field).or_default().insert(node);
                    }
                }
            }
            ItemKind::Static if !it.name.is_empty() && static_is_lock(lx, it.line_range) => {
                nodes.insert(it.name.clone());
                statics.insert(it.name.clone());
            }
            _ => {}
        }
        collect_decls(lx, &it.children, nodes, fields, statics);
    }
}

/// Fields of `ty`'s body `{o..c}` whose type mentions Mutex/RwLock.
fn struct_lock_fields(lx: &Lexed<'_>, ty: &str, o: usize, c: usize) -> Vec<(String, String)> {
    let toks = &lx.tokens;
    let mut out = Vec::new();
    let mut i = o + 1;
    while i < c {
        // Skip field attributes and visibility.
        if lx.is_punct(i, b'#') {
            if let Some(close) = toks
                .get(i + 1)
                .filter(|t| t.kind == TokenKind::Punct(b'['))
                .and_then(|_| matching(toks, i + 1))
            {
                i = close + 1;
                continue;
            }
        }
        if lx.is_ident(i, "pub") {
            i += 1;
            if i < c && lx.is_punct(i, b'(') {
                i = match matching(toks, i) {
                    Some(cl) => cl + 1,
                    None => break,
                };
            }
            continue;
        }
        // `name :` then the type up to a top-level `,`.
        if toks[i].kind == TokenKind::Ident && i + 1 < c && lx.is_punct(i + 1, b':') {
            let field = lx.text(i).to_string();
            let mut j = i + 2;
            let mut angle = 0usize;
            let mut nest = 0usize;
            let mut is_lock = false;
            while j < c {
                match toks[j].kind {
                    TokenKind::Punct(b'<') => angle += 1,
                    TokenKind::Punct(b'>') => angle = angle.saturating_sub(1),
                    TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => nest += 1,
                    TokenKind::Punct(b')') | TokenKind::Punct(b']') => {
                        nest = nest.saturating_sub(1)
                    }
                    TokenKind::Punct(b',') if angle == 0 && nest == 0 => break,
                    TokenKind::Ident => {
                        let w = lx.text(j);
                        if w == "Mutex" || w == "RwLock" {
                            is_lock = true;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if is_lock {
                out.push((field.clone(), format!("{ty}.{field}")));
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Does the static declared on `line_range` mention Mutex/RwLock? The
/// item tree doesn't keep token ranges for statics, so check by line.
fn static_is_lock(lx: &Lexed<'_>, line_range: (usize, usize)) -> bool {
    lx.tokens.iter().any(|t| {
        t.line >= line_range.0
            && t.line <= line_range.1
            && t.kind == TokenKind::Ident
            && matches!(&lx.src[t.start..t.end], "Mutex" | "RwLock")
    })
}

/// A live guard during the statement walk.
struct Guard {
    /// Binding name (`None` for an unbound temporary).
    name: Option<String>,
    node: String,
    line: usize,
    /// Brace depth the guard was created at; dies when it closes.
    depth: usize,
}

struct FnWalker<'a, 'src> {
    lx: &'a Lexed<'src>,
    path: &'a str,
    func: &'a str,
    self_ty: Option<&'a str>,
    fields: &'a BTreeMap<String, BTreeSet<String>>,
    statics: &'a BTreeSet<String>,
    graph: &'a mut LockGraph,
}

impl<'a, 'src> FnWalker<'a, 'src> {
    fn walk(&mut self, from: usize, to: usize) {
        let toks = &self.lx.tokens;
        let mut depth = 0usize;
        let mut live: Vec<Guard> = Vec::new();
        // Local `let x = Mutex::new(..)` locks, name → node.
        let mut locals: BTreeMap<String, String> = BTreeMap::new();
        // Binding of the statement currently being scanned, if it
        // started with a top-level `let`.
        let mut stmt_binding: Option<String> = None;
        let mut stmt_start = true;

        let mut i = from;
        while i < to {
            let t = &toks[i];
            match t.kind {
                TokenKind::Punct(b'{') => {
                    // Unbound temporaries (including `if let` / `match`
                    // scrutinee guards) are not tracked into blocks:
                    // under-approximate rather than keep a guard alive
                    // past its real extent.
                    live.retain(|g| g.name.is_some());
                    depth += 1;
                    stmt_start = true;
                    stmt_binding = None;
                    i += 1;
                }
                TokenKind::Punct(b'}') => {
                    live.retain(|g| g.depth < depth);
                    depth = depth.saturating_sub(1);
                    stmt_start = true;
                    stmt_binding = None;
                    i += 1;
                }
                TokenKind::Punct(b';') => {
                    live.retain(|g| g.name.is_some());
                    stmt_binding = None;
                    stmt_start = true;
                    i += 1;
                }
                TokenKind::Ident => {
                    let w = self.lx.text(i);
                    if w == "let" && stmt_start {
                        // `if let` never hits this arm: `if` cleared
                        // stmt_start one token earlier.
                        let (binding, next) = self.let_binding(i + 1, to);
                        // A `let x = Mutex::new(..)` declares a lock,
                        // not a guard.
                        if let Some(name) = &binding {
                            if self.is_lock_ctor(next, to) {
                                let node = format!("{}::{}", self.func, name);
                                self.graph.nodes.insert(node.clone());
                                locals.insert(name.clone(), node);
                                stmt_binding = None;
                            } else {
                                stmt_binding = binding.clone();
                            }
                        }
                        stmt_start = false;
                        i = next;
                        continue;
                    }
                    if w == "drop" && i + 3 < to && self.lx.is_punct(i + 1, b'(') {
                        if toks[i + 2].kind == TokenKind::Ident && self.lx.is_punct(i + 3, b')') {
                            let victim = self.lx.text(i + 2);
                            live.retain(|g| g.name.as_deref() != Some(victim));
                        }
                        stmt_start = false;
                        i += 1;
                        continue;
                    }
                    if matches!(w, "lock" | "read" | "write")
                        && i > from
                        && self.lx.is_punct(i - 1, b'.')
                        && i + 2 < to
                        && self.lx.is_punct(i + 1, b'(')
                        && self.lx.is_punct(i + 2, b')')
                    {
                        if let Some(node) = self.resolve(i - 1, from, &locals) {
                            for g in &live {
                                self.graph.edges.push(Edge {
                                    held: g.node.clone(),
                                    held_line: g.line,
                                    acquired: node.clone(),
                                    line: t.line,
                                    path: self.path.to_string(),
                                    func: self.func.to_string(),
                                });
                            }
                            self.graph.nodes.insert(node.clone());
                            // The `let` binding names this guard only
                            // when the call chain IS the RHS (modulo
                            // unwrap/expect/`?`): `let n = q.lock()
                            // .unwrap().len();` binds the length, not
                            // the guard, and that temporary dies at
                            // the semicolon.
                            let name = if self.ends_as_binding(i + 3, to) {
                                stmt_binding.clone()
                            } else {
                                None
                            };
                            live.push(Guard {
                                name,
                                node,
                                line: t.line,
                                depth,
                            });
                        }
                        i += 3;
                        stmt_start = false;
                        continue;
                    }
                    stmt_start = false;
                    i += 1;
                }
                _ => {
                    stmt_start = false;
                    i += 1;
                }
            }
        }
    }

    /// Extract the binding name of a `let` pattern starting at `i`:
    /// `mut x`, `x`, `_` (→ None), `(a, b)` / `Ok(g)` → first inner
    /// identifier. Returns (name, index past the pattern's first
    /// identifier) — scanning resumes there, which is enough because
    /// only the RHS can contain acquisitions.
    fn let_binding(&self, i: usize, to: usize) -> (Option<String>, usize) {
        let toks = &self.lx.tokens;
        let mut j = i;
        while j < to {
            match toks[j].kind {
                TokenKind::Ident => {
                    let w = self.lx.text(j);
                    if w == "mut" {
                        j += 1;
                        continue;
                    }
                    if w == "_" {
                        return (None, j + 1);
                    }
                    // `Ok(g)` / `Some(mut g)`: descend into the parens.
                    if j + 1 < to && self.lx.is_punct(j + 1, b'(') {
                        j += 2;
                        continue;
                    }
                    return (Some(w.to_string()), j + 1);
                }
                TokenKind::Punct(b'(') => {
                    j += 1; // tuple pattern: first element's binding
                }
                TokenKind::Punct(b'_') => return (None, j + 1),
                _ => return (None, j + 1),
            }
        }
        (None, to)
    }

    /// Is the RHS after the pattern a `Mutex::new(` / `RwLock::new(`
    /// constructor (searching up to the statement's `;`)?
    fn is_lock_ctor(&self, from: usize, to: usize) -> bool {
        let toks = &self.lx.tokens;
        let mut j = from;
        while j < to {
            match toks[j].kind {
                TokenKind::Punct(b';') => return false,
                TokenKind::Ident => {
                    let w = self.lx.text(j);
                    if (w == "Mutex" || w == "RwLock")
                        && j + 3 < to
                        && self.lx.is_punct(j + 1, b':')
                        && self.lx.is_punct(j + 2, b':')
                        && self.lx.is_ident(j + 3, "new")
                    {
                        return true;
                    }
                    j += 1;
                }
                _ => j += 1,
            }
        }
        false
    }

    /// Does the token stream from `j` (just past the lock call's `)`)
    /// run straight to the statement's `;`, modulo `.unwrap()`,
    /// `.expect(..)`, and `?`? If so, the statement's `let` binding
    /// holds the guard itself.
    fn ends_as_binding(&self, mut j: usize, to: usize) -> bool {
        let toks = &self.lx.tokens;
        loop {
            if j >= to {
                return false;
            }
            match toks[j].kind {
                TokenKind::Punct(b';') => return true,
                TokenKind::Punct(b'?') => j += 1,
                TokenKind::Punct(b'.') => {
                    if j + 2 >= to || toks[j + 1].kind != TokenKind::Ident {
                        return false;
                    }
                    let m = self.lx.text(j + 1);
                    if (m != "unwrap" && m != "expect") || !self.lx.is_punct(j + 2, b'(') {
                        return false;
                    }
                    match matching(toks, j + 2) {
                        Some(close) if close < to => j = close + 1,
                        _ => return false,
                    }
                }
                _ => return false,
            }
        }
    }

    /// Resolve the receiver chain ending at the `.` before a
    /// lock/read/write call into a lock node.
    fn resolve(
        &self,
        dot: usize,
        floor: usize,
        locals: &BTreeMap<String, String>,
    ) -> Option<String> {
        let toks = &self.lx.tokens;
        // Walk backwards over `ident`, trailing `[…]`/`(…)` groups,
        // and the `.`s joining them.
        let mut chain: Vec<&str> = Vec::new();
        let mut j = dot;
        loop {
            if j == floor {
                break;
            }
            let mut k = j - 1;
            // Skip index/call groups back to their opener.
            while matches!(
                toks[k].kind,
                TokenKind::Punct(b']') | TokenKind::Punct(b')')
            ) {
                let (open, close) = if toks[k].kind == TokenKind::Punct(b']') {
                    (b'[', b']')
                } else {
                    (b'(', b')')
                };
                let mut d = 0usize;
                loop {
                    match toks[k].kind {
                        TokenKind::Punct(b) if b == close => d += 1,
                        TokenKind::Punct(b) if b == open => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == floor {
                        return None;
                    }
                    k -= 1;
                }
                if k == floor {
                    break;
                }
                k -= 1;
            }
            if toks[k].kind != TokenKind::Ident {
                break;
            }
            chain.push(self.lx.text(k));
            j = k;
            // Another `.` continues the chain.
            if j > floor && toks[j - 1].kind == TokenKind::Punct(b'.') {
                j -= 1;
            } else {
                break;
            }
        }
        // chain[0] is the segment closest to the lock call.
        let leaf = *chain.first()?;
        let via_self = chain.contains(&"self");
        if via_self {
            if let Some(ty) = self.self_ty {
                let node = format!("{ty}.{leaf}");
                if self.fields.get(leaf).is_some_and(|n| n.contains(&node)) {
                    return Some(node);
                }
            }
        }
        if let Some(node) = locals.get(leaf) {
            return Some(node.clone());
        }
        if let Some(nodes) = self.fields.get(leaf) {
            if nodes.len() == 1 {
                if let Some(node) = nodes.iter().next() {
                    return Some(node.clone());
                }
            }
        }
        if self.statics.contains(leaf) {
            return Some(leaf.to_string());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;

    fn graph_of(src: &str) -> LockGraph {
        let lx = lex(src);
        let tree = parse(&lx);
        build(&[("crates/serve/src/x.rs", &lx, &tree)])
    }

    const CYCLE: &str = r#"
use std::sync::Mutex;
pub struct App { queue: Mutex<Vec<u8>>, stats: Mutex<u64> }
impl App {
    pub fn enqueue(&self) {
        let q = self.queue.lock().unwrap();
        let s = self.stats.lock().unwrap();
        drop(s); drop(q);
    }
    pub fn report(&self) {
        let s = self.stats.lock().unwrap();
        let q = self.queue.lock().unwrap();
        drop(q); drop(s);
    }
}
"#;

    #[test]
    fn two_mutex_cycle_is_found_with_witness() {
        let g = graph_of(CYCLE);
        assert_eq!(g.edges.len(), 2, "{:?}", g.edges);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        let msg = LockGraph::witness(&cycles[0]);
        assert!(msg.contains("App.queue"), "{msg}");
        assert!(msg.contains("App.stats"), "{msg}");
        assert!(msg.contains("crates/serve/src/x.rs:"), "{msg}");
    }

    #[test]
    fn guard_dropped_before_second_lock_is_clean() {
        let src = r#"
use std::sync::Mutex;
pub struct App { queue: Mutex<Vec<u8>>, stats: Mutex<u64> }
impl App {
    pub fn enqueue(&self) {
        let q = self.queue.lock().unwrap();
        drop(q);
        let _s = self.stats.lock().unwrap();
    }
    pub fn report(&self) {
        let s = self.stats.lock().unwrap();
        drop(s);
        let _q = self.queue.lock().unwrap();
    }
}
"#;
        let g = graph_of(src);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn scope_exit_releases_guards() {
        let src = r#"
use std::sync::Mutex;
pub struct App { a: Mutex<u8>, b: Mutex<u8> }
impl App {
    pub fn f(&self) {
        { let g = self.a.lock().unwrap(); let _ = *g; }
        let h = self.b.lock().unwrap();
        { let g = self.a.lock().unwrap(); let _ = *g; }
        drop(h);
    }
}
"#;
        let g = graph_of(src);
        // Only b→a (a's first guard died with its block).
        assert_eq!(g.edges.len(), 1, "{:?}", g.edges);
        assert_eq!(g.edges[0].held, "App.b");
        assert_eq!(g.edges[0].acquired, "App.a");
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = r#"
use std::sync::Mutex;
pub struct App { a: Mutex<Vec<u8>>, b: Mutex<u8> }
impl App {
    pub fn f(&self) {
        self.a.lock().unwrap().push(1);
        let _g = self.b.lock().unwrap();
    }
    pub fn g(&self) {
        self.b.lock().unwrap();
        self.a.lock().unwrap().push(2);
    }
}
"#;
        let g = graph_of(src);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn same_statement_nesting_makes_an_edge() {
        let src = r#"
use std::sync::Mutex;
pub struct App { a: Mutex<u8>, b: Mutex<u8> }
impl App {
    pub fn f(&self) {
        let x = *self.a.lock().unwrap() + *self.b.lock().unwrap();
        let _ = x;
    }
}
"#;
        let g = graph_of(src);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].held, "App.a");
        assert_eq!(g.edges[0].acquired, "App.b");
    }

    #[test]
    fn self_deadlock_is_a_one_node_cycle() {
        let src = r#"
use std::sync::Mutex;
static QUEUE: Mutex<Vec<u8>> = Mutex::new(Vec::new());
pub fn f() {
    let g = QUEUE.lock().unwrap();
    let h = QUEUE.lock().unwrap();
    drop(h); drop(g);
}
"#;
        let g = graph_of(src);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 1);
        assert!(LockGraph::witness(&cycles[0]).contains("QUEUE"));
    }

    #[test]
    fn rwlock_read_write_and_statics_resolve() {
        let src = r#"
use std::sync::RwLock;
static TABLE: RwLock<Vec<u8>> = RwLock::new(Vec::new());
pub struct S { cfg: RwLock<u8> }
impl S {
    pub fn f(&self) {
        let t = TABLE.read().unwrap();
        let _c = self.cfg.write().unwrap();
        drop(t);
    }
}
"#;
        let g = graph_of(src);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].held, "TABLE");
        assert_eq!(g.edges[0].acquired, "S.cfg");
    }

    #[test]
    fn io_write_with_args_is_not_a_lock() {
        let src = r#"
use std::sync::Mutex;
pub struct S { log: Mutex<Vec<u8>> }
impl S {
    pub fn f(&self, mut w: impl std::io::Write, buf: &[u8]) {
        let g = self.log.lock().unwrap();
        w.write(buf).unwrap();
        drop(g);
    }
}
"#;
        let g = graph_of(src);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn test_functions_are_exempt() {
        let src = r#"
use std::sync::Mutex;
pub struct App { a: Mutex<u8>, b: Mutex<u8> }
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let app = super::App { a: Mutex::new(0), b: Mutex::new(0) };
        let g = app.a.lock().unwrap();
        let h = app.b.lock().unwrap();
        drop(h); drop(g);
    }
}
"#;
        let g = graph_of(src);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn local_mutex_is_a_scoped_node() {
        let src = r#"
use std::sync::Mutex;
pub fn f() {
    let m = Mutex::new(0u8);
    let g = m.lock().unwrap();
    let h = m.lock().unwrap();
    drop(h); drop(g);
}
"#;
        let g = graph_of(src);
        assert_eq!(g.cycles().len(), 1);
        assert!(g.nodes.contains("f::m"));
    }

    #[test]
    fn indexed_slot_locks_resolve_through_the_index() {
        let src = r#"
use std::sync::Mutex;
pub struct Ring { slots: Box<[Mutex<u8>]>, head: Mutex<usize> }
impl Ring {
    pub fn put(&self, i: usize) {
        let h = self.head.lock().unwrap();
        let _s = self.slots[i].lock().unwrap();
        drop(h);
    }
}
"#;
        let g = graph_of(src);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].acquired, "Ring.slots");
    }
}
