//! Workspace-wide call graph over the token streams of [`crate::parser`].
//!
//! Resolution is *text-level* and crate-aware — the same deliberate trade
//! every analyzer in this crate makes (DESIGN.md §6k) — but method
//! receivers get a lightweight local type inference so that `buf.push(…)`
//! on a `Vec` does not resolve to the workspace's `RecordWriter::push`:
//!
//! * `self.m(…)` — the methods named `m` of the enclosing impl's Self
//!   type;
//! * `self.field.m(…)` — the field's declared type (struct declarations
//!   are scanned workspace-wide for `field: Type` pairs), then `Type::m`;
//! * `x.m(…)` — the local's type when it can be inferred from a typed
//!   binding (`let x: Type`, a `x: Type` parameter, or
//!   `let x = Type::new(…)`), then `Type::m`;
//! * a *typed* receiver whose type declares no method `m` is external —
//!   the call goes to std (`Vec::push`) or through a trait object;
//! * an *untyped* receiver (chained calls, pattern bindings) falls back to
//!   every workspace method named `m`, unless `m` is a well-known std
//!   method name (`STD_METHODS`) — those are always external;
//! * `Type::m(…)` / `Self::m(…)` — the methods of that type (turbofish
//!   segments are skipped); `module::f(…)` with a lowercase head resolves
//!   to the free functions named `f`;
//! * `f(…)` — every free function named `f` (uppercase heads are tuple
//!   struct / enum constructors and stay unresolved).
//!
//! Unresolved calls (std, closures, fn pointers) produce no edges; their
//! effects are covered by the *intrinsic* token scans in
//! [`crate::ipa::summary`]. The deliberate blind spots — deref-forwarded
//! methods, trait-default bodies, and workspace methods that share a
//! `STD_METHODS` name and are only ever called through untyped
//! receivers — are documented in DESIGN.md §6k next to the rules that
//! inherit them.

use std::collections::BTreeMap;

use crate::parser::{crate_of, impl_owners, Function, SourceFile, Token};

/// One function in the workspace graph.
pub struct FnNode {
    /// Index into the parsed file list.
    pub file: usize,
    /// Index into that file's `functions`.
    pub func: usize,
    pub name: String,
    /// Self type of the enclosing `impl`, if any.
    pub owner: Option<String>,
    /// Crate the defining file belongs to.
    pub krate: String,
    /// Outgoing call sites, in body token order.
    pub calls: Vec<CallSite>,
}

impl FnNode {
    /// Display name: `crate::Type::method` or `crate::function`.
    pub fn qname(&self) -> String {
        match &self.owner {
            Some(o) => format!("{}::{}::{}", self.krate, o, self.name),
            None => format!("{}::{}", self.krate, self.name),
        }
    }
}

/// One call site inside a function body.
pub struct CallSite {
    /// Token index (into the defining file's stream) of the callee name.
    pub token: usize,
    pub line: usize,
    /// Display label, e.g. `Type::method`, `.method`, or `function`.
    pub label: String,
    /// Candidate callees (node indices). Empty = unresolved/external.
    pub targets: Vec<usize>,
    /// A `?` terminates the method chain hanging off this call — its error
    /// propagates to the caller's error exit.
    pub question: bool,
    /// A contextualizing call (`.ctx`/`.map_err`/`.with_context`/`.ok`)
    /// appears on the chain before the `?` (or chain end).
    pub ctx_on_chain: bool,
    /// Every path from the function entry to this call passes a
    /// FaultSurface gate (`.op(`/`.wrap(`) — forward must-analysis over the
    /// caller's CFG.
    pub gated: bool,
}

/// The workspace call graph plus its reverse edges.
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// `callers[f]` = nodes with at least one call site targeting `f`.
    pub callers: Vec<Vec<usize>>,
}

/// Keywords that look like call heads (`if (…)`, `while (…)`) but are not.
const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "as", "in", "move", "else", "break",
    "continue", "let", "fn", "impl", "where", "ref", "mut", "dyn", "box", "await", "yield",
];

/// Chain calls that attach context or deliberately reshape an error.
const CTX_CALLS: &[&str] = &["ctx", "map_err", "with_context", "ok", "unwrap_or", "unwrap_or_else", "or_else"];

/// Lowercase path heads that are std (or std-like) modules: a call through
/// one is external even when the workspace happens to define a free
/// function with the same name (`fs::write` must never resolve to a repo
/// `write`).
const STD_HEADS: &[&str] = &[
    "fs", "std", "io", "mem", "ptr", "cmp", "thread", "process", "env", "path", "iter", "slice",
    "str", "char", "fmt", "time",
];

/// Std/prelude method names. A call `recv.m(…)` whose receiver type could
/// not be inferred and whose name is in this list is treated as external
/// rather than resolving to every workspace method that happens to share
/// the name (`Vec::push` must never resolve to `RecordWriter::push`).
/// Workspace methods with these names still resolve through typed
/// receivers (`self.m`, `self.field.m`, `Type::m`, typed locals).
const STD_METHODS: &[&str] = &[
    // collections / slices
    "push", "pop", "insert", "remove", "get", "get_mut", "contains", "contains_key", "entry",
    "clear", "extend", "drain", "retain", "len", "is_empty", "truncate", "resize", "reserve",
    "split_off", "swap", "fill", "sort", "sort_by", "sort_by_key", "sort_unstable",
    "sort_unstable_by", "sort_unstable_by_key", "dedup", "binary_search", "binary_search_by",
    "first", "last", "windows", "chunks", "chunks_exact", "concat", "to_vec",
    // iterators
    "iter", "iter_mut", "into_iter", "next", "map", "filter", "filter_map", "flat_map",
    "flatten", "fold", "collect", "sum", "count", "rev", "zip", "enumerate", "take", "skip",
    "take_while", "skip_while", "position", "find", "any", "all", "min", "max", "min_by",
    "max_by", "min_by_key", "max_by_key", "nth", "peekable", "peek", "step_by", "keys",
    "values", "values_mut", "by_ref", "cloned", "copied",
    // io / sync (`create`/`open`/`append`/`truncate` are the OpenOptions
    // builder chain — untyped because the receiver is a `)` of the
    // previous builder call)
    "write", "write_all", "write_fmt", "read", "read_exact", "read_to_end", "read_to_string",
    "flush", "seek", "sync_all", "sync_data", "set_len", "lock", "send", "recv", "try_recv",
    "join", "spawn", "store", "create", "create_new", "open", "append", "truncate",
    // conversions / options / strings
    "clone", "as_ref", "as_mut", "as_str", "as_slice", "as_bytes", "as_path", "to_owned",
    "to_string", "to_path_buf", "into", "try_into", "parse", "unwrap_or_default", "ok_or",
    "ok_or_else", "and_then", "is_some", "is_none", "is_ok", "is_err", "push_str", "trim",
    "starts_with", "ends_with", "split", "splitn", "replace", "chars", "bytes", "display",
    "exists", "is_file", "is_dir", "extension", "file_name", "parent", "to_le_bytes",
    "to_be_bytes", "elapsed", "as_secs", "as_millis", "as_micros", "abs", "is_finite",
    "is_nan",
];

fn tx(t: &[Token], k: usize) -> &str {
    t.get(k).map(|x| x.text.as_str()).unwrap_or("")
}

/// Index just past the `)` matching the `(` at `open`.
pub(crate) fn close_paren(t: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < t.len() {
        match t[i].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    t.len()
}

fn lower_head(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
}

/// Read a type path starting at token `k`: skips `&`/`mut`/lifetimes, then
/// follows `A::B::C`, returning the final path segment (the type head
/// before any generics). `None` for tuple, array, `dyn`, `impl`, and
/// fn-pointer types — those receivers stay untyped.
fn type_head(t: &[Token], mut k: usize) -> Option<String> {
    loop {
        match tx(t, k) {
            "&" | "&&" | "mut" => k += 1,
            "'" => k += 2,
            _ => break,
        }
    }
    let s = tx(t, k);
    if !t.get(k).is_some_and(Token::is_name) || s == "dyn" || s == "impl" || s == "fn" {
        return None;
    }
    let mut head = s.to_string();
    while tx(t, k + 1) == "::" && t.get(k + 2).is_some_and(Token::is_name) {
        k += 2;
        head = tx(t, k).to_string();
    }
    Some(head)
}

/// `field: Type` pairs of every named-field `struct` declaration, keyed by
/// `(struct name, field name)`. Feeds `self.field.m(…)` receiver typing.
fn struct_fields(files: &[&SourceFile]) -> BTreeMap<(String, String), String> {
    let mut out = BTreeMap::new();
    for file in files {
        let t = &file.tokens;
        let mut i = 0;
        while i + 1 < t.len() {
            if tx(t, i) != "struct" || !t[i + 1].is_name() {
                i += 1;
                continue;
            }
            let owner = tx(t, i + 1).to_string();
            // Find the body `{` (skipping generics); `;`/`(` at angle
            // depth zero means a unit/tuple struct — no named fields.
            let mut j = i + 2;
            let mut angle = 0i64;
            let open = loop {
                if j >= t.len() {
                    break None;
                }
                match tx(t, j) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    "{" if angle <= 0 => break Some(j),
                    ";" | "(" if angle <= 0 => break None,
                    _ => {}
                }
                j += 1;
            };
            let Some(open) = open else {
                i = j.max(i + 2);
                continue;
            };
            // Fields: `name :` at brace depth 1 with all other nesting
            // closed (commas inside `<…>`/`(…)`/`[…]` belong to the type).
            let (mut brace, mut angle, mut paren, mut bracket) = (0i64, 0i64, 0i64, 0i64);
            let mut k = open;
            while k < t.len() {
                match tx(t, k) {
                    "{" => brace += 1,
                    "}" => {
                        brace -= 1;
                        if brace == 0 {
                            break;
                        }
                    }
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    ":" if brace == 1
                        && angle <= 0
                        && paren == 0
                        && bracket == 0
                        && k > 0
                        && t[k - 1].is_name() =>
                    {
                        if let Some(ty) = type_head(t, k + 1) {
                            out.insert((owner.clone(), tx(t, k - 1).to_string()), ty);
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            i = k.max(i + 2);
        }
    }
    out
}

/// Locals of `func` with inferrable types: typed params (`x: Type`),
/// typed lets (`let x: Type = …`), and constructor lets
/// (`let x = Type::new(…)` — any associated call with an uppercase head).
/// Flow-insensitive; a shadowing `let` overwrites the earlier type.
fn local_types(t: &[Token], func: &Function) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    // Locate the signature: the `fn` keyword immediately naming this
    // function (stepping past fn-pointer types in earlier params).
    let mut f = func.body.start;
    while f > 0 {
        f -= 1;
        if tx(t, f) == "fn" && tx(t, f + 1) == func.name {
            break;
        }
    }
    // Params: `name : Type` at paren depth 1, generics skipped.
    let mut k = f + 2;
    let mut angle = 0i64;
    while k < func.body.start && !(tx(t, k) == "(" && angle <= 0) {
        match tx(t, k) {
            "<" => angle += 1,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            _ => {}
        }
        k += 1;
    }
    let (mut paren, mut angle, mut bracket) = (0i64, 0i64, 0i64);
    while k < func.body.start {
        match tx(t, k) {
            "(" => paren += 1,
            ")" => {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            }
            "<" => angle += 1,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            ":" if paren == 1 && angle <= 0 && bracket == 0 && t[k - 1].is_name() => {
                if let Some(ty) = type_head(t, k + 1) {
                    out.insert(tx(t, k - 1).to_string(), ty);
                }
            }
            _ => {}
        }
        k += 1;
    }
    // Body lets.
    for g in func.body.clone() {
        if tx(t, g) != "let" {
            continue;
        }
        let mut j = g + 1;
        if tx(t, j) == "mut" {
            j += 1;
        }
        if !t.get(j).is_some_and(Token::is_name) {
            continue; // pattern binding — untyped
        }
        let name = tx(t, j).to_string();
        if tx(t, j + 1) == ":" {
            if let Some(ty) = type_head(t, j + 2) {
                out.insert(name, ty);
            }
        } else if tx(t, j + 1) == "=" {
            // `let x = path::Type::assoc(…)` — the last uppercase path
            // segment before the called name is the constructed type.
            let mut k = j + 2;
            let mut ty: Option<String> = None;
            while t.get(k).is_some_and(Token::is_name) && tx(t, k + 1) == "::" {
                if !lower_head(tx(t, k)) {
                    ty = Some(tx(t, k).to_string());
                }
                k += 2;
            }
            if let (Some(ty), true) =
                (ty, t.get(k).is_some_and(Token::is_name) && tx(t, k + 1) == "(")
            {
                out.insert(name, ty);
            }
        }
    }
    out
}

/// Walk the method chain hanging off a call whose arguments close at
/// `after`; returns `(question, ctx_on_chain)`.
pub(crate) fn chain_info(t: &[Token], mut pos: usize) -> (bool, bool) {
    let mut ctx = false;
    loop {
        if tx(t, pos) == "?" {
            return (true, ctx);
        }
        if tx(t, pos) == "." && t.get(pos + 1).is_some_and(Token::is_name) && tx(t, pos + 2) == "(" {
            if CTX_CALLS.contains(&tx(t, pos + 1)) {
                ctx = true;
            }
            pos = close_paren(t, pos + 2);
            continue;
        }
        return (false, ctx);
    }
}

/// Build the call graph over already-parsed files. `files` is the full
/// resolution scope; node `file` indices point into it.
pub fn build(files: &[&SourceFile]) -> CallGraph {
    // Pass 1: nodes + name indices.
    let mut nodes: Vec<FnNode> = Vec::new();
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        let owners = impl_owners(&file.tokens);
        for (gi, func) in file.functions.iter().enumerate() {
            let owner = owners
                .iter()
                .find(|(r, _)| r.contains(&func.body.start))
                .map(|(_, name)| name.clone());
            nodes.push(FnNode {
                file: fi,
                func: gi,
                name: func.name.clone(),
                owner,
                krate: crate_of(&file.rel),
                calls: Vec::new(),
            });
        }
    }
    for (id, n) in nodes.iter().enumerate() {
        match &n.owner {
            Some(o) => {
                methods.entry(&n.name).or_default().push(id);
                typed.entry((o, &n.name)).or_default().push(id);
            }
            None => free.entry(&n.name).or_default().push(id),
        }
    }

    // Pass 2: call sites. Resolution never creates self-edges on accident —
    // recursion is legitimate and the SCC condensation handles it.
    let fields = struct_fields(files);
    let mut all_calls: Vec<Vec<CallSite>> = Vec::with_capacity(nodes.len());
    for node in &nodes {
        let file = &files[node.file];
        let t = &file.tokens;
        let func = &file.functions[node.func];
        let gates = super::gate_dominated(t, func);
        let locals = local_types(t, func);
        let mut calls = Vec::new();
        for g in func.body.clone() {
            if !t[g].is_name() || tx(t, g + 1) != "(" {
                continue;
            }
            let name = t[g].text.as_str();
            if NON_CALL_WORDS.contains(&name) {
                continue;
            }
            let prev = if g == 0 { "" } else { tx(t, g - 1) };
            if prev == "fn" {
                continue; // nested definition, not a call
            }
            let (label, targets): (String, Vec<usize>) = if prev == "." {
                // `recv.m(…)` — infer the receiver type where the text
                // allows it; a typed receiver resolves only through its
                // type (a miss means std/deref/trait-object: external).
                let recv = if g >= 2 { tx(t, g - 2) } else { "" };
                let ty: Option<String> = if recv == "self" && (g < 3 || tx(t, g - 3) != ".") {
                    node.owner.clone()
                } else if g >= 4
                    && t[g - 2].is_name()
                    && tx(t, g - 3) == "."
                    && tx(t, g - 4) == "self"
                    && (g < 5 || tx(t, g - 5) != ".")
                {
                    // `self.field.m(…)` — the field's declared type.
                    node.owner
                        .as_ref()
                        .and_then(|o| fields.get(&(o.clone(), recv.to_string())))
                        .cloned()
                } else if g >= 2
                    && t[g - 2].is_name()
                    && (g < 3 || (tx(t, g - 3) != "." && tx(t, g - 3) != "::"))
                {
                    locals.get(recv).cloned()
                } else {
                    None
                };
                match ty {
                    Some(ty) => {
                        let ids = typed.get(&(ty.as_str(), name)).cloned().unwrap_or_default();
                        (format!("{ty}.{name}"), ids)
                    }
                    None if STD_METHODS.contains(&name) => (format!(".{name}"), Vec::new()),
                    None => (
                        format!(".{name}"),
                        methods.get(name).cloned().unwrap_or_default(),
                    ),
                }
            } else if prev == "::" && g >= 2 {
                // `Head::m(…)`, stepping back over a turbofish segment.
                let mut h = g - 2;
                if tx(t, h) == ">" || tx(t, h) == ">>" {
                    let mut depth = 0i64;
                    loop {
                        match tx(t, h) {
                            ">" => depth += 1,
                            ">>" => depth += 2,
                            "<" => depth -= 1,
                            _ => {}
                        }
                        if depth <= 0 || h == 0 {
                            break;
                        }
                        h -= 1;
                    }
                    // Expect `Head ::` before the `<…>` group.
                    if h >= 2 && tx(t, h - 1) == "::" {
                        h -= 2;
                    }
                }
                let head = tx(t, h).to_string();
                if head == "Self" {
                    let ids = node
                        .owner
                        .as_deref()
                        .and_then(|o| typed.get(&(o, name)))
                        .cloned()
                        .unwrap_or_default();
                    (format!("Self::{name}"), ids)
                } else if lower_head(&head) {
                    // Module path: free functions named `name` — unless the
                    // head is a std module, which is always external.
                    let ids = if STD_HEADS.contains(&head.as_str()) {
                        Vec::new()
                    } else {
                        free.get(name).cloned().unwrap_or_default()
                    };
                    (format!("{head}::{name}"), ids)
                } else {
                    let ids = typed
                        .get(&(head.as_str(), name))
                        .cloned()
                        .unwrap_or_default();
                    (format!("{head}::{name}"), ids)
                }
            } else if lower_head(name) {
                // Bare `f(…)` — free functions only; uppercase heads are
                // tuple-struct/variant constructors.
                (name.to_string(), free.get(name).cloned().unwrap_or_default())
            } else {
                continue;
            };
            let after = close_paren(t, g + 1);
            let (question, ctx_on_chain) = chain_info(t, after);
            calls.push(CallSite {
                token: g,
                line: t[g].line,
                label,
                targets,
                question,
                ctx_on_chain,
                gated: gates.contains(&g),
            });
        }
        all_calls.push(calls);
    }
    for (node, calls) in nodes.iter_mut().zip(all_calls) {
        node.calls = calls;
    }

    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (id, n) in nodes.iter().enumerate() {
        for c in &n.calls {
            for &tgt in &c.targets {
                if !callers[tgt].contains(&id) {
                    callers[tgt].push(id);
                }
            }
        }
    }
    CallGraph { nodes, callers }
}

impl CallGraph {
    /// Nodes matching `(owner, name)`; `owner` of `""` matches free fns.
    pub fn lookup(&self, owner: &str, name: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.name == name
                    && match (&n.owner, owner.is_empty()) {
                        (Some(o), false) => o == owner,
                        (None, true) => true,
                        _ => false,
                    }
            })
            .map(|(id, _)| id)
            .collect()
    }
}
