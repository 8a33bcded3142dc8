//! Bottom-up function effect summaries: what a call can *transitively* do.
//!
//! Two layers (DESIGN.md §6k):
//!
//! 1. **Local sites** ([`local_sites`]): a token scan of one function body
//!    for the effects the interprocedural rules care about — heap
//!    allocation, lock acquisition, file IO (with file-*creating* sinks
//!    distinguished), panic sources (unwrap/expect, release-enabled
//!    asserts, non-literal indexing and slicing, division by a non-literal
//!    divisor), and thread spawns. Float division is skipped (IEEE division
//!    never panics), as is indexing with all-literal subscripts (fixed-size
//!    lookup tables — wrong constants fail the first unit test, not
//!    production).
//! 2. **Transitive summaries** ([`summarize`]): the per-function effect
//!    bits joined over the call graph, computed on the SCC condensation in
//!    callees-first order so recursion converges in one pass — every
//!    member of a cycle gets the union of the whole cycle's effects.

use crate::parser::{Function, SourceFile, Token};

use super::callgraph::{chain_info, close_paren, CallGraph};

/// Effect kinds a local site can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Fresh heap allocation (`vec![…]`, `with_capacity`, `Box::new`,
    /// `format!`, `.to_vec()`, `.collect()`, …). Growth of an existing
    /// buffer (`.push`) is deliberately *not* an allocation: amortized-zero
    /// growth into pooled, prewarmed buffers is exactly the BatchPool
    /// contract, and the pool counters assert fresh==0 at steady state.
    Alloc,
    /// Mutex/RwLock acquisition (`.lock(`).
    Lock,
    /// Non-creating filesystem call (`fs::read`, `File::open`, …).
    FileIo,
    /// File-creating/renaming sink (see `sink_at`) — what
    /// fault-surface-reach must see gated.
    SinkIo,
    /// unwrap/expect, release-enabled assert, panicking macro, non-literal
    /// index/slice, division/remainder by a non-literal divisor.
    Panic,
    /// Thread spawn.
    Spawn,
}

/// One effect site in a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// Token index of the site (into the defining file's stream).
    pub token: usize,
    pub line: usize,
    pub effect: Effect,
    /// Short display form of what fired, e.g. ```vec![…]``` or `File::create`.
    pub what: String,
    /// For `FileIo`/`SinkIo` only: the call's error `?`-propagates with no
    /// contextualizing call on its method chain (error-context-prop seed).
    pub bare_question: bool,
}

/// Transitive effect bits for one function (the summary lattice: a product
/// of booleans, joined by OR).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    pub allocates: bool,
    pub locks: bool,
    pub file_io: bool,
    pub may_panic: bool,
    pub spawns: bool,
}

impl Summary {
    fn join(self, o: Summary) -> Summary {
        Summary {
            allocates: self.allocates || o.allocates,
            locks: self.locks || o.locks,
            file_io: self.file_io || o.file_io,
            may_panic: self.may_panic || o.may_panic,
            spawns: self.spawns || o.spawns,
        }
    }

    fn absorb(&mut self, e: Effect) {
        match e {
            Effect::Alloc => self.allocates = true,
            Effect::Lock => self.locks = true,
            Effect::FileIo | Effect::SinkIo => self.file_io = true,
            Effect::Panic => self.may_panic = true,
            Effect::Spawn => self.spawns = true,
        }
    }
}

/// Two-segment call paths that create, open-for-write, or rename files.
const SINK_PATHS: &[(&str, &str)] = &[
    ("File", "create"),
    ("File", "options"),
    ("OpenOptions", "new"),
    ("fs", "write"),
    ("fs", "rename"),
    ("TrackedFile", "create"),
    ("TrackedFile", "open_rw"),
    ("tracked", "writer"),
    ("tracked", "checksummed_writer"),
    ("RecordWriter", "create"),
];

/// Fallible filesystem entry points (`seg::method(`) that do not create a
/// file.
const FS_CALLS: &[(&str, &str)] = &[
    ("fs", "read"),
    ("fs", "read_to_string"),
    ("fs", "copy"),
    ("fs", "remove_file"),
    ("fs", "remove_dir"),
    ("fs", "remove_dir_all"),
    ("fs", "create_dir"),
    ("fs", "create_dir_all"),
    ("fs", "metadata"),
    ("fs", "read_dir"),
    ("fs", "canonicalize"),
    ("fs", "hard_link"),
    ("File", "open"),
];

/// The call at token `g`, if it is a sink. A turbofish segment between the
/// type and the method (`RecordWriter::<u64>::create`) is skipped, and a
/// bare `write_atomic(path, bytes)` writes and renames in one call.
pub(crate) fn sink_at(t: &[Token], g: usize) -> Option<String> {
    for &(a, b) in SINK_PATHS {
        if t[g].text != a || tx(t, g + 1) != "::" {
            continue;
        }
        let mut m = g + 2;
        if tx(t, m) == "<" {
            let mut depth = 0i64;
            while m < t.len() {
                match t[m].text.as_str() {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ => {}
                }
                m += 1;
                if depth <= 0 {
                    break;
                }
            }
            if tx(t, m) != "::" {
                continue;
            }
            m += 1;
        }
        if tx(t, m) == b && tx(t, m + 1) == "(" {
            return Some(format!("{a}::{b}"));
        }
    }
    if t[g].text == "write_atomic" && tx(t, g + 1) == "(" && tx(t, g.wrapping_sub(1)) != "fn" {
        return Some("write_atomic".into());
    }
    None
}

/// Panicking macros (release builds included). `debug_assert*` compiles out
/// of release and is the blessed way to state hot-path invariants.
const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// `.m(…)` method calls that freshly allocate.
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "collect", "into_bytes"];

/// `.m(…)` method calls that panic on bad lengths.
const SLICE_METHODS: &[&str] = &["copy_from_slice", "clone_from_slice", "split_at", "split_at_mut"];

/// `Type::new(…)` heads that allocate.
const ALLOC_NEW: &[&str] = &["Box", "Rc", "Arc"];

/// Keywords that can directly precede `[` without it being an index
/// expression (array literals in statement position, patterns).
const KW_BEFORE_BRACKET: &[&str] = &[
    "if", "in", "return", "else", "match", "loop", "while", "for", "move", "as", "break",
    "continue", "let", "mut", "ref", "box", "await", "yield", "where", "impl", "fn", "pub", "use",
    "static", "const", "struct", "enum", "type", "dyn",
];

fn tx(t: &[Token], k: usize) -> &str {
    t.get(k).map(|x| x.text.as_str()).unwrap_or("")
}

fn is_digit_start(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_digit())
}

/// Is the statement around token `g` floating-point? True when any token
/// between the enclosing `;`/`{`/`}` boundaries is an `f32`/`f64` spelling
/// or part of a float literal (`1`, `.`, `5`). IEEE float division never
/// panics, so div sites in float statements are skipped.
fn float_statement(t: &[Token], g: usize, body: &std::ops::Range<usize>) -> bool {
    /// Methods that only exist on floats; `(m0 / z).ln()` has no `f64`
    /// token or float literal, but the `.ln()` identifies the statement.
    const FLOAT_METHODS: &[&str] = &[
        "ln", "log2", "log10", "exp", "exp2", "sqrt", "powi", "powf", "floor", "ceil", "round",
        "recip", "to_radians", "tanh", "hypot", "atan2",
    ];
    let boundary = |s: &str| s == ";" || s == "{" || s == "}";
    let mut lo = g;
    while lo > body.start && !boundary(tx(t, lo - 1)) {
        lo -= 1;
    }
    let mut hi = g;
    while hi < body.end && !boundary(tx(t, hi)) {
        hi += 1;
    }
    for k in lo..hi {
        let s = tx(t, k);
        if s == "f32" || s == "f64" || s.ends_with("f32") || s.ends_with("f64") {
            return true;
        }
        if is_digit_start(s) && tx(t, k + 1) == "." && is_digit_start(tx(t, k + 2)) {
            return true;
        }
        if FLOAT_METHODS.contains(&s) && k > lo && tx(t, k - 1) == "." && tx(t, k + 1) == "(" {
            return true;
        }
    }
    false
}

/// All tokens strictly inside the `[`…`]` starting at `open` are numeric
/// literals (a fixed-table lookup like `POTENTIAL[0][1]`).
fn literal_index(t: &[Token], open: usize) -> bool {
    let mut depth = 0i64;
    let mut k = open;
    let mut any = false;
    while k < t.len() {
        match tx(t, k) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return any;
                }
            }
            s if depth >= 1 => {
                if is_digit_start(s) {
                    any = true;
                } else {
                    return false;
                }
            }
            _ => {}
        }
        k += 1;
    }
    false
}

/// Scan one function body for local effect sites.
pub fn local_sites(file: &SourceFile, func: &Function) -> Vec<Site> {
    let t = &file.tokens;
    let mut out = Vec::new();
    let mut site = |token: usize, effect: Effect, what: String, bare: bool| {
        out.push(Site { token, line: t[token].line, effect, what, bare_question: bare });
    };
    for g in func.body.clone() {
        let s = tx(t, g);
        // Macros.
        if t[g].is_name() && tx(t, g + 1) == "!" {
            if s == "vec" {
                site(g, Effect::Alloc, "vec![…]".into(), false);
            } else if s == "format" {
                site(g, Effect::Alloc, "format!".into(), false);
            } else if PANIC_MACROS.contains(&s) {
                site(g, Effect::Panic, format!("{s}!"), false);
            }
            continue;
        }
        // Method calls: `.m(…)`.
        if g > 0 && tx(t, g - 1) == "." && t[g].is_name() && tx(t, g + 1) == "(" {
            if ALLOC_METHODS.contains(&s) {
                site(g, Effect::Alloc, format!(".{s}()"), false);
            } else if s == "lock" {
                site(g, Effect::Lock, ".lock()".into(), false);
            } else if s == "unwrap"
                || s == "expect"
                || s == "unwrap_err"
                || SLICE_METHODS.contains(&s)
            {
                site(g, Effect::Panic, format!(".{s}()"), false);
            } else if s == "spawn" {
                site(g, Effect::Spawn, ".spawn()".into(), false);
            }
            continue;
        }
        // Qualified calls: `Seg::m(…)`.
        if t[g].is_name() && tx(t, g + 1) == "::" {
            let m = tx(t, g + 2);
            let is_call = tx(t, g + 3) == "(";
            if is_call && m == "new" && ALLOC_NEW.contains(&s) {
                site(g, Effect::Alloc, format!("{s}::new"), false);
            } else if is_call && (m == "with_capacity" || (s == "String" && m == "from")) {
                site(g, Effect::Alloc, format!("{s}::{m}"), false);
            } else if is_call && s == "thread" && m == "spawn" {
                site(g, Effect::Spawn, "thread::spawn".into(), false);
            }
        }
        // File IO — creating sinks first (turbofish-aware), then the
        // non-creating fs entry points. Both record whether the error
        // `?`-propagates bare.
        if let Some(call) = sink_at(t, g) {
            // Find the argument-list `(`: after `Seg::m` or right after a
            // bare `write_atomic`.
            let mut open = g + 1;
            while open < t.len() && tx(t, open) != "(" {
                open += 1;
            }
            let (q, ctx) = chain_info(t, close_paren(t, open));
            site(g, Effect::SinkIo, call, q && !ctx);
            continue;
        }
        if let Some(call) = FS_CALLS.iter().find_map(|&(a, b)| {
            (s == a && tx(t, g + 1) == "::" && tx(t, g + 2) == b && tx(t, g + 3) == "(")
                .then(|| format!("{a}::{b}"))
        }) {
            let (q, ctx) = chain_info(t, close_paren(t, g + 3));
            site(g, Effect::FileIo, call, q && !ctx);
            continue;
        }
        // Index / slice expressions: `expr[…]` (prev token ends a value).
        if s == "[" && g > 0 {
            let p = t[g - 1].text.as_str();
            let value_before =
                (t[g - 1].is_name() && !KW_BEFORE_BRACKET.contains(&p)) || p == ")" || p == "]";
            if value_before && !literal_index(t, g) {
                site(g, Effect::Panic, format!("{p}[…]"), false);
            }
            continue;
        }
        // Integer division / remainder by a non-literal divisor.
        if (s == "/" || s == "%") && g > 0 {
            let p = tx(t, g - 1);
            let value_before = t[g - 1].is_word() || p == ")" || p == "]";
            let next = tx(t, g + 1);
            let literal_nonzero = is_digit_start(next)
                && !next.trim_start_matches("0x").trim_start_matches('0').is_empty()
                && tx(t, g + 2) != ".";
            if value_before && !literal_nonzero && !float_statement(t, g, &func.body) {
                let op = if s == "/" { "division" } else { "remainder" };
                site(g, Effect::Panic, format!("{op} `{p} {s} {next}`"), false);
            }
        }
    }
    out
}

/// Strongly connected components of `adj`, emitted callees-first (Tarjan:
/// when a component is popped, every component it points to is already
/// out). Iterative so deep call chains cannot overflow the stack.
pub fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut out = Vec::new();
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(&(v, ci)) = frames.last() {
            if ci == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ci < adj[v].len() {
                let w = adj[v][ci];
                if let Some(last) = frames.last_mut() {
                    last.1 += 1;
                }
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.push(comp);
                }
            }
        }
    }
    out
}

/// Transitive summaries for every node: local effects joined with every
/// (possibly recursive) callee's summary, SCC condensation in callees-first
/// order. Unresolved calls contribute nothing here — their *local* token
/// footprint (the `vec!`, the `.unwrap()`) is already a local site in the
/// caller, which is the conservative floor text-level resolution supports.
pub fn summarize(graph: &CallGraph, sites: &[Vec<Site>]) -> Vec<Summary> {
    let adj: Vec<Vec<usize>> = graph
        .nodes
        .iter()
        .map(|n| {
            let mut ts: Vec<usize> = n.calls.iter().flat_map(|c| c.targets.iter().copied()).collect();
            ts.sort_unstable();
            ts.dedup();
            ts
        })
        .collect();
    let mut summaries = vec![Summary::default(); graph.nodes.len()];
    for comp in sccs(&adj) {
        let mut s = Summary::default();
        for &m in &comp {
            for site in &sites[m] {
                s.absorb(site.effect);
            }
            for &t in &adj[m] {
                s = s.join(summaries[t]);
            }
        }
        for &m in &comp {
            summaries[m] = s;
        }
    }
    summaries
}
