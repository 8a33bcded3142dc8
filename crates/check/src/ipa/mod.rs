//! The ipa pass: interprocedural analysis over the workspace call graph.
//!
//! lint (§6e) sees lines, audit (§6f) sees token adjacency, flow (§6j)
//! sees paths *within* one function. This pass sees **call chains**: a
//! workspace call graph ([`callgraph`]) plus bottom-up effect summaries
//! ([`summary`]) let five rules reason about what a function does
//! *transitively* (DESIGN.md §6k):
//!
//! * `hot-path-alloc` — nothing reachable from the Worker per-message
//!   compute loop (`Worker::process`, which also routes every sent
//!   message: the in-partition apply, the per-partition defer push and the
//!   per-neighbor expansion of a broadcast all live in its body, and which
//!   also takes the resident adjacency each iteration), or the activity
//!   checks (`mark_active`, the gap re-check `wakes_in`) may allocate, take
//!   a lock, touch a file, or spawn. BatchPool reuse stops being a bench
//!   anecdote and becomes a checked invariant.
//! * `panic-freedom` — no unwrap/expect, release-enabled assert,
//!   non-literal index/slice, or non-literal division reachable from the
//!   compute phase entry points `Engine::run`'s partition pass drives
//!   (`Worker::*`, `ActiveSet::any_in`, `BatchPool::put`).
//! * `fault-surface-reach` — every file-creating sink in io/extsort/storage
//!   is FaultSurface-gated on **all call paths**: a gate that dominates the
//!   sink in its own function, or one on every call path into it. No file
//!   is exempt wholesale; the surface's own primitives carry waivers.
//! * `error-context-prop` — an fs error that `?`-crosses a crate boundary,
//!   or leaves a storage-crate root (a function with no resolved caller:
//!   public API the CLI calls), must have met a `.ctx(…)` (or deliberate
//!   reshaping) somewhere on the chain at or below that point.
//! * `serve-read-alloc` — nothing reachable from the `GraphView` point
//!   queries allocates, locks, creates a file, or spawns.
//!
//! Findings reuse the lint [`Violation`] shape; `// ipa:allow(<rule>)` on
//! the offending line or the line above suppresses one rule at one site.

pub mod callgraph;
pub mod summary;

use std::collections::BTreeSet;
use std::path::Path;

use crate::flow::cfg::build as build_cfg;
use crate::flow::solver::{solve, Direction};
use crate::lint::{read_tree, split_suppressed, Rule, Tool, Violation};
use crate::parser::{parse_sources, Function, SourceFile, Token};

use callgraph::{build, CallGraph};
use summary::{local_sites, Effect, Site};

/// Every ipa rule, in reporting order. Scopes bound where a rule *reports*
/// (the site's file); reachability itself is workspace-wide.
pub const IPA_RULES: &[Rule] = &[
    Rule {
        name: "hot-path-alloc",
        why: "one heap allocation, lock, or file touch per message erases \
              the small-machine win the bench gate protects; everything the \
              Worker compute loop and its message routing reach must run on \
              pooled, prewarmed memory",
        scope: &[],
        allow: &[],
    },
    Rule {
        name: "panic-freedom",
        why: "a panic anywhere the compute phase reaches poisons worker \
              queues instead of surfacing a typed GraphError; unwraps, \
              release asserts, non-literal indexing, and non-literal \
              division must not be transitively reachable",
        scope: &[],
        allow: &[],
    },
    Rule {
        name: "fault-surface-reach",
        why: "a file-creating sink reachable over any ungated call path \
              never sees injected faults, so the chaos sweeps certify a \
              write path production does not take — including paths through \
              the surface's own plumbing files",
        scope: &["crates/io/src/", "crates/extsort/src/", "crates/storage/src/"],
        allow: &[],
    },
    Rule {
        name: "error-context-prop",
        why: "an fs error that ?-crosses a crate boundary, or leaves a \
              storage-crate root, with no .ctx on the chain below surfaces \
              to the caller as a bare os error with no file or stage named",
        scope: &[],
        allow: &[],
    },
    Rule {
        name: "serve-read-alloc",
        why: "a serve point query runs once per request across N reader \
              threads; an allocation, lock, or spawn reachable from the \
              GraphView hot methods turns concurrent readers into an \
              allocator/lock convoy (file reads are allowed — out-of-core \
              adjacency is the design)",
        scope: &[],
        allow: &[],
    },
];

/// Crates outside the interprocedural contract: reference baselines, bench
/// and codegen harnesses, the analyzers themselves, and the CLI front end.
/// Keeping them out of the graph also keeps resolution honest — `update`,
/// `run`, `next` are common method names there and every edge to them
/// would be noise.
const EXCLUDED: &[&str] = &[
    "crates/baselines/",
    "crates/bench/",
    "crates/check/",
    "crates/cli/",
    "crates/energy/",
    "crates/gen/",
];

/// Hot-path entries: the per-message compute loop — whose body also holds
/// the message routing (apply or defer, broadcast expansion) and which
/// takes every batch, the resident adjacency included — and the activity
/// checks the Worker runs per partition and per skipped block: marking the
/// vertices that want an update, and the gap re-check (DESIGN.md §6d/§6i).
const HOT_ENTRIES: &[(&str, &str)] =
    &[("Worker", "process"), ("Worker", "mark_active"), ("Worker", "wakes_in")];

/// Compute-phase entries: everything the partition pass drives per batch —
/// the Worker's start, its update loop (which fans out into every
/// algorithm kernel) and its activity checks, and the return of each
/// streamed batch to the pool.
const PANIC_ENTRIES: &[(&str, &str)] = &[
    ("Worker", "start"),
    ("Worker", "process"),
    ("Worker", "mark_active"),
    ("Worker", "wakes_in"),
    ("ActiveSet", "any_in"),
    ("BatchPool", "put"),
];

/// Serve read-path entries: the four GraphView point-query methods every
/// protocol request dispatches to (DESIGN.md §6l).
const SERVE_ENTRIES: &[(&str, &str)] = &[
    ("GraphView", "degree"),
    ("GraphView", "neighbors_into"),
    ("GraphView", "khop_into"),
    ("GraphView", "value_bytes"),
];

/// The ipa pass as a [`Tool`]; every rule reports through it.
pub const IPA: Tool = Tool { prefix: "ipa", rules: IPA_RULES };

/// True when token `g` applies a surface gate: a `.op(` or `.wrap(` method
/// call (`FaultSurface::op`, `FaultSurface::wrap`).
pub(crate) fn gate_at(t: &[Token], g: usize) -> bool {
    (t[g].text == "op" || t[g].text == "wrap")
        && g > 0
        && t[g - 1].text == "."
        && t.get(g + 1).is_some_and(|n| n.text == "(")
}

/// Token indices dominated by a FaultSurface gate on every path from the
/// function entry (the gate token itself counts as gated — a `.op(` call
/// site carries its own gate): a forward must-analysis over the
/// function's CFG, optimistic init and intersection join, returning the
/// full dominated set so the rules can ask about any call or sink site.
pub(crate) fn gate_dominated(t: &[Token], func: &Function) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    if !func.body.clone().any(|g| gate_at(t, g)) {
        return out;
    }
    let cfg = build_cfg(t, func);
    let (input, _) = solve(
        &cfg,
        Direction::Forward,
        false,
        true,
        |a: &bool, b: &bool| *a && *b,
        |b, inp| {
            let mut gated = *inp;
            for &g in &cfg.blocks[b].tokens {
                if gate_at(t, g) {
                    gated = true;
                }
            }
            gated
        },
    );
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut gated = input[b];
        for &g in &block.tokens {
            if gate_at(t, g) {
                gated = true;
            }
            if gated {
                out.insert(g);
            }
        }
    }
    out
}

/// The analysis bundle rules run over: the scoped files, their call graph,
/// and per-node local effect sites.
pub struct Analysis<'f> {
    pub files: Vec<&'f SourceFile>,
    pub graph: CallGraph,
    pub sites: Vec<Vec<Site>>,
}

/// Build the call graph and local sites over the in-scope subset of
/// `files`.
pub fn analyze(files: &[SourceFile]) -> Analysis<'_> {
    let scoped: Vec<&SourceFile> =
        files.iter().filter(|f| !EXCLUDED.iter().any(|e| f.rel.contains(e))).collect();
    let graph = build(&scoped);
    let sites = graph
        .nodes
        .iter()
        .map(|n| {
            let file = scoped[n.file];
            local_sites(file, &file.functions[n.func])
        })
        .collect();
    Analysis { files: scoped, graph, sites }
}

/// Entry node ids for a `(owner, name)` spec list (missing entries — e.g.
/// fixture trees exercising other rules — contribute nothing).
fn entry_nodes(graph: &CallGraph, specs: &[(&str, &str)]) -> Vec<usize> {
    let mut out = Vec::new();
    for &(owner, name) in specs {
        out.extend(graph.lookup(owner, name));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// BFS over call edges from `entries`; returns the parent map
/// (`usize::MAX` = unreached, self-parent = entry).
fn reach(graph: &CallGraph, entries: &[usize]) -> Vec<usize> {
    let mut parent = vec![usize::MAX; graph.nodes.len()];
    let mut queue: std::collections::VecDeque<usize> = entries.iter().copied().collect();
    for &e in entries {
        parent[e] = e;
    }
    while let Some(v) = queue.pop_front() {
        for c in &graph.nodes[v].calls {
            for &t in &c.targets {
                if parent[t] == usize::MAX {
                    parent[t] = v;
                    queue.push_back(t);
                }
            }
        }
    }
    parent
}

/// `entry → … → node` as display names, following the parent map.
fn chain(graph: &CallGraph, parent: &[usize], mut node: usize) -> String {
    let mut names = vec![graph.nodes[node].qname()];
    while parent[node] != node {
        node = parent[node];
        names.push(graph.nodes[node].qname());
    }
    names.reverse();
    names.join(" → ")
}

/// `hot-path-alloc` and `panic-freedom` share one shape: BFS from an entry
/// set, report every local site of the offending effect class in every
/// reached function.
fn reachability_rule(
    a: &Analysis<'_>,
    rule: &'static str,
    entries: &[(&str, &str)],
    offends: fn(Effect) -> bool,
    describe: &str,
    out: &mut Vec<Violation>,
) {
    let entries = entry_nodes(&a.graph, entries);
    if entries.is_empty() {
        return;
    }
    let parent = reach(&a.graph, &entries);
    for (id, node) in a.graph.nodes.iter().enumerate() {
        if parent[id] == usize::MAX {
            continue;
        }
        for site in &a.sites[id] {
            if !offends(site.effect) {
                continue;
            }
            let verb = match site.effect {
                Effect::Alloc => "allocates",
                Effect::Lock => "takes a lock",
                Effect::FileIo | Effect::SinkIo => "touches the filesystem",
                Effect::Panic => "can panic",
                Effect::Spawn => "spawns a thread",
            };
            IPA.finding(
                a.files[node.file],
                rule,
                site.line,
                format!("`{}` {verb} {describe}: {}", site.what, chain(&a.graph, &parent, id)),
                out,
            );
        }
    }
}

/// `fault-surface-reach`: propagate "enterable with no gate established"
/// from the graph's roots through ungated call sites; report every local
/// sink that is not locally gate-dominated in an openly-enterable function.
fn fault_surface_reach(a: &Analysis<'_>, out: &mut Vec<Violation>) {
    let n = a.graph.nodes.len();
    // Roots: no resolved callers (public API, bin/test entry points).
    let mut open: Vec<bool> = (0..n).map(|id| a.graph.callers[id].is_empty()).collect();
    let mut parent: Vec<usize> = (0..n).collect();
    let mut queue: std::collections::VecDeque<usize> =
        (0..n).filter(|&id| open[id]).collect();
    while let Some(v) = queue.pop_front() {
        for c in &a.graph.nodes[v].calls {
            if c.gated {
                continue;
            }
            for &t in &c.targets {
                if !open[t] {
                    open[t] = true;
                    parent[t] = v;
                    queue.push_back(t);
                }
            }
        }
    }
    for (id, node) in a.graph.nodes.iter().enumerate() {
        if !open[id] || !a.sites[id].iter().any(|s| s.effect == Effect::SinkIo) {
            continue;
        }
        let file = a.files[node.file];
        let dominated = gate_dominated(&file.tokens, &file.functions[node.func]);
        for site in &a.sites[id] {
            if site.effect != Effect::SinkIo || dominated.contains(&site.token) {
                continue;
            }
            IPA.finding(
                file,
                "fault-surface-reach",
                site.line,
                format!(
                    "`{}` is reachable with no FaultSurface gate on the call path {}; \
                     this write path is invisible to the chaos sweeps",
                    site.what,
                    chain(&a.graph, &parent, id)
                ),
                out,
            );
        }
    }
}

/// `error-context-prop`: bottom-up "can surface a bare fs error" bit, then
/// report `?`-without-ctx call sites that cross a crate boundary into a
/// bare-raising callee, and every bare `?` site of a bare-raising storage
/// root (no resolved caller: its error leaves the call graph, towards the
/// CLI, with nothing left to add context).
fn error_context_prop(a: &Analysis<'_>, out: &mut Vec<Violation>) {
    let n = a.graph.nodes.len();
    let bare_site = |s: &Site| matches!(s.effect, Effect::FileIo | Effect::SinkIo) && s.bare_question;
    let mut bare: Vec<bool> = (0..n).map(|id| a.sites[id].iter().any(bare_site)).collect();
    // Propagate up through `?`-without-ctx call sites to a fixpoint.
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..n {
            if bare[id] {
                continue;
            }
            if a.graph.nodes[id].calls.iter().any(|c| raises(c, &bare)) {
                bare[id] = true;
                changed = true;
            }
        }
    }
    for (id, node) in a.graph.nodes.iter().enumerate() {
        let file = a.files[node.file];
        let root = bare[id] && a.graph.callers[id].is_empty() && file.rel.contains("crates/storage/src/");
        let leaves = |what: &str| {
            format!(
                "`{what}` surfaces a bare fs error out of `{}`, which no workspace \
                 function calls; add .ctx(op, path) on this chain or below",
                node.qname()
            )
        };
        if root {
            for site in a.sites[id].iter().filter(|s| bare_site(s)) {
                IPA.finding(file, "error-context-prop", site.line, leaves(&site.what), out);
            }
        }
        for c in node.calls.iter().filter(|c| raises(c, &bare)) {
            let crossing =
                c.targets.iter().find(|&&t| bare[t] && a.graph.nodes[t].krate != node.krate);
            let message = match crossing {
                Some(&culprit) => format!(
                    "`{}` can surface a bare fs error from `{}` across the {}→{} crate \
                     boundary; add .ctx(op, path) on this chain or below",
                    c.label,
                    a.graph.nodes[culprit].qname(),
                    a.graph.nodes[culprit].krate,
                    node.krate
                ),
                None if root => leaves(&c.label),
                None => continue,
            };
            IPA.finding(file, "error-context-prop", c.line, message, out);
        }
    }
}

/// A `?`-without-ctx call site into a callee that can raise a bare fs
/// error.
fn raises(c: &callgraph::CallSite, bare: &[bool]) -> bool {
    c.question && !c.ctx_on_chain && c.targets.iter().any(|&t| bare[t])
}

/// Run every ipa rule over already-parsed files, markers not applied;
/// findings are sorted by path and line and deduplicated.
pub fn ipa_files(files: &[SourceFile]) -> Vec<Violation> {
    let a = analyze(files);
    let mut out = Vec::new();
    reachability_rule(
        &a,
        "hot-path-alloc",
        HOT_ENTRIES,
        |e| matches!(e, Effect::Alloc | Effect::Lock | Effect::FileIo | Effect::SinkIo | Effect::Spawn),
        "on the Worker hot path",
        &mut out,
    );
    reachability_rule(
        &a,
        "panic-freedom",
        PANIC_ENTRIES,
        |e| matches!(e, Effect::Panic),
        "in the compute phase",
        &mut out,
    );
    // FileIo is deliberately absent from the offends set: the read path is
    // out-of-core, so adjacency reads through the reusable cursor are the
    // point — but allocation, locks, sink creation, and spawns are not.
    reachability_rule(
        &a,
        "serve-read-alloc",
        SERVE_ENTRIES,
        |e| matches!(e, Effect::Alloc | Effect::Lock | Effect::SinkIo | Effect::Spawn),
        "on the serve read path",
        &mut out,
    );
    fault_surface_reach(&a, &mut out);
    error_context_prop(&a, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out.dedup_by(|a, b| (&a.path, a.line, a.rule, &a.message) == (&b.path, b.line, b.rule, &b.message));
    out
}

/// Parse and analyze the tree rooted at `root` (see [`parse_sources`] for the
/// file scope); suppressed findings dropped.
pub fn ipa_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    let sources = read_tree(root)?;
    Ok(split_suppressed(&sources, ipa_files(&parse_sources(&sources))).0)
}

/// Human-readable call-graph dump for `--dump-callgraph`: one line per
/// function with its transitive summary bits, then its resolved calls.
pub fn dump_callgraph(files: &[SourceFile]) -> String {
    let a = analyze(files);
    let summaries = summary::summarize(&a.graph, &a.sites);
    let mut s = String::new();
    for (id, node) in a.graph.nodes.iter().enumerate() {
        let m = summaries[id];
        let bits: Vec<&str> = [
            (m.allocates, "alloc"),
            (m.locks, "lock"),
            (m.file_io, "io"),
            (m.may_panic, "panic"),
            (m.spawns, "spawn"),
        ]
        .iter()
        .filter_map(|&(on, name)| on.then_some(name))
        .collect();
        s.push_str(&format!(
            "{} [{}] ({}:{})\n",
            node.qname(),
            bits.join(","),
            a.files[node.file].rel,
            a.files[node.file].functions[node.func].line,
        ));
        for c in &node.calls {
            let targets: Vec<String> =
                c.targets.iter().map(|&t| a.graph.nodes[t].qname()).collect();
            s.push_str(&format!(
                "  {}:{} {}{} -> [{}]\n",
                c.line,
                c.label,
                if c.gated { "gated " } else { "" },
                if c.question { "?" } else { "" },
                targets.join(", ")
            ));
        }
    }
    s
}
