//! `determinism-taint`: nondeterministic values must not reach
//! output-writing or key-ordering sinks.
//!
//! The byte-identity contract (DESIGN.md §6e) requires every output byte
//! to be a function of the input alone. Three *sources* break that if they
//! leak into output: thread identity (`thread::current`,
//! `available_parallelism`), polling order (`try_recv` — a blocking
//! `recv` on a single FIFO channel is per-channel deterministic and is
//! deliberately not a source), and unordered-container iteration
//! (`HashMap`/`HashSet`). Taint propagates forward through `let` bindings
//! and `for`/`while let` headers as a may-analysis over two name sets:
//! *containers* (unordered collections — inert until iterated) and
//! *values* (already nondeterministic). A finding fires when a tainted
//! name (or a direct container iteration) appears in the arguments of an
//! ordering/output sink.
//!
//! Blind spots (DESIGN.md §6j): taint does not cross field stores,
//! indexed stores (`slots[s] = r` — the sanctioned order-settling
//! pattern), function returns, or closure captures.

use std::collections::BTreeSet;

use crate::lint::Violation;
use crate::parser::{SourceFile, Token};

use super::cfg::build;
use super::solver::{solve, Direction};

/// Methods that enumerate a container in storage order.
const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter", "into_keys",
    "into_values",
];

/// Argument-taking sinks whose arguments order or become output bytes.
const SINKS: &[&str] = &[
    "push",
    "push_all",
    "extend",
    "write",
    "write_all",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "sort_by_cached_key",
];

/// The dataflow state: names known to hold unordered containers, and
/// names known to hold nondeterministic values.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
struct Taint {
    containers: BTreeSet<String>,
    values: BTreeSet<String>,
}

impl Taint {
    fn join(a: &Taint, b: &Taint) -> Taint {
        Taint {
            containers: a.containers.union(&b.containers).cloned().collect(),
            values: a.values.union(&b.values).cloned().collect(),
        }
    }
}

fn tx(t: &[Token], k: usize) -> &str {
    t.get(k).map(|x| x.text.as_str()).unwrap_or("")
}

/// Direct nondeterminism source anywhere in the token positions `range`.
fn mentions_source(t: &[Token], range: &[usize]) -> bool {
    range.iter().any(|&g| {
        t[g].text == "try_recv"
            || t[g].text == "available_parallelism"
            || (t[g].text == "thread" && tx(t, g + 1) == "::" && tx(t, g + 2) == "current")
    })
}

/// Iteration of a tainted container (`name.iter()` etc.) in `range`.
fn mentions_container_iteration(t: &[Token], range: &[usize], state: &Taint) -> bool {
    range.iter().any(|&g| {
        state.containers.contains(&t[g].text)
            && tx(t, g + 1) == "."
            && ITER_METHODS.contains(&tx(t, g + 2))
    })
}

fn mentions_any(t: &[Token], range: &[usize], names: &BTreeSet<String>) -> bool {
    range.iter().any(|&g| t[g].is_name() && names.contains(&t[g].text))
}

/// Collect lower-case binding names from a pattern slice (constructors and
/// types are CamelCase and skipped; `mut`/`ref`/`_` are noise).
fn pattern_names(t: &[Token], range: &[usize], into: &mut Vec<String>) {
    for &g in range {
        let name = &t[g].text;
        if t[g].is_name()
            && !matches!(name.as_str(), "mut" | "ref" | "_" | "let")
            && name.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
        {
            into.push(name.clone());
        }
    }
}

/// One linear pass over a block's tokens: apply `let`/`for` taint
/// transitions to `state`, and (when `hits` is given) record sink
/// arguments that carry taint as `(token index, sink, tainted name)`.
fn scan(
    t: &[Token],
    toks: &[usize],
    state: &mut Taint,
    mut hits: Option<&mut Vec<(usize, String, String)>>,
) {
    let mut j = 0;
    while j < toks.len() {
        let g = toks[j];
        match t[g].text.as_str() {
            "let" => {
                // Pattern until `:` or `=` at depth 0; RHS until `;`.
                let mut depth = 0i64;
                let mut k = j + 1;
                let mut pat_end = toks.len();
                let mut eq = None;
                while k < toks.len() {
                    match t[toks[k]].text.as_str() {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" | ">" => depth -= 1,
                        ">>" => depth -= 2, // closes two generic nests at once
                        ":" if depth == 0 && pat_end == toks.len() => pat_end = k,
                        "=" if depth == 0 => {
                            eq = Some(k);
                            break;
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                let Some(eq) = eq else {
                    j = k + 1;
                    continue;
                };
                let pat_end = pat_end.min(eq);
                let mut names = Vec::new();
                pattern_names(t, &toks[j + 1..pat_end], &mut names);
                let mut depth = 0i64;
                let mut end = eq + 1;
                while end < toks.len() {
                    match t[toks[end]].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    end += 1;
                }
                let rhs = &toks[eq + 1..end];
                let nondet = mentions_source(t, rhs)
                    || mentions_container_iteration(t, rhs, state)
                    || mentions_any(t, rhs, &state.values);
                let container = rhs.iter().any(|&g| {
                    matches!(t[g].text.as_str(), "HashMap" | "HashSet")
                        || state.containers.contains(&t[g].text)
                });
                if nondet {
                    state.values.extend(names);
                } else if container {
                    state.containers.extend(names);
                }
                j = end;
            }
            "for" => {
                // `for <pattern> in <iterable>` — the iterable runs to the
                // end of this block (the body `{` opens a new block).
                let mut k = j + 1;
                while k < toks.len() && t[toks[k]].text != "in" {
                    k += 1;
                }
                if k >= toks.len() {
                    j += 1;
                    continue;
                }
                let mut names = Vec::new();
                pattern_names(t, &toks[j + 1..k], &mut names);
                let iterable = &toks[k + 1..];
                if mentions_source(t, iterable)
                    || mentions_any(t, iterable, &state.values)
                    || mentions_any(t, iterable, &state.containers)
                {
                    state.values.extend(names);
                }
                j = toks.len();
            }
            s if SINKS.contains(&s)
                && g > 0
                && t[g - 1].text == "."
                && tx(t, g + 1) == "(" =>
            {
                if let Some(hits) = hits.as_deref_mut() {
                    // Arguments: global scan to the matching close paren
                    // (`?` may have split the block, never the arg list).
                    let mut depth = 0i64;
                    let mut a = g + 1;
                    while a < t.len() {
                        match t[a].text.as_str() {
                            "(" => depth += 1,
                            ")" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {
                                if t[a].is_name() && state.values.contains(&t[a].text) {
                                    hits.push((g, s.to_string(), t[a].text.clone()));
                                    break;
                                }
                                if state.containers.contains(&t[a].text)
                                    && tx(t, a + 1) == "."
                                    && ITER_METHODS.contains(&tx(t, a + 2))
                                {
                                    hits.push((g, s.to_string(), t[a].text.clone()));
                                    break;
                                }
                            }
                        }
                        a += 1;
                    }
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
}

pub(super) fn analyze(files: &[SourceFile], out: &mut Vec<Violation>) {
    for file in files {
        if !super::FLOW.in_scope("determinism-taint", &file.rel) {
            continue;
        }
        let t = &file.tokens;
        for func in &file.functions {
            let cfg = build(t, func);
            let (input, _) = solve(
                &cfg,
                Direction::Forward,
                Taint::default(),
                Taint::default(),
                Taint::join,
                |b, inp: &Taint| {
                    let mut s = inp.clone();
                    scan(t, &cfg.blocks[b].tokens, &mut s, None);
                    s
                },
            );
            let mut hits = Vec::new();
            for (b, block) in cfg.blocks.iter().enumerate() {
                let mut s = input[b].clone();
                scan(t, &block.tokens, &mut s, Some(&mut hits));
            }
            for (g, sink, var) in hits {
                super::FLOW.finding(
                    file,
                    "determinism-taint",
                    t[g].line,
                    format!(
                        "`{var}` carries a run-order-dependent value (thread \
                         identity, try_recv polling, or HashMap/HashSet \
                         iteration) into `{sink}` in `{}`; output bytes or \
                         sort order would vary between runs",
                        func.name
                    ),
                    out,
                );
            }
        }
    }
}
