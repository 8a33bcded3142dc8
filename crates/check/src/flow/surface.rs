//! `fault-surface-bypass`: every file-creating call in the ingest crates
//! must be dominated by a `FaultSurface` gate.
//!
//! The chaos sweeps (DESIGN.md §6e) only certify writes that pass through
//! `FaultSurface::op`/`FaultSurface::wrap` — a raw `File::create` or
//! `fs::rename` never sees an injected fault, so its failure behaviour is
//! unverified. This rule runs a forward *must* analysis per function: the
//! single fact is "a surface gate has executed on every path to here", and
//! any sink call reached while the fact is false is a bypass.
//!
//! Granularity is deliberate: one gate anywhere before the sink (on all
//! paths) counts, because holding a live surface in scope is exactly the
//! structural property the rule enforces — the fine-grained pairing of one
//! gate per operation stays a code-review concern.

use crate::lint::Violation;
use crate::parser::{SourceFile, Token};

use super::cfg::build;
use super::solver::{solve, Direction};

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

/// The call at token `g`, if it is a sink. A turbofish segment between the
/// type and the method (`RecordWriter::<u64>::create`) is skipped.
pub(crate) fn sink_at(t: &[Token], g: usize) -> Option<String> {
    let tx = |k: usize| t.get(k).map(|x| x.text.as_str()).unwrap_or("");
    for &(a, b) in SINK_PATHS {
        if t[g].text != a || tx(g + 1) != "::" {
            continue;
        }
        let mut m = g + 2;
        if tx(m) == "<" {
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
            if tx(m) != "::" {
                continue;
            }
            m += 1;
        }
        if tx(m) == b && tx(m + 1) == "(" {
            return Some(format!("{a}::{b}"));
        }
    }
    // `write_atomic(path, bytes)` writes and renames without a surface.
    if t[g].text == "write_atomic" && tx(g + 1) == "(" && tx(g.wrapping_sub(1)) != "fn" {
        return Some("write_atomic".into());
    }
    None
}

/// True when token `g` applies a surface gate: a `.op(`/`.wrap(`/`.op_gate(`
/// method, or a call to the `gated(faults, retry, what, op)` helper that
/// runs its closure through the gate (the `AtomicFile` plumbing's local
/// spelling of the same thing).
pub(crate) fn gate_at(t: &[Token], g: usize) -> bool {
    let opens_call = t.get(g + 1).is_some_and(|n| n.text == "(");
    let method = (t[g].text == "op" || t[g].text == "wrap" || t[g].text == "op_gate")
        && g > 0
        && t[g - 1].text == "."
        && opens_call;
    let helper = t[g].text == "gated"
        && opens_call
        && g > 0
        && t[g - 1].text != "fn"
        && t[g - 1].text != ".";
    method || helper
}

pub(super) fn analyze(files: &[SourceFile], out: &mut Vec<Violation>) {
    for file in files {
        if !super::in_scope("fault-surface-bypass", &file.rel) {
            continue;
        }
        let t = &file.tokens;
        for func in &file.functions {
            // Cheap pre-scan: most functions touch no sink at all.
            if !func.body.clone().any(|g| sink_at(t, g).is_some()) {
                continue;
            }
            let cfg = build(t, func);
            // Forward must-analysis: optimistic init, intersection join.
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
                    } else if !gated {
                        if let Some(call) = sink_at(t, g) {
                            super::finding(
                                file,
                                "fault-surface-bypass",
                                t[g].line,
                                format!(
                                    "`{call}` in `{}` is not dominated by a FaultSurface \
                                     gate (.op()/.wrap()); this write path is invisible \
                                     to the chaos sweeps",
                                    func.name
                                ),
                                out,
                            );
                        }
                    }
                }
            }
        }
    }
}
