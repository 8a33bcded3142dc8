//! Correctness tooling for the GraphZ workspace.
//!
//! Static analyzers, all fully offline, run together by the one
//! `graphz-check` binary ([`suite`]; `cargo run -p graphz-check --bin
//! graphz-check`). Each reports through a [`lint::Tool`]: its rule table
//! and the prefix of its suppression marker (`// <tool>:allow(<rule>)`).
//!
//! * [`lint`] — the repo-invariant line rules (DESIGN.md §6e).
//! * [`audit`] — token dataflow (DESIGN.md §6f): the global
//!   lock-acquisition-order graph, checked offset/cast arithmetic in the
//!   storage layer, and dropped `Result`s. Built on [`parser`], a
//!   lightweight token/item parser.
//! * [`flow`] — path-sensitive dataflow (DESIGN.md §6j): per-function
//!   control-flow graphs ([`flow::cfg`]) plus a generic worklist solver
//!   ([`flow::solver`]) driving path-complete must-consume and
//!   determinism taint.
//! * [`ipa`] — interprocedural analyses (DESIGN.md §6k): a workspace call
//!   graph ([`ipa::callgraph`]) with bottom-up effect summaries
//!   ([`ipa::summary`]) proving the Worker hot path allocation-, lock-,
//!   and panic-free, every file-creating sink fault-gated on all call
//!   paths, and fs errors carrying context where they leave a crate.
//! * [`stale`] — the `stale-suppression` lint: re-runs every analyzer with
//!   suppression markers neutralized and flags markers that no longer
//!   suppress any finding.
//!
//! Findings render to one JSON document through [`json`].

#![forbid(unsafe_code)]

pub mod audit;
pub mod flow;
pub mod ipa;
pub mod json;
pub mod lint;
pub mod parser;
pub mod stale;
pub mod suite;
