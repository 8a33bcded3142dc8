//! `graphz-check`: every static analyzer of the workspace in one pass.
//!
//! ```text
//! cargo run -p graphz-check --bin graphz-check                  # check the repo
//! cargo run -p graphz-check --bin graphz-check -- --root DIR    # check another tree
//! cargo run -p graphz-check --bin graphz-check -- --json OUT    # also write the findings JSON
//! cargo run -p graphz-check --bin graphz-check -- --list-rules
//! cargo run -p graphz-check --bin graphz-check -- --dump-callgraph
//! ```
//!
//! Exit code 0 when the tree is clean, 1 on any finding (the CI gate),
//! 2 on usage or IO errors. `--json` writes the report whether or not the
//! tree is clean.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use graphz_check::ipa::dump_callgraph;
use graphz_check::json::render;
use graphz_check::lint::read_tree;
use graphz_check::parser::parse_sources;
use graphz_check::suite::{check, rules, tool_of, TOOLS};

const USAGE: &str = "graphz-check [--root DIR] [--json OUT] [--list-rules] [--dump-callgraph]\n\
     Runs lint, audit, flow, ipa and stale-suppression over the workspace\n\
     (DESIGN.md §6e/§6f/§6j/§6k). Suppress one site with\n\
     `// <tool>:allow(<rule>)` on the line or the line above; every finding\n\
     prints its marker.";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    let (mut list_rules, mut dump) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" | "--json" => {
                let Some(value) = args.next() else {
                    eprintln!("{arg} needs an argument\n{USAGE}");
                    return ExitCode::from(2);
                };
                if arg == "--root" {
                    root = PathBuf::from(value);
                } else {
                    json_out = Some(PathBuf::from(value));
                }
            }
            "--list-rules" => list_rules = true,
            "--dump-callgraph" => dump = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        for tool in TOOLS {
            for rule in tool.rules {
                println!("{:<6} {:<24} {}", tool.prefix, rule.name, rule.why);
            }
        }
        return ExitCode::SUCCESS;
    }

    let sources = match read_tree(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("graphz-check: cannot read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let parsed = parse_sources(&sources);
    if dump {
        print!("{}", dump_callgraph(&parsed));
        return ExitCode::SUCCESS;
    }
    let findings = check(&sources, &parsed);

    if let Some(out) = &json_out {
        if let Err(e) = std::fs::write(out, render("graphz-check", rules(), &findings)) {
            eprintln!("graphz-check: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }

    if findings.is_empty() {
        println!("graphz-check: clean ({} rules)", rules().count());
        return ExitCode::SUCCESS;
    }
    for v in &findings {
        println!("{v}");
        println!(
            "    to suppress: add `// {}:allow({})` at {}:{} (same line or the line above)",
            tool_of(v.rule).prefix,
            v.rule,
            v.path.display(),
            v.line
        );
    }
    println!("graphz-check: {} finding(s)", findings.len());
    ExitCode::FAILURE
}
