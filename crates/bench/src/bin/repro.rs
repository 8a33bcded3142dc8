//! Reproduces the paper's evaluation: one report per table or figure.
//!
//! ```sh
//! cargo run --release -p graphz-bench --bin repro -- fig09_iostats   # one report
//! cargo run --release -p graphz-bench --bin repro -- all             # every report
//! ```
//!
//! `repro NAME...` prints the named reports in turn. `repro all` runs every
//! report in [`EXPERIMENTS`] order and writes the combined report to
//! `EXPERIMENTS_RESULTS.txt` in the current directory (stdout gets a copy as
//! it goes); a failing section is recorded and the run goes on, exiting 1 at
//! the end. No argument or an unknown name prints the usage and exits 2.
//!
//! Environment knobs: `GRAPHZ_BUDGET_MIB` (default 8) sets the memory
//! budget standing in for the paper machine's RAM; `GRAPHZ_QUICK=1` shrinks
//! every graph 8x for a fast smoke run; `GRAPHZ_CACHE` relocates the
//! generated-graph cache.

#![forbid(unsafe_code)]

use std::process::exit;
use std::time::Instant;

use graphz_bench::experiments::{Report, EXPERIMENTS};
use graphz_bench::Harness;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["all"] {
        return run_all();
    }
    if args.is_empty() {
        usage();
    }
    // Every name resolves before the first report runs.
    let reports: Vec<Report> = args
        .iter()
        .map(|name| EXPERIMENTS.iter().find(|e| e.0 == name).map_or_else(|| usage(), |e| e.2))
        .collect();
    let harness = Harness::new();
    for report in reports {
        match report(&harness) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("experiment failed: {e}");
                exit(1);
            }
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: repro NAME... | repro all\n\nnames:");
    for (name, section, _) in EXPERIMENTS {
        eprintln!("  {name:<24}{section}");
    }
    eprintln!("  {:<24}every report above, into EXPERIMENTS_RESULTS.txt", "all");
    exit(2);
}

fn run_all() {
    let start = Instant::now();
    let harness = Harness::new();
    let mut report = format!(
        "GraphZ reproduction — full evaluation run\nbudget: {}\n",
        graphz_bench::default_budget()
    );
    let mut failures = 0;
    for (_, section, run) in EXPERIMENTS {
        eprintln!(">>> {section} ({:.0?} elapsed)", start.elapsed());
        match run(&harness) {
            Ok(text) => {
                println!("{text}");
                report.push_str(&text);
            }
            Err(e) => {
                failures += 1;
                let msg = format!("\n== {section} FAILED: {e} ==\n");
                eprintln!("{msg}");
                report.push_str(&msg);
            }
        }
    }
    report.push_str(&format!("\nTotal evaluation time: {:.1?}\n", start.elapsed()));
    std::fs::write("EXPERIMENTS_RESULTS.txt", report).expect("write EXPERIMENTS_RESULTS.txt");
    eprintln!("report written to EXPERIMENTS_RESULTS.txt ({:.1?})", start.elapsed());
    if failures > 0 {
        exit(1);
    }
}
