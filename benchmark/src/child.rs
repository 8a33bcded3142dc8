//! The untraced surface: `graphz <args>` as a process of its own.
//!
//! This package depends on the `graphz-cli` library, not on the `graphz`
//! binary, so the benchmark executable doubles as one: `graphz-benchmark cli
//! <args>` is `graphz_cli::parse` + `graphz_cli::execute` and nothing else —
//! what `crates/cli/src/main.rs` does. One process per command keeps peak
//! memory and `/proc/self/io` traffic per command, untouched by the
//! harness's own graph generation and oracles.

use std::process::{Child, Command, ExitCode, Output, Stdio};
use std::time::{Duration, Instant};

use crate::Res;

/// Prefix of the accounting line the child appends to its stderr.
const REPORT: &str = "@@graphz-benchmark";

/// `rchar + wchar` of this process so far: bytes through read- and
/// write-like system calls, whether or not they reached a device.
pub fn proc_io_bytes() -> Res<u64> {
    let text = std::fs::read_to_string("/proc/self/io")?;
    let field = |name: &str| -> Res<u64> {
        let line = text
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .ok_or_else(|| format!("/proc/self/io has no {name} line"))?;
        Ok(line.trim().parse()?)
    };
    Ok(field("rchar:")? + field("wchar:")?)
}

fn peak_rss_kib() -> Res<u64> {
    let text = std::fs::read_to_string("/proc/self/status")?;
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(line.trim().trim_end_matches("kB").trim().parse()?)
}

/// The child side: run one `graphz` command line, then report what it cost.
pub fn cli_main(args: &[String]) -> ExitCode {
    let io_before = proc_io_bytes();
    let started = Instant::now();
    let code = match graphz_cli::parse(args).and_then(graphz_cli::execute) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    };
    let inside = started.elapsed().as_nanos();
    match (io_before, proc_io_bytes(), peak_rss_kib()) {
        (Ok(before), Ok(after), Ok(peak)) => {
            eprintln!(
                "{REPORT} io_bytes={} peak_rss_kib={peak} inside_ns={inside}",
                after - before
            );
            code
        }
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
            eprintln!("error: cannot account for the command: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one finished command cost, and what it printed.
#[derive(Debug, Clone)]
pub struct Finished {
    pub wall: Duration,
    /// `/proc/self/io` `rchar + wchar` over parse + execute + print.
    pub io_bytes: u64,
    /// `VmHWM` when the command had finished.
    pub peak_rss_kib: u64,
    /// Parse + execute + print as the child clocked it: `wall` minus this is
    /// what starting and ending the process cost.
    pub inside: Duration,
    pub stdout: String,
}

/// A `graphz` command running as a child process.
pub struct Running {
    child: Child,
    started: Instant,
    line: String,
}

pub fn spawn(args: &[String]) -> Res<Running> {
    let started = Instant::now();
    let child = Command::new(std::env::current_exe()?)
        .arg("cli")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    Ok(Running {
        child,
        started,
        line: args.join(" "),
    })
}

impl Running {
    /// Wait for the command to end; the wall clock runs from spawn to exit.
    pub fn finish(self) -> Res<Finished> {
        let Output {
            status,
            stdout,
            stderr,
        } = self.child.wait_with_output()?;
        let wall = self.started.elapsed();
        let stderr = String::from_utf8_lossy(&stderr);
        if !status.success() {
            return Err(format!("`graphz {}` failed ({status}): {stderr}", self.line).into());
        }
        let report = stderr
            .lines()
            .find_map(|l| l.strip_prefix(REPORT))
            .ok_or_else(|| format!("`graphz {}` left no accounting line", self.line))?;
        let field = |name: &str| -> Res<u64> {
            let value = report
                .split_whitespace()
                .find_map(|w| w.strip_prefix(name))
                .ok_or_else(|| format!("accounting line has no {name}"))?;
            Ok(value.parse()?)
        };
        Ok(Finished {
            wall,
            io_bytes: field("io_bytes=")?,
            peak_rss_kib: field("peak_rss_kib=")?,
            inside: Duration::from_nanos(field("inside_ns=")?),
            stdout: String::from_utf8(stdout)?,
        })
    }

    /// Whether the command has already ended (it should not have, while a
    /// client still waits for it).
    pub fn exited(&mut self) -> Res<bool> {
        Ok(self.child.try_wait()?.is_some())
    }

    /// Stop a command that will not end by itself (used on error paths so no
    /// process outlives the benchmark).
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run one command to completion.
pub fn run(args: &[String]) -> Res<Finished> {
    spawn(args)?.finish()
}
