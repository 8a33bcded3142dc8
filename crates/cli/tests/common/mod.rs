//! What the memory-bound tests share: the process's own `VmHWM`, and a
//! graph generated and converted by the `graphz` binary in child
//! processes, so only the runs count against the test process.

use std::path::Path;
use std::process::Command;

/// This process's peak resident set, or `None` where `/proc/self/status`
/// has no `VmHWM` line.
pub fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// `graphz generate` + `graphz convert` in child processes; returns the
/// DOS directory.
pub fn build_graph(dir: &Path, name: &str, scale: u32, edges: u64) -> String {
    let graphz = env!("CARGO_BIN_EXE_graphz");
    let bin = dir.join(format!("{name}.bin"));
    let dos = dir.join(name);
    for args in [
        vec![
            "generate".to_string(),
            bin.display().to_string(),
            "--scale".to_string(),
            scale.to_string(),
            "--edges".to_string(),
            edges.to_string(),
        ],
        vec!["convert".to_string(), bin.display().to_string(), dos.display().to_string()],
    ] {
        let status = Command::new(graphz).args(&args).output().unwrap();
        assert!(status.status.success(), "graphz {args:?}: {status:?}");
    }
    dos.display().to_string()
}
