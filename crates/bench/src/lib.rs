//! Shared harness for the paper's experiments (one report per table/figure,
//! run by the `repro` binary; see DESIGN.md §5 for the index).
//!
//! The harness owns a persistent cache of generated graphs and prepared
//! (converted) artifacts so the reports can be run independently and in any
//! order, and provides the uniform run/measure/report plumbing.

#![forbid(unsafe_code)]

pub mod experiments;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphz_algos::runner::{self, AlgoOutcome, EngineKind};
use graphz_algos::{AlgoParams, Algorithm};
use graphz_baselines::graphchi::ChiShards;
use graphz_baselines::gridgraph::GridPartitions;
use graphz_baselines::xstream::XsPartitions;
use graphz_energy::{EnergyReport, ModeledRun, PowerModel};
use graphz_gen::GraphSize;
use graphz_io::{DeviceKind, DeviceModel, IoStats};
use graphz_storage::{CsrFiles, DosGraph, EdgeListFile};
use graphz_types::{MemoryBudget, Result};

/// The memory budget that plays the role of the paper machine's RAM.
pub fn default_budget() -> MemoryBudget {
    match std::env::var("GRAPHZ_BUDGET_MIB").ok().and_then(|v| v.parse::<u64>().ok()) {
        Some(mib) => MemoryBudget::from_mib(mib),
        None => MemoryBudget::from_mib(8),
    }
}

/// The Fig. 6 "RAM" sweep: half, default, and double budget.
pub fn budget_sweep() -> [MemoryBudget; 3] {
    let base = default_budget().bytes();
    [MemoryBudget(base / 4), MemoryBudget(base / 2), MemoryBudget(base)]
}

/// Cache + IO accounting shared by all experiments.
pub struct Harness {
    cache: PathBuf,
    pub stats: Arc<IoStats>,
    /// Shrink the graph suite (env `GRAPHZ_QUICK=1`) for smoke runs.
    quick: bool,
    /// Memoized run outcomes: several experiments reuse the same
    /// (engine, graph, algorithm, budget) combination.
    runs: std::sync::Mutex<std::collections::HashMap<RunKey, AlgoOutcome>>,
}

type RunKey = (EngineKind, GraphSize, Algorithm, u64);

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    pub fn new() -> Self {
        let cache = graphz_gen::suite::default_cache_dir();
        let quick = std::env::var("GRAPHZ_QUICK").is_ok_and(|v| v != "0");
        Harness {
            cache,
            stats: IoStats::new(),
            quick,
            runs: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    pub fn cache_dir(&self) -> &Path {
        &self.cache
    }

    /// Graph spec for a suite size, honoring quick mode (which shrinks every
    /// graph 8x while preserving the size ratios — pair with
    /// `GRAPHZ_BUDGET_MIB=1`).
    pub fn spec(&self, size: GraphSize) -> graphz_gen::GraphSpec {
        let mut spec = size.spec();
        if self.quick {
            spec.scale = spec.scale.saturating_sub(3).max(8);
            spec.num_edges /= 8;
        }
        spec
    }

    /// The (cached) directed edge list for a suite size.
    pub fn edgelist(&self, size: GraphSize) -> Result<EdgeListFile> {
        self.spec(size).ensure(&self.cache, Arc::clone(&self.stats))
    }

    /// The (cached) symmetrized edge list, used by CC.
    pub fn edgelist_sym(&self, size: GraphSize) -> Result<EdgeListFile> {
        let el = self.edgelist(size)?;
        let sym_path = self.cache.join(format!("{}-sym.bin", self.spec(size).name));
        if sym_path.exists() {
            if let Ok(f) = EdgeListFile::open(&sym_path) {
                return Ok(f);
            }
        }
        el.symmetrize(&sym_path, Arc::clone(&self.stats), MemoryBudget::from_mib(64))
    }

    fn artifact_dir(&self, size: GraphSize, sym: bool, kind: &str) -> PathBuf {
        let sym_tag = if sym { "-sym" } else { "" };
        self.cache.join(format!("{}{}-{}", self.spec(size).name, sym_tag, kind))
    }

    fn input(&self, size: GraphSize, sym: bool) -> Result<EdgeListFile> {
        if sym {
            self.edgelist_sym(size)
        } else {
            self.edgelist(size)
        }
    }

    /// Cached DOS conversion (budget-independent).
    pub fn dos(&self, size: GraphSize, sym: bool) -> Result<DosGraph> {
        let dir = self.artifact_dir(size, sym, "dos");
        if dir.join("meta.txt").exists() {
            if let Ok(g) = DosGraph::open(&dir, Arc::clone(&self.stats)) {
                return Ok(g);
            }
        }
        runner::prepare_dos(&self.input(size, sym)?, &dir, default_budget(), Arc::clone(&self.stats))
    }

    /// Cached CSR conversion (budget-independent).
    pub fn csr(&self, size: GraphSize, sym: bool) -> Result<CsrFiles> {
        let dir = self.artifact_dir(size, sym, "csr");
        if dir.join("meta.txt").exists() {
            if let Ok(g) = CsrFiles::open(&dir) {
                return Ok(g);
            }
        }
        runner::prepare_csr(&self.input(size, sym)?, &dir, default_budget(), Arc::clone(&self.stats))
    }

    /// Cached GraphChi shards (interval layout depends on the budget).
    pub fn chi(&self, size: GraphSize, sym: bool, budget: MemoryBudget) -> Result<ChiShards> {
        let dir = self.artifact_dir(size, sym, &format!("chi-{}", budget.bytes()));
        if dir.join("meta.txt").exists() {
            if let Ok(g) = ChiShards::open(&dir, Arc::clone(&self.stats)) {
                return Ok(g);
            }
        }
        runner::prepare_chi(&self.input(size, sym)?, &dir, budget, Arc::clone(&self.stats))
    }

    /// Cached GridGraph blocks (layout depends on the budget).
    pub fn grid(&self, size: GraphSize, sym: bool, budget: MemoryBudget) -> Result<GridPartitions> {
        let dir = self.artifact_dir(size, sym, &format!("grid-{}", budget.bytes()));
        if dir.join("meta.txt").exists() {
            if let Ok(g) = GridPartitions::open(&dir) {
                return Ok(g);
            }
        }
        runner::prepare_grid(&self.input(size, sym)?, &dir, budget, Arc::clone(&self.stats))
    }

    /// Cached X-Stream partitions (layout depends on the budget).
    pub fn xs(&self, size: GraphSize, sym: bool, budget: MemoryBudget) -> Result<XsPartitions> {
        let dir = self.artifact_dir(size, sym, &format!("xs-{}", budget.bytes()));
        if dir.join("meta.txt").exists() {
            if let Ok(g) = XsPartitions::open(&dir) {
                return Ok(g);
            }
        }
        runner::prepare_xs(&self.input(size, sym)?, &dir, budget, Arc::clone(&self.stats))
    }

    /// Default parameters per algorithm: BFS/SSSP from vertex 0 (always the
    /// highest-degree hub after R-MAT generation), convergence caps sized to
    /// the suite.
    pub fn params(&self, algorithm: Algorithm) -> AlgoParams {
        AlgoParams::new(algorithm)
            .with_source(0)
            .with_max_iterations(match algorithm {
                Algorithm::PageRank => 50,
                Algorithm::Bp | Algorithm::RandomWalk => 16,
                _ => 200,
            })
            .with_rounds(10)
    }

    /// Run `algorithm` on `engine` for `size` under `budget`. GraphChi may
    /// fail with `IndexExceedsMemory` — callers surface that as the paper
    /// does (a blank entry).
    pub fn run(
        &self,
        engine: EngineKind,
        size: GraphSize,
        algorithm: Algorithm,
        budget: MemoryBudget,
    ) -> Result<AlgoOutcome> {
        let key = (engine, size, algorithm, budget.bytes());
        if let Some(hit) = self.runs.lock().unwrap().get(&key) {
            return Ok(hit.clone());
        }
        let outcome = self.run_uncached(engine, size, algorithm, budget)?;
        self.runs.lock().unwrap().insert(key, outcome.clone());
        Ok(outcome)
    }

    fn run_uncached(
        &self,
        engine: EngineKind,
        size: GraphSize,
        algorithm: Algorithm,
        budget: MemoryBudget,
    ) -> Result<AlgoOutcome> {
        let sym = algorithm.wants_symmetrized();
        let params = self.params(algorithm);
        match engine {
            EngineKind::GraphZ => {
                let dos = self.dos(size, sym)?;
                runner::run_graphz(&dos, &params, budget, Arc::clone(&self.stats))
            }
            EngineKind::GraphZNoDos => {
                let csr = self.csr(size, sym)?;
                runner::run_graphz_dense(&csr, &params, budget, true, Arc::clone(&self.stats))
            }
            EngineKind::GraphZNoDosNoDm => {
                let csr = self.csr(size, sym)?;
                runner::run_graphz_dense(&csr, &params, budget, false, Arc::clone(&self.stats))
            }
            EngineKind::GraphChi => {
                let shards = self.chi(size, sym, budget)?;
                runner::run_graphchi(&shards, &params, budget, Arc::clone(&self.stats))
            }
            EngineKind::XStream => {
                let parts = self.xs(size, sym, budget)?;
                runner::run_xstream(&parts, &params, budget, Arc::clone(&self.stats))
            }
            EngineKind::GridGraph => {
                let grid = self.grid(size, sym, budget)?;
                runner::run_gridgraph(&grid, &params, budget, Arc::clone(&self.stats))
            }
            EngineKind::Reference => {
                let csr = self.csr(size, sym)?;
                let g = csr.load(Arc::clone(&self.stats))?;
                runner::run_reference(&g, &params)
            }
        }
    }
}

/// Modeled wall time of an outcome on a device (DESIGN.md §3's device-model
/// substitution: measured IO trace, modeled device service time).
pub fn modeled_time(outcome: &AlgoOutcome, device: DeviceKind) -> Duration {
    ModeledRun::new(outcome.wall, outcome.io).runtime(&DeviceModel::by_kind(device))
}

/// Modeled energy of an outcome on a device.
pub fn modeled_energy(outcome: &AlgoOutcome, device: DeviceKind) -> EnergyReport {
    PowerModel::default()
        .estimate(&ModeledRun::new(outcome.wall, outcome.io), &DeviceModel::by_kind(device))
}

/// Harmonic mean — the aggregate the paper reports for speedups.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.len() as f64 / values.iter().map(|v| 1.0 / v).sum::<f64>()
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

// ---------------------------------------------------------------------------
// Plain-text table rendering for experiment output.
// ---------------------------------------------------------------------------

/// A fixed-width text table, printed in the same orientation as the paper's.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:<width$}  ", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Human formatting helpers.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{:.0}s", s)
    } else if s >= 1.0 {
        format!("{:.2}s", s)
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.0}us", s * 1e6)
    }
}

pub fn fmt_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = b as f64;
    if b >= KIB * KIB * KIB {
        format!("{:.2}GiB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.2}MiB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.1}KiB", b / KIB)
    } else {
        format!("{b}B")
    }
}

pub fn fmt_count(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}B", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_basics() {
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((harmonic_mean(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
        assert!(harmonic_mean(&[]).is_nan());
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 5); // title, header, rule, 2 rows
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        Table::new("x", &["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_duration(Duration::from_millis(2500)), "2.50s");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.5ms");
        assert_eq!(fmt_duration(Duration::from_micros(20)), "20us");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00MiB");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(12_500), "12.5K");
        assert_eq!(fmt_count(3_000_000), "3.00M");
    }

    #[test]
    fn default_budget_reads_env() {
        // Do not mutate global env in-process (tests run in parallel); just
        // confirm the default.
        if std::env::var("GRAPHZ_BUDGET_MIB").is_err() {
            assert_eq!(default_budget(), MemoryBudget::from_mib(8));
        }
    }

    #[test]
    fn budget_sweep_is_ascending() {
        let s = budget_sweep();
        assert!(s[0] < s[1] && s[1] < s[2]);
    }
}
