//! One module per paper table/figure. Every module exposes a
//! `report(&Harness) -> Result<String>` producing the experiment's tables,
//! and [`EXPERIMENTS`] lists them all: the `repro` binary prints one report
//! per name it is given, and `repro all` runs the whole list into
//! `EXPERIMENTS_RESULTS.txt`, the source of EXPERIMENTS.md.

pub mod ablations;
pub mod ext_gridgraph;
pub mod fig02_inpartition_cdf;
pub mod fig05_xlarge;
pub mod fig06_runtimes;
pub mod fig07_breakdown;
pub mod fig08_energy;
pub mod fig09_iostats;
pub mod loc;
pub mod table02_pr_time;
pub mod table08_unique_degrees;
pub mod table10_graphs;
pub mod table11_index_size;
pub mod table12_preprocessing;
pub mod table14_iterations;

use graphz_types::Result;

use crate::Harness;

/// Renders one report of the evaluation.
pub type Report = fn(&Harness) -> Result<String>;

/// Every report as `(name, section, report)`, in the order `repro all`
/// runs them: `repro NAME` prints one, and `repro all` announces each by
/// its section title.
pub const EXPERIMENTS: &[(&str, &str, Report)] = &[
    ("table01_loc", "Table I", loc::table01),
    ("table02_pr_time", "Table II", table02_pr_time::report),
    ("table08_unique_degrees", "Table VIII", table08_unique_degrees::report),
    ("table09_loc_engines", "Table IX", loc::table09),
    ("table10_graphs", "Table X", table10_graphs::report),
    ("table11_index_size", "Table XI", table11_index_size::report),
    ("table12_preprocessing", "Table XII", table12_preprocessing::report),
    ("fig02_inpartition_cdf", "Fig. 2", fig02_inpartition_cdf::report),
    ("fig05_xlarge", "Fig. 5", fig05_xlarge::report),
    ("fig06_runtimes", "Fig. 6", fig06_runtimes::report),
    ("fig07_breakdown", "Fig. 7", fig07_breakdown::report),
    ("fig08_energy", "Fig. 8 / Table XIII", fig08_energy::report),
    ("fig09_iostats", "Fig. 9", fig09_iostats::report),
    ("table14_iterations", "Table XIV", table14_iterations::report),
    ("ext_gridgraph", "Extension: GridGraph", ext_gridgraph::report),
    ("ablations", "Ablations", ablations::report),
];

/// Lines of code the way the paper counts them: non-blank, non-comment
/// source lines.
pub fn loc_of(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("/*") && !l.starts_with('*'))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_skips_blanks_and_comments() {
        let src = "// comment\n\nfn main() {\n    //! doc\n    let x = 1;\n}\n";
        assert_eq!(loc_of(src), 3);
    }
}
