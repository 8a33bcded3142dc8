//! Tables I & IX: lines of code per algorithm per system, counted from the
//! real source files in `graphz-algos` (embedded at compile time, so the
//! numbers can never drift from the code).

use graphz_types::Result;

use super::loc_of;
use crate::{Harness, Table};

struct AlgoSources {
    name: &'static str,
    reference: Option<&'static str>,
    graphchi: &'static str,
    xstream: &'static str,
    graphz: &'static str,
}

const SOURCES: &[AlgoSources] = &[
    AlgoSources {
        name: "BFS",
        reference: None,
        graphchi: include_str!("../../../algos/src/graphchi/bfs.rs"),
        xstream: include_str!("../../../algos/src/xstream/bfs.rs"),
        graphz: include_str!("../../../algos/src/graphz/bfs.rs"),
    },
    AlgoSources {
        name: "CC",
        reference: None,
        graphchi: include_str!("../../../algos/src/graphchi/cc.rs"),
        xstream: include_str!("../../../algos/src/xstream/cc.rs"),
        graphz: include_str!("../../../algos/src/graphz/cc.rs"),
    },
    AlgoSources {
        name: "PR",
        reference: Some(include_str!("../../../algos/src/reference.rs")),
        graphchi: include_str!("../../../algos/src/graphchi/pagerank.rs"),
        xstream: include_str!("../../../algos/src/xstream/pagerank.rs"),
        graphz: include_str!("../../../algos/src/graphz/pagerank.rs"),
    },
    AlgoSources {
        name: "BP",
        reference: None,
        graphchi: include_str!("../../../algos/src/graphchi/bp.rs"),
        xstream: include_str!("../../../algos/src/xstream/bp.rs"),
        graphz: include_str!("../../../algos/src/graphz/bp.rs"),
    },
    AlgoSources {
        name: "RW",
        reference: None,
        graphchi: include_str!("../../../algos/src/graphchi/random_walk.rs"),
        xstream: include_str!("../../../algos/src/xstream/random_walk.rs"),
        graphz: include_str!("../../../algos/src/graphz/random_walk.rs"),
    },
    AlgoSources {
        name: "SSSP",
        reference: None,
        graphchi: include_str!("../../../algos/src/graphchi/sssp.rs"),
        xstream: include_str!("../../../algos/src/xstream/sssp.rs"),
        graphz: include_str!("../../../algos/src/graphz/sssp.rs"),
    },
];

/// Table I: LOC to implement PageRank, per system. The "plain C" row counts
/// only the PageRank function of the reference module.
pub fn table01(_: &Harness) -> Result<String> {
    let pr = SOURCES.iter().find(|s| s.name == "PR").unwrap();
    // Isolate the reference pagerank function (up to the next `pub fn`).
    let reference = pr.reference.unwrap();
    let pr_fn_start = reference.find("pub fn pagerank").unwrap_or(0);
    let rest = &reference[pr_fn_start..];
    let pr_fn_end = rest[10..].find("\npub fn ").map(|i| i + 10).unwrap_or(rest.len());
    let plain_loc = loc_of(&rest[..pr_fn_end]);

    let mut t = Table::new(
        "Table I: Lines of Code to Implement PageRank",
        &["System", "LOC"],
    );
    t.row(vec!["plain Rust (in-memory)".into(), plain_loc.to_string()]);
    t.row(vec!["GraphChi model".into(), loc_of(pr.graphchi).to_string()]);
    t.row(vec!["GraphZ".into(), loc_of(pr.graphz).to_string()]);
    Ok(t.render())
}

/// Table IX: LOC for all six benchmarks across the three engines.
pub fn table09(_: &Harness) -> Result<String> {
    let mut t = Table::new(
        "Table IX: LOC Comparison of Graph Engines",
        &["Benchmark", "GraphChi", "X-Stream", "GraphZ"],
    );
    for s in SOURCES {
        t.row(vec![
            s.name.into(),
            loc_of(s.graphchi).to_string(),
            loc_of(s.xstream).to_string(),
            loc_of(s.graphz).to_string(),
        ]);
    }
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_with_all_rows() {
        let h = Harness::new();
        let t1 = table01(&h).unwrap();
        assert!(t1.contains("GraphZ"));
        let t9 = table09(&h).unwrap();
        for name in ["BFS", "CC", "PR", "BP", "RW", "SSSP"] {
            assert!(t9.contains(name), "missing {name}");
        }
    }

    #[test]
    fn loc_counts_are_nonzero_and_plausible() {
        for s in SOURCES {
            assert!(loc_of(s.graphz) > 10, "{} graphz too small", s.name);
            assert!(loc_of(s.graphchi) > 10);
            assert!(loc_of(s.xstream) > 10);
            assert!(loc_of(s.graphz) < 200);
        }
    }
}
