//! `graphz run`'s `--top K` listing is made in one pass over the final
//! values with a K-row heap. These tests hold it to the listing a full sort
//! of the collected values prints, on a graph built to be full of ties, and
//! hold a damaged `new2old.bin` to a typed error instead of a panic.

use std::path::Path;
use std::sync::Arc;

use graphz_algos::runner::{self, CheckpointSpec};
use graphz_algos::{AlgoParams, AlgoValues, Algorithm};
use graphz_cli::{execute, parse};
use graphz_io::{IoStats, ScratchDir};
use graphz_storage::DosGraph;
use graphz_types::{EngineOptions, GraphError, MemoryBudget, Result};

const ALGOS: [(&str, Algorithm); 6] = [
    ("pr", Algorithm::PageRank),
    ("bfs", Algorithm::Bfs),
    ("cc", Algorithm::Cc),
    ("sssp", Algorithm::Sssp),
    ("bp", Algorithm::Bp),
    ("rw", Algorithm::RandomWalk),
];

fn run(line: &str) -> Result<String> {
    let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    execute(parse(&args)?)
}

/// A graph of ties, in original ids:
/// - hub 0 reaches 1..=30 (1 hop) and each `i` reaches `30 + i` (2 hops);
///   even `i` also reach 61, so equal hops span two out-degrees and the
///   degree-ordered storage order differs from the original one;
/// - fifteen 3-vertex paths `a -> a+1 <- a+2` from 62 on, whose ends have
///   no in-edges (equal ranks) and whose sizes are equal;
/// - 107..=118 isolated, and the pair 119 -> 120.
fn tie_graph(dir: &ScratchDir) -> std::path::PathBuf {
    let mut text = String::new();
    for i in 1..=30u32 {
        text.push_str(&format!("0 {i}\n{i} {}\n", 30 + i));
        if i % 2 == 0 {
            text.push_str(&format!("{i} 61\n"));
        }
    }
    for j in 0..15u32 {
        let a = 62 + 3 * j;
        text.push_str(&format!("{a} {}\n{} {}\n", a + 1, a + 2, a + 1));
    }
    text.push_str("119 120\n");
    let txt = dir.file("ties.txt");
    std::fs::write(&txt, text).unwrap();
    let dos = dir.path().join("dos");
    run(&format!("convert {} {}", txt.display(), dos.display())).unwrap();
    dos
}

/// Rows of `values` under the `--top` order (`largest_first` or not, then
/// ascending id) by a full sort.
fn sorted<T: Copy + Into<f64>>(values: &[T], largest_first: bool) -> Vec<(usize, f64)> {
    let mut rows: Vec<(usize, f64)> = values.iter().map(|&v| v.into()).enumerate().collect();
    rows.sort_by(|a, b| {
        let by_value = if largest_first { b.1.total_cmp(&a.1) } else { a.1.total_cmp(&b.1) };
        by_value.then(a.0.cmp(&b.0))
    });
    rows
}

/// The `--top k` listing of collected values, by full sorts.
fn full_sort_listing(values: &AlgoValues, k: usize) -> String {
    let mut out = String::new();
    match values {
        AlgoValues::Ranks(v) | AlgoValues::Visits(v) => {
            out.push_str(if matches!(values, AlgoValues::Ranks(_)) {
                "top vertices by rank:\n"
            } else {
                "top vertices by visit mass:\n"
            });
            for (id, val) in sorted(v, true).into_iter().take(k) {
                out.push_str(&format!("  {id:>8}  {val:.4}\n"));
            }
        }
        AlgoValues::Hops(v) => {
            let reached = v.iter().filter(|&&d| d != u32::MAX).count();
            out.push_str(&format!("reached {reached} of {} vertices; nearest:\n", v.len()));
            for (id, val) in sorted(v, false).into_iter().take(k) {
                if val == f64::from(u32::MAX) {
                    break;
                }
                out.push_str(&format!("  {id:>8}  {val:.0} hops\n"));
            }
        }
        AlgoValues::Costs(v) => {
            let reached = v.iter().filter(|d| d.is_finite()).count();
            out.push_str(&format!("reached {reached} of {} vertices; nearest:\n", v.len()));
            for (id, val) in sorted(v, false).into_iter().take(k) {
                if !val.is_finite() {
                    break;
                }
                out.push_str(&format!("  {id:>8}  {val:.3}\n"));
            }
        }
        AlgoValues::Labels(v) => {
            let mut sizes: std::collections::BTreeMap<u32, u64> = Default::default();
            for &label in v {
                *sizes.entry(label).or_default() += 1;
            }
            let mut by_size: Vec<(u32, u64)> = sizes.into_iter().collect();
            by_size.sort_by_key(|&(label, n)| (std::cmp::Reverse(n), label));
            out.push_str(&format!("{} components; largest:\n", by_size.len()));
            for (label, n) in by_size.into_iter().take(k) {
                out.push_str(&format!("  component {label:>8}: {n} vertices\n"));
            }
        }
        AlgoValues::Beliefs(v) => {
            out.push_str("most state-0-confident vertices:\n");
            let confidences: Vec<f32> = v.iter().map(|b| b[0]).collect();
            for (id, val) in sorted(&confidences, true).into_iter().take(k) {
                out.push_str(&format!("  {id:>8}  P(state 0) = {val:.4}\n"));
            }
        }
    }
    out
}

fn collected(dos: &Path, algo: Algorithm) -> AlgoValues {
    let stats = IoStats::new();
    let graph = DosGraph::open(dos, Arc::clone(&stats)).unwrap();
    // `graphz run`'s defaults: source 0, 100 iterations, 8 MiB.
    let params = AlgoParams::new(algo).with_source(0).with_max_iterations(100);
    runner::run_graphz_configured(
        &graph,
        &params,
        MemoryBudget::from_mib(8),
        EngineOptions::full(),
        &CheckpointSpec::disabled(),
        stats,
    )
    .unwrap()
    .values
}

#[test]
fn the_listing_is_what_a_full_sort_prints_for_every_algorithm_and_top() {
    let dir = ScratchDir::new("cli-listing").unwrap();
    let dos = tie_graph(&dir);
    let v = DosGraph::open(&dos, IoStats::new()).unwrap().meta().num_vertices as usize;
    assert_eq!(v, 121);
    for (name, algo) in ALGOS {
        let values = collected(&dos, algo);
        for k in [0, 1, 10, v, v + 5] {
            let out = run(&format!("run {name} {} --top {k}", dos.display())).unwrap();
            // The first two lines are the run summary and its IO and wall time.
            let listing: String = out.split_inclusive('\n').skip(2).collect();
            assert_eq!(listing, full_sort_listing(&values, k), "{name} --top {k}");
        }
    }
}

#[test]
fn a_damaged_new2old_is_a_typed_corrupt_naming_it() {
    let dir = ScratchDir::new("cli-new2old").unwrap();
    let dos = tie_graph(&dir);
    let path = dos.join("new2old.bin");
    let good = std::fs::read(&path).unwrap();
    let mut out_of_range = good.clone();
    out_of_range[40..44].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
    let damages = [("truncated by one id", good[..good.len() - 4].to_vec()), ("id past V", out_of_range)];
    for (damage, bytes) in damages {
        std::fs::write(&path, bytes).unwrap();
        for (name, _) in ALGOS {
            let err = run(&format!("run {name} {} --top 3", dos.display())).unwrap_err();
            assert!(matches!(err, GraphError::Corrupt(_)), "{name}, {damage}: {err:?}");
            assert!(err.to_string().contains("new2old.bin"), "{name}, {damage}: {err}");
        }
    }
}
