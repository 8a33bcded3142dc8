//! Everything a workload feeds the program, derived from `--seed` alone:
//! the R-MAT graph, its text form, the serve query scripts and the
//! traversal sources. Same seed, same bytes.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use graphz_gen::{rmat_edges, RmatParams};
use graphz_types::{Edge, VertexId};
use rand::prelude::*;

use crate::Res;

/// An R-MAT graph over `2^scale` vertex ids with `edges` edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphSpec {
    pub scale: u32,
    pub edges: u64,
}

/// The graph is generated in this many independently seeded pieces so that
/// set-up can use every core; the pieces are concatenated in order, so the
/// result does not depend on how many cores there are.
const GEN_PIECES: u64 = 4;

/// Call `piece(index, from, count)` for each piece of `0..total` on its own
/// thread; results come back in piece order.
fn in_pieces<T: Send>(total: u64, piece: impl Fn(u64, usize, usize) -> T + Sync) -> Vec<T> {
    let per = total.div_ceil(GEN_PIECES);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..GEN_PIECES)
            .map(|i| {
                let piece = &piece;
                let (from, to) = ((i * per).min(total), ((i + 1) * per).min(total));
                scope.spawn(move || piece(i, from as usize, (to - from) as usize))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("input generator thread panicked"))
            .collect()
    })
}

pub fn generate(spec: GraphSpec, seed: u64) -> Vec<Edge> {
    in_pieces(spec.edges, |i, _, count| {
        let piece_seed = seed.wrapping_mul(GEN_PIECES).wrapping_add(i);
        rmat_edges(spec.scale, count as u64, RmatParams::default(), piece_seed)
            .collect::<Vec<Edge>>()
    })
    .concat()
}

/// SNAP-style text, one `src<TAB>dst` line per edge, in generation order.
pub fn edges_as_text(edges: &[Edge]) -> Vec<u8> {
    in_pieces(edges.len() as u64, |_, from, count| {
        let mut text = String::with_capacity(count * 14);
        for e in &edges[from..from + count] {
            let _ = writeln!(text, "{}\t{}", e.src, e.dst);
        }
        text.into_bytes()
    })
    .concat()
}

pub fn write_text(edges: &[Edge], path: &Path) -> Res<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(&edges_as_text(edges))?;
    Ok(())
}

/// Number of vertex ids the graph spans (`max id + 1`), as the image's
/// `meta.txt` will report it.
pub fn id_span(edges: &[Edge]) -> u64 {
    edges
        .iter()
        .map(|e| u64::from(e.src.max(e.dst)) + 1)
        .max()
        .unwrap_or(0)
}

/// Serve-mixed traffic, `count` request lines: 30% `degree`, 40%
/// `neighbors`, 20% `value`, 10% `khop v 2`; within each kind half the ids
/// uniform, half skewed to the hubs (`floor(n * u^4)` — storage ids are
/// degree-ordered, so small ids are the big vertices).
///
/// The `u` of each kind are stratified (one per equal slice of `[0, 1)`,
/// jittered inside it) and the lines then shuffled. Hub queries cost
/// thousands of times what leaf queries do, so with independent draws the
/// work in a script would swing by the luck of a few hub hits; stratified,
/// every seed asks for the same spread of vertices in a different order.
/// `stream` separates the scripts of one seed (connection, warm-up or timed).
pub fn query_script(seed: u64, stream: u64, num_vertices: u64, count: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ (stream + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let n = num_vertices as f64;
    let mut lines = Vec::with_capacity(count);
    let mut upto = 0;
    for (verb, suffix, percent) in [
        ("degree", "", 30),
        ("neighbors", "", 70),
        ("value", "", 90),
        ("khop", " 2", 100),
    ] {
        let share = count * percent / 100 - upto;
        upto += share;
        for i in 0..share {
            let u = ((i / 2) as f64 + rng.random::<f64>()) / share.div_ceil(2) as f64;
            let spread = if i % 2 == 0 { u } else { u.powi(4) };
            let v = ((n * spread) as u64).min(num_vertices - 1);
            lines.push(format!("{verb} {v}{suffix}"));
        }
    }
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.random_range(0..i + 1));
    }
    lines
}

/// One step of the traversal script: the `graphz run` algorithm name and,
/// for BFS and SSSP, the source (an original vertex id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraversalStep {
    pub algo: &'static str,
    pub source: Option<VertexId>,
}

/// 4 BFS + 2 SSSP from distinct sources, then 1 CC. A source is the tail of
/// a seed-drawn edge, so it has out-degree >= 1 and the traversal goes
/// somewhere.
pub fn traversal_script(seed: u64, edges: &[Edge]) -> Vec<TraversalStep> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7261_7665_7273_616c);
    // Six distinct tails: the workload graphs have hundreds of thousands.
    let mut sources: Vec<VertexId> = Vec::new();
    while sources.len() < 6 {
        let s = edges[rng.random_range(0..edges.len())].src;
        if !sources.contains(&s) {
            sources.push(s);
        }
    }
    let mut script: Vec<TraversalStep> = sources
        .iter()
        .enumerate()
        .map(|(i, &s)| TraversalStep {
            algo: if i < 4 { "bfs" } else { "sssp" },
            source: Some(s),
        })
        .collect();
    script.push(TraversalStep {
        algo: "cc",
        source: None,
    });
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: GraphSpec = GraphSpec {
        scale: 8,
        edges: 1001,
    };

    #[test]
    fn same_seed_gives_identical_graph_bytes() {
        let a = generate(SMALL, 7);
        assert_eq!(a.len(), 1001);
        assert_eq!(a, generate(SMALL, 7));
        assert_ne!(a, generate(SMALL, 8));
        assert_eq!(edges_as_text(&a), edges_as_text(&generate(SMALL, 7)));
        assert!(a.iter().all(|e| e.src < 256 && e.dst < 256));
    }

    #[test]
    fn text_is_one_tab_separated_line_per_edge_in_order() {
        let edges = [
            Edge::new(3, 4),
            Edge::new(0, 12),
            Edge::new(7, 7),
            Edge::new(1, 0),
            Edge::new(9, 2),
        ];
        assert_eq!(edges_as_text(&edges), b"3\t4\n0\t12\n7\t7\n1\t0\n9\t2\n");
        assert_eq!(id_span(&edges), 13);
    }

    #[test]
    fn query_script_is_seeded_and_keeps_the_mix() {
        let a = query_script(42, 0, 1000, 5000);
        assert_eq!(a.len(), 5000);
        assert_eq!(a, query_script(42, 0, 1000, 5000));
        assert_ne!(
            a,
            query_script(42, 1, 1000, 5000),
            "streams get their own traffic"
        );
        assert_ne!(a, query_script(43, 0, 1000, 5000));
        let count = |verb: &str| a.iter().filter(|q| q.starts_with(verb)).count();
        assert_eq!(
            (
                count("degree"),
                count("neighbors"),
                count("value"),
                count("khop")
            ),
            (1500, 2000, 1000, 500)
        );
        assert!(a
            .iter()
            .filter(|q| q.starts_with("khop"))
            .all(|q| q.ends_with(" 2")));
        // Shuffled, not grouped by kind.
        assert!(a[..100].iter().any(|q| q.starts_with("khop")));
        // Every id is in range, and the hub skew shows: far more than the
        // uniform 1% of queries land on the first 1% of ids.
        let ids: Vec<u64> = a
            .iter()
            .map(|q| q.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(ids.iter().all(|&v| v < 1000));
        let hub_share = ids.iter().filter(|&&v| v < 10).count() as f64 / 5000.0;
        assert!(hub_share > 0.1, "{hub_share}");
    }

    #[test]
    fn query_script_asks_every_seed_for_the_same_spread_of_vertices() {
        // Stratified: two seeds differ only by jitter inside each slice, so
        // they put (almost) the same number of k-hop queries under any id.
        let khop_ids = |seed| -> Vec<u64> {
            query_script(seed, 0, 1_000_000, 2000)
                .iter()
                .filter(|q| q.starts_with("khop"))
                .map(|q| q.split_whitespace().nth(1).unwrap().parse().unwrap())
                .collect()
        };
        let (a, b) = (khop_ids(1), khop_ids(2));
        assert_eq!((a.len(), b.len()), (200, 200));
        assert_ne!(a, b);
        for under in [100, 10_000, 100_000, 500_000] {
            let count = |ids: &[u64]| ids.iter().filter(|&&v| v < under).count();
            assert!(
                count(&a).abs_diff(count(&b)) <= 2,
                "under {under}: {} vs {}",
                count(&a),
                count(&b)
            );
        }
    }

    #[test]
    fn traversal_script_is_seeded_with_live_distinct_sources() {
        let edges = generate(SMALL, 3);
        let script = traversal_script(11, &edges);
        assert_eq!(script, traversal_script(11, &edges));
        assert_ne!(script, traversal_script(12, &edges));
        let algos: Vec<&str> = script.iter().map(|s| s.algo).collect();
        assert_eq!(algos, ["bfs", "bfs", "bfs", "bfs", "sssp", "sssp", "cc"]);
        let sources: Vec<VertexId> = script.iter().filter_map(|s| s.source).collect();
        assert_eq!(sources.len(), 6);
        for (i, s) in sources.iter().enumerate() {
            assert!(
                edges.iter().any(|e| e.src == *s),
                "source {s} has no out-edge"
            );
            assert!(!sources[..i].contains(s), "source {s} drawn twice");
        }
    }
}
