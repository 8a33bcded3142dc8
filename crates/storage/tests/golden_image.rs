//! Version-to-version pin of the DOS image. Fixed edge lists are converted
//! at a budget that forces several sort runs per stage, unweighted and
//! weighted; the length and CRC32 of every file the conversion writes must
//! equal the lines in `golden_image.txt`. Each line still reads
//! `threads=1`: the file was first written when the conversion also ran at
//! 3 threads, and the rows it keeps stay byte-for-byte.
//!
//! The equivalence tests compare configurations of one build with each
//! other; this test compares the build with the image an earlier version
//! wrote. A change that means to keep the image byte-identical must leave
//! `golden_image.txt` untouched. A change that moves it on purpose
//! regenerates it:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p graphz-storage --test golden_image
//! ```

use std::path::Path;

use graphz_io::{crc32, IoStats, ScratchDir};
use graphz_storage::{DosConverter, EdgeListFile};
use graphz_types::{derive_weight, Edge, MemoryBudget};

const GOLDEN: &str = "tests/golden_image.txt";

/// Small enough that every stage sort spills several runs.
const BUDGET: MemoryBudget = MemoryBudget(4096);

/// A deterministic pseudo-random stream of `(src, dst)` pairs below `ids`.
fn lcg_edges(seed: u64, count: usize, ids: u64) -> impl Iterator<Item = Edge> {
    let mut x = seed;
    (0..count).map(move |_| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        Edge::new(((x >> 33) % ids) as u32, ((x >> 13) % ids) as u32)
    })
}

/// The fixed inputs, by name.
fn inputs() -> Vec<(&'static str, Vec<Edge>)> {
    // Skewed sources over a dense id space: many repeated degrees.
    let random: Vec<Edge> = lcg_edges(2018, 3000, 300)
        .map(|e| Edge::new(e.src % (1 + e.dst % 150), e.dst))
        .collect();
    // Every edge of a small graph two or three times, in scattered order.
    let base: Vec<Edge> = lcg_edges(7, 700, 120).collect();
    let dups: Vec<Edge> = (0..3)
        .flat_map(|round| base.iter().enumerate().filter(move |(i, _)| round < 2 || i % 3 == 0))
        .map(|(_, e)| *e)
        .rev()
        .collect();
    // Sources below 80, destinations up to 999: ids 80..=999 that appear
    // only as destinations, and the gaps between them, have degree zero.
    let zero_tail: Vec<Edge> = lcg_edges(99, 1500, 80)
        .map(|e| Edge::new(e.src, (e.dst * 12 + 41) % 1000))
        .chain(std::iter::once(Edge::new(3, 999)))
        .collect();
    vec![("random", random), ("dups", dups), ("zero-tail", zero_tail)]
}

/// Entry names of `dir`, sorted.
fn sorted_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// The golden lines of one conversion: one per file it wrote.
fn observe(name: &str, edges: &[Edge], weighted: bool) -> String {
    let scratch = ScratchDir::new("golden-image").unwrap();
    let el = EdgeListFile::create(&scratch.file("g.bin"), IoStats::new(), edges.to_vec()).unwrap();
    let mut b = DosConverter::builder().budget(BUDGET).stats(IoStats::new());
    if weighted {
        b = b.weights(derive_weight);
    }
    let dir = scratch.path().join("dos");
    b.build().unwrap().convert(&el, &dir).unwrap();
    let shape = if weighted { "weighted" } else { "unweighted" };
    sorted_names(&dir)
        .into_iter()
        .map(|file| {
            let bytes = std::fs::read(dir.join(&file)).unwrap();
            format!(
                "{name} {shape} threads=1 {file} len={} crc={:08x}\n",
                bytes.len(),
                crc32(&bytes)
            )
        })
        .collect()
}

#[test]
fn converted_images_match_the_committed_crcs() {
    let mut observed = String::new();
    for (name, edges) in inputs() {
        for weighted in [false, true] {
            observed.push_str(&observe(name, &edges, weighted));
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &observed).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("committed golden image CRCs (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        observed, expected,
        "the converted image drifted from {GOLDEN}; if intentional, regenerate with \
         UPDATE_GOLDEN=1"
    );
}
