//! Randomized property tests over the core invariants: external sort, the
//! DOS construction (paper §III), Claim 1's unique-degree bound, and
//! cross-engine agreement on random graphs.
//!
//! These were originally written with proptest; the offline build resolves
//! third-party crates from local shims only, so they now run as seeded
//! deterministic sweeps — each case derives its inputs from a fixed-seed RNG,
//! which keeps failures reproducible by seed.

use std::collections::HashMap;
use std::sync::Arc;

use graphz_algos::runner;
use graphz_algos::{AlgoParams, Algorithm};
use graphz_extsort::ExternalSorter;
use graphz_io::{record, IoStats, ScratchDir};
use graphz_storage::dos::unique_degree_bound;
use graphz_storage::EdgeListFile;
use graphz_types::{Edge, MemoryBudget};
use rand::prelude::*;

fn rand_edges(rng: &mut StdRng, max_v: u32, max_e: usize) -> Vec<Edge> {
    let n = rng.random_range(1..max_e);
    (0..n)
        .map(|_| Edge::new(rng.random_range(0..max_v), rng.random_range(0..max_v)))
        .collect()
}

/// External sort = std sort, for any record set and any (tiny) budget.
#[test]
fn extsort_matches_std_sort() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5057 + case);
        let n = rng.random_range(0usize..500);
        let values: Vec<u64> = (0..n).map(|_| rng.random()).collect();
        let budget = rng.random_range(16u64..512);

        let dir = ScratchDir::new("prop-sort").unwrap();
        let stats = IoStats::new();
        record::write_records(&dir.file("in.bin"), Arc::clone(&stats), &values).unwrap();
        let scratch = ScratchDir::new("prop-sort-scratch").unwrap();
        ExternalSorter::builder(|v: &u64| *v)
            .budget(MemoryBudget(budget))
            .stats(Arc::clone(&stats))
            .fan_in(3)
            .build()
            .unwrap()
            .sort_file(&dir.file("in.bin"), &dir.file("out.bin"), &scratch)
            .unwrap();
        let out: Vec<u64> = record::read_records(&dir.file("out.bin"), stats).unwrap();
        let mut expected = values.clone();
        expected.sort_unstable();
        assert_eq!(out, expected, "case {case}");
    }
}

/// DOS conversion is a bijective relabeling that preserves the edge
/// multiset, orders degrees non-increasingly, and satisfies Eq. 1.
#[test]
fn dos_construction_invariants() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xD05 + case);
        let edges = rand_edges(&mut rng, 64, 300);

        let dir = ScratchDir::new("prop-dos").unwrap();
        let stats = IoStats::new();
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges.clone())
            .unwrap();
        let dos = runner::prepare_dos(
            &el,
            &dir.path().join("dos"),
            MemoryBudget(256),
            Arc::clone(&stats),
        )
        .unwrap();
        let n = dos.meta().num_vertices as usize;

        // Bijection between old and new ids.
        let new2old = dos.load_new2old(Arc::clone(&stats)).unwrap();
        let old2new = dos.load_old2new(Arc::clone(&stats)).unwrap();
        assert_eq!(new2old.len(), n);
        assert_eq!(old2new.len(), n);
        for (new, &old) in new2old.iter().enumerate() {
            assert_eq!(old2new[old as usize] as usize, new);
        }

        // Degrees non-increasing in new order; Eq. 1 offsets match the
        // cumulative degree scan; Claim 1 bound holds.
        let idx = dos.index();
        let mut cum = 0u64;
        let mut prev = u32::MAX;
        for v in 0..n as u32 {
            let (deg, offset) = idx.lookup(v).unwrap();
            assert!(deg <= prev, "case {case}: degree increased at {v}");
            assert_eq!(offset, cum, "case {case}");
            cum += deg as u64;
            prev = deg;
        }
        assert_eq!(cum, dos.meta().num_edges);
        assert!(dos.meta().unique_degrees <= unique_degree_bound(dos.meta().num_edges));

        // Edge multiset is preserved under the relabeling.
        let mut expected: HashMap<(u32, u32), u32> = HashMap::new();
        for e in &edges {
            *expected
                .entry((old2new[e.src as usize], old2new[e.dst as usize]))
                .or_default() += 1;
        }
        let mut actual: HashMap<(u32, u32), u32> = HashMap::new();
        for v in 0..n as u32 {
            for d in dos.adjacency(v, Arc::clone(&stats)).unwrap() {
                *actual.entry((v, d)).or_default() += 1;
            }
        }
        assert_eq!(actual, expected, "case {case}");
    }
}

/// BFS agrees between GraphZ (async, out-of-core, relabeled) and the
/// in-memory reference on arbitrary graphs and arbitrary budgets.
#[test]
fn graphz_bfs_matches_reference() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xBF5 + case);
        let edges = rand_edges(&mut rng, 48, 200);
        let budget_kib = rng.random_range(1u64..16);
        let source = rng.random_range(0u32..48);

        let dir = ScratchDir::new("prop-bfs").unwrap();
        let stats = IoStats::new();
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
        if source as u64 >= el.meta().num_vertices {
            continue;
        }
        let dos = runner::prepare_dos(
            &el,
            &dir.path().join("dos"),
            MemoryBudget::from_mib(1),
            Arc::clone(&stats),
        )
        .unwrap();
        let csr = runner::prepare_csr(
            &el,
            &dir.path().join("csr"),
            MemoryBudget::from_mib(1),
            Arc::clone(&stats),
        )
        .unwrap();
        let params = AlgoParams::new(Algorithm::Bfs)
            .with_source(source)
            .with_max_iterations(500);
        let gz = runner::run_graphz(
            &dos,
            &params,
            MemoryBudget::from_kib(budget_kib),
            Arc::clone(&stats),
        )
        .unwrap();
        let reference =
            runner::run_reference(&csr.load(Arc::clone(&stats)).unwrap(), &params).unwrap();
        assert_eq!(gz.values, reference.values, "case {case}");
    }
}

/// The message-CDF (Fig. 2) is monotone and normalized on any graph.
#[test]
fn message_cdf_properties() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xCDF + case);
        let edges = rand_edges(&mut rng, 40, 200);

        let dir = ScratchDir::new("prop-cdf").unwrap();
        let stats = IoStats::new();
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
        let dos = runner::prepare_dos(
            &el,
            &dir.path().join("dos"),
            MemoryBudget::from_mib(1),
            Arc::clone(&stats),
        )
        .unwrap();
        let v = dos.meta().num_vertices;
        let cutoffs: Vec<u64> = (0..=4).map(|i| v * i / 4).collect();
        let cdf = graphz_storage::partition::in_partition_message_cdf(
            &dos,
            &cutoffs,
            Arc::clone(&stats),
        )
        .unwrap();
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "case {case}: {cdf:?}");
        assert_eq!(cdf[0], 0.0);
        assert!((cdf[4] - 1.0).abs() < 1e-9, "case {case}: {cdf:?}");
    }
}

/// MsgManager replays messages in exact send order per partition, for
/// any interleaving of enqueues and any spill cap.
#[test]
fn msgmanager_preserves_order_under_any_interleaving() {
    use graphz_core::msgmanager::MsgManager;
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x1234 + case);
        let n = rng.random_range(0usize..300);
        let sends: Vec<(u32, u32)> = (0..n)
            .map(|_| (rng.random_range(0u32..4), rng.random()))
            .collect();
        let cap_bytes = rng.random_range(8u64..256);

        let dir = ScratchDir::new("prop-msg").unwrap();
        let mut m: MsgManager<u32> =
            MsgManager::new(dir.path().join("m"), 4, cap_bytes, IoStats::new()).unwrap();
        let mut expected: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 4];
        for (i, &(part, payload)) in sends.iter().enumerate() {
            m.enqueue(part, i as u32, payload).unwrap();
            expected[part as usize].push((i as u32, payload));
        }
        for part in 0..4u32 {
            let mut seen = Vec::new();
            m.drain(part, |dst, msg| {
                seen.push((dst, msg));
                true
            })
            .unwrap();
            assert_eq!(&seen, &expected[part as usize], "case {case}");
        }
        assert_eq!(m.pending(), 0);
    }
}

/// Every vertex belongs to exactly one partition, for any layout.
#[test]
fn partitions_tile_the_vertex_space() {
    use graphz_storage::PartitionSet;
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x7117 + case);
        let num_vertices = rng.random_range(0u64..5_000);
        let width = rng.random_range(1u64..600);

        let p = PartitionSet::with_width(num_vertices, width);
        let mut covered = 0u64;
        for (idx, a, b) in p.iter() {
            assert!(a <= b);
            covered += (b - a) as u64;
            for v in a..b {
                assert_eq!(p.partition_of(v), idx, "case {case}");
            }
        }
        assert_eq!(covered, num_vertices, "case {case}");
    }
}

/// Fixed-size codecs round-trip arbitrary values (the invariant every
/// on-disk format in the workspace rests on).
#[test]
fn codec_roundtrips() {
    use graphz_types::FixedCodec;
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for _ in 0..64 {
        let a: u64 = rng.random();
        let b = f32::from_bits(rng.random::<u32>());
        let c: u32 = rng.random();
        let d = f64::from_bits(rng.random::<u64>());
        // NaN breaks equality, not the codec — keep the floats comparable.
        let b = if b.is_nan() { 1.5f32 } else { b };
        let d = if d.is_nan() { -2.5f64 } else { d };
        assert_eq!(u64::read_from(&a.to_bytes()), a);
        assert_eq!(<(u32, f64)>::read_from(&(c, d).to_bytes()), (c, d));
        let tup = (a, b, c);
        assert_eq!(<(u64, f32, u32)>::read_from(&tup.to_bytes()), tup);
        let arr = [b, b * 2.0, -b];
        assert_eq!(<[f32; 3]>::read_from(&arr.to_bytes()), arr);
    }
}

/// Modeled device time and energy are monotone in IO volume.
#[test]
fn device_and_energy_models_are_monotone() {
    use graphz_energy::{ModeledRun, PowerModel};
    use graphz_io::{DeviceModel, IoSnapshot};
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0xE6E + case);
        let bytes = rng.random_range(0u64..10_000_000_000);
        let seeks = rng.random_range(0u64..10_000);

        let small = IoSnapshot {
            read_ops: 1,
            write_ops: 0,
            bytes_read: bytes,
            bytes_written: 0,
            seeks,
        };
        let big = IoSnapshot {
            read_ops: 2,
            write_ops: 0,
            bytes_read: bytes * 2 + 1,
            bytes_written: 0,
            seeks: seeks + 1,
        };
        for dev in [DeviceModel::hdd(), DeviceModel::ssd()] {
            assert!(dev.model_time(small) <= dev.model_time(big), "case {case}");
            let pm = PowerModel::default();
            let cpu = std::time::Duration::from_millis(50);
            let e_small = pm.estimate(&ModeledRun::new(cpu, small), &dev);
            let e_big = pm.estimate(&ModeledRun::new(cpu, big), &dev);
            assert!(e_small.joules <= e_big.joules + 1e-9, "case {case}");
        }
    }
}

/// The locality claim behind Fig. 2, by contrast: degree ordering
/// concentrates a power-law graph's edges into the head far more than a
/// uniform graph's — DOS's locality benefit is a property of *natural*
/// graphs, exactly as §III-E argues.
#[test]
fn degree_ordering_concentrates_power_law_graphs_only() {
    use graphz_storage::partition::in_partition_message_cdf;
    let dir = ScratchDir::new("locality").unwrap();
    let stats = IoStats::new();
    let budget = MemoryBudget::from_mib(1);

    let cases = [
        (
            "rmat",
            EdgeListFile::create(
                &dir.file("rmat.bin"),
                Arc::clone(&stats),
                graphz_gen::rmat_edges(12, 30_000, Default::default(), 5),
            )
            .unwrap(),
        ),
        (
            "uniform",
            EdgeListFile::create(
                &dir.file("er.bin"),
                Arc::clone(&stats),
                graphz_gen::erdos_renyi(4096, 30_000, 5),
            )
            .unwrap(),
        ),
    ];
    let mut head_share = Vec::new();
    for (name, el) in &cases {
        let dos = runner::prepare_dos(
            el,
            &dir.path().join(format!("dos-{name}")),
            budget,
            Arc::clone(&stats),
        )
        .unwrap();
        let v = dos.meta().num_vertices;
        let cdf =
            in_partition_message_cdf(&dos, &[(v / 10).max(1)], Arc::clone(&stats)).unwrap();
        head_share.push(cdf[0]);
    }
    let (rmat, uniform) = (head_share[0], head_share[1]);
    assert!(
        rmat > 2.0 * uniform,
        "power-law head share {rmat:.3} should dwarf uniform {uniform:.3}"
    );
    assert!(uniform < 0.15, "uniform top-10% should hold few edges, got {uniform:.3}");
}

/// GridGraph blocks tile the edge multiset by (source chunk, dest chunk)
/// for any graph and any budget.
#[test]
fn grid_blocks_tile_the_edge_set() {
    use graphz_baselines::gridgraph::GridPartitions;
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x6419 + case);
        let edges = rand_edges(&mut rng, 64, 250);
        let budget = rng.random_range(64u64..2048);

        let dir = ScratchDir::new("prop-grid").unwrap();
        let stats = IoStats::new();
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges.clone())
            .unwrap();
        let grid = GridPartitions::convert(
            &el,
            &dir.path().join("grid"),
            MemoryBudget(budget),
            Arc::clone(&stats),
        )
        .unwrap();
        let mut seen: HashMap<(u32, u32), u32> = HashMap::new();
        for i in 0..grid.num_chunks() {
            let (slo, shi) = grid.range(i);
            for j in 0..grid.num_chunks() {
                let (dlo, dhi) = grid.range(j);
                if let Some(reader) = grid.block_edges(i, j, Arc::clone(&stats)).unwrap() {
                    for e in reader {
                        let e = e.unwrap();
                        assert!(e.src >= slo && e.src < shi, "case {case}");
                        assert!(e.dst >= dlo && e.dst < dhi, "case {case}");
                        *seen.entry((e.src, e.dst)).or_default() += 1;
                    }
                }
            }
        }
        let mut expected: HashMap<(u32, u32), u32> = HashMap::new();
        for e in &edges {
            *expected.entry((e.src, e.dst)).or_default() += 1;
        }
        assert_eq!(seen, expected, "case {case}");
    }
}

/// GridGraph BFS reaches the reference fixed point on arbitrary graphs.
#[test]
fn gridgraph_bfs_matches_reference() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x6BF5 + case);
        let edges = rand_edges(&mut rng, 48, 200);
        let budget = rng.random_range(64u64..1024);

        let dir = ScratchDir::new("prop-grid-bfs").unwrap();
        let stats = IoStats::new();
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
        let grid = runner::prepare_grid(
            &el,
            &dir.path().join("grid"),
            MemoryBudget(budget),
            Arc::clone(&stats),
        )
        .unwrap();
        let csr = runner::prepare_csr(
            &el,
            &dir.path().join("csr"),
            MemoryBudget::from_mib(1),
            Arc::clone(&stats),
        )
        .unwrap();
        let params = AlgoParams::new(Algorithm::Bfs).with_source(0).with_max_iterations(500);
        let grid_out = runner::run_gridgraph(
            &grid,
            &params,
            MemoryBudget(budget),
            Arc::clone(&stats),
        )
        .unwrap();
        let reference =
            runner::run_reference(&csr.load(Arc::clone(&stats)).unwrap(), &params).unwrap();
        assert_eq!(grid_out.values, reference.values, "case {case}");
    }
}
