//! The bulk-synchronous scatter/gather execution loop.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use graphz_core::msgmanager::MsgManager;
use graphz_io::{IoStats, RecordWriter, ScratchDir, TrackedFile};
use graphz_types::{FixedCodec, GraphError, MemoryBudget, Result, VertexId};

use super::partitions::XsPartitions;
use super::program::XsProgram;
use crate::BaselineRun;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct XsEngineConfig {
    pub budget: MemoryBudget,
    pub scratch_base: Option<PathBuf>,
}

impl XsEngineConfig {
    pub fn new(budget: MemoryBudget) -> Self {
        XsEngineConfig { budget, scratch_base: None }
    }
}

/// An X-Stream-class engine bound to a partition directory and a program.
pub struct XsEngine<P: XsProgram> {
    parts: XsPartitions,
    program: P,
    stats: Arc<IoStats>,
    scratch: ScratchDir,
    vertices_path: PathBuf,
    /// Update files, managed like spilling message buffers. X-Stream calls
    /// these "update files"; the mechanism (append per destination
    /// partition, replay on load) is identical to a message spill layer.
    updates: MsgManager<P::Update>,
    initialized: bool,
}

impl<P: XsProgram> XsEngine<P> {
    pub fn new(
        parts: XsPartitions,
        program: P,
        config: XsEngineConfig,
        stats: Arc<IoStats>,
    ) -> Result<Self> {
        let scratch = match &config.scratch_base {
            Some(base) => ScratchDir::new_in(base, "xstream-engine")?,
            None => ScratchDir::new("xstream-engine")?,
        };
        let updates = MsgManager::new(
            scratch.file("updates"),
            parts.num_partitions(),
            config.budget.bytes() / 4,
            Arc::clone(&stats),
        )?;
        let vertices_path = scratch.file("vertices.bin");
        Ok(XsEngine { parts, program, stats, scratch, vertices_path, updates, initialized: false })
    }

    pub fn partitions(&self) -> &XsPartitions {
        &self.parts
    }

    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Directory holding this run's vertex array and update files.
    pub fn scratch_dir(&self) -> &ScratchDir {
        &self.scratch
    }

    /// One counting pass over the edge files (X-Stream has no index, so
    /// out-degrees are derived), then write initial vertex values.
    pub fn initialize(&mut self) -> Result<()> {
        let mut w =
            RecordWriter::<P::VertexValue>::create(&self.vertices_path, Arc::clone(&self.stats))?;
        for p in 0..self.parts.num_partitions() {
            let (lo, hi) = self.parts.range(p);
            let mut degrees = vec![0u32; (hi - lo) as usize];
            for e in self.parts.edges(p, Arc::clone(&self.stats))? {
                let e = e?;
                degrees[(e.src - lo) as usize] += 1;
            }
            for (i, &d) in degrees.iter().enumerate() {
                w.push(&self.program.init(lo + i as VertexId, d))?;
            }
        }
        w.finish()?;
        self.initialized = true;
        Ok(())
    }

    /// Run up to `max_iterations` bulk-synchronous iterations, stopping
    /// after an iteration whose gather phase changed no vertex.
    pub fn run(&mut self, max_iterations: u32) -> Result<BaselineRun> {
        let start = Instant::now();
        let io_before = self.stats.snapshot();
        if !self.initialized {
            self.initialize()?;
        }
        let k = self.parts.num_partitions();
        let vsize = P::VertexValue::SIZE;
        let mut iterations = 0;
        let mut converged = false;
        let mut updates_sent: u64 = 0;

        let mut vfile = TrackedFile::open_rw(&self.vertices_path, Arc::clone(&self.stats))?;
        let read_slab = |vfile: &mut TrackedFile, lo: VertexId, n: usize| -> Result<Vec<P::VertexValue>> {
            let mut bytes = vec![0u8; n * vsize];
            vfile.seek(SeekFrom::Start(lo as u64 * vsize as u64))?;
            vfile.read_exact(&mut bytes)?;
            Ok(graphz_types::codec::decode_slice(&bytes))
        };

        for iter in 0..max_iterations {
            iterations = iter + 1;

            // ---- Scatter phase: stream edges, emit updates. Vertex state
            // is read-only here, so every scatter sees the previous
            // iteration's values — the bulk-synchronous contract.
            let mut produced: u64 = 0;
            for p in 0..k {
                let (lo, hi) = self.parts.range(p);
                let slab = read_slab(&mut vfile, lo, (hi - lo) as usize)?;
                for e in self.parts.edges(p, Arc::clone(&self.stats))? {
                    let e = e?;
                    if let Some(u) =
                        self.program.scatter(e.src, &slab[(e.src - lo) as usize], e.dst, iter)
                    {
                        self.updates.enqueue(self.parts.partition_of(e.dst), e.dst, u)?;
                        produced += 1;
                    }
                }
            }
            updates_sent += produced;

            // ---- Gather phase: stream updates into vertex state.
            let mut changed: u64 = 0;
            for p in 0..k {
                let (lo, hi) = self.parts.range(p);
                let n = (hi - lo) as usize;
                let mut slab = read_slab(&mut vfile, lo, n)?;
                let program = &self.program;
                let mut local_changed = 0u64;
                self.updates.drain(p, |dst, upd| {
                    let Some(slot) = slab.get_mut(dst.wrapping_sub(lo) as usize) else {
                        return false;
                    };
                    if program.gather(dst, slot, &upd) {
                        local_changed += 1;
                    }
                    true
                })?;
                for (i, v) in slab.iter_mut().enumerate() {
                    if program.post_gather(lo + i as VertexId, v, iter) {
                        local_changed += 1;
                    }
                }
                changed += local_changed;
                let mut bytes = vec![0u8; n * vsize];
                for (i, v) in slab.iter().enumerate() {
                    v.write_to(&mut bytes[i * vsize..]);
                }
                vfile.seek(SeekFrom::Start(lo as u64 * vsize as u64))?;
                vfile.write_all(&bytes)?;
            }

            // Every update produced this iteration was consumed by this
            // iteration's gather, so "no state changed" alone certifies a
            // fixed point even if scatter kept emitting.
            if changed == 0 {
                converged = true;
                break;
            }
        }
        vfile.flush()?;

        Ok(BaselineRun {
            iterations,
            converged,
            partitions: k,
            updates_sent,
            io: self.stats.snapshot() - io_before,
            wall: start.elapsed(),
        })
    }

    /// Final vertex values (already in original id order).
    pub fn values(&self) -> Result<Vec<P::VertexValue>> {
        if !self.initialized {
            return Err(GraphError::InvalidConfig("engine has not run yet".into()));
        }
        graphz_io::record::read_records(&self.vertices_path, Arc::clone(&self.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::ScratchDir;
    use graphz_storage::EdgeListFile;
    use graphz_types::Edge;

    /// BSP label propagation: every vertex adopts the minimum label it has
    /// seen (starting from its own id) — connected components along directed
    /// edges, needing label-diameter iterations under BSP.
    struct MinLabel;

    impl XsProgram for MinLabel {
        type VertexValue = (u32, u32); // (label, active flag)

        type Update = u32;

        fn init(&self, vid: VertexId, _deg: u32) -> (u32, u32) {
            (vid, 1)
        }

        fn scatter(&self, _src: VertexId, v: &(u32, u32), _dst: VertexId, _it: u32) -> Option<u32> {
            (v.1 == 1).then_some(v.0)
        }

        fn gather(&self, _dst: VertexId, v: &mut (u32, u32), upd: &u32) -> bool {
            if *upd < v.0 {
                v.0 = *upd;
                v.1 = 2; // newly improved: scatter next iteration
                true
            } else {
                false
            }
        }

        fn post_gather(&self, _vid: VertexId, v: &mut (u32, u32), _it: u32) -> bool {
            // Demote: active this iteration -> inactive, improved -> active.
            v.1 = if v.1 == 2 { 1 } else { 0 };
            false
        }
    }

    fn run_engine(edges: Vec<Edge>, budget: MemoryBudget) -> (BaselineRun, Vec<(u32, u32)>) {
        let dir = ScratchDir::new("xs-engine").unwrap();
        let stats = IoStats::new();
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
        let parts = XsPartitions::convert(
            &el,
            &dir.path().join("xs"),
            budget,
            Arc::clone(&stats),
        )
        .unwrap();
        let mut engine =
            XsEngine::new(parts, MinLabel, XsEngineConfig::new(budget), stats).unwrap();
        let run = engine.run(100).unwrap();
        let vals = engine.values().unwrap();
        (run, vals)
    }

    fn ring(n: u32) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i, (i + 1) % n)).collect()
    }

    #[test]
    fn min_label_propagates_around_a_ring() {
        let (run, vals) = run_engine(ring(8), MemoryBudget::from_mib(1));
        assert!(run.converged);
        assert!(vals.iter().all(|&(label, _)| label == 0), "{vals:?}");
        // BSP: label 0 moves one hop per iteration => at least 7 iterations.
        assert!(run.iterations >= 7, "BSP needs diameter iterations, got {}", run.iterations);
    }

    #[test]
    fn partitioned_run_matches_single_partition() {
        let (r1, v1) = run_engine(ring(16), MemoryBudget::from_mib(1));
        let (r2, v2) = run_engine(ring(16), MemoryBudget(256)); // width 8 => 2 parts
        assert_eq!(r1.partitions, 1);
        assert!(r2.partitions > 1);
        assert_eq!(v1, v2);
        assert_eq!(r1.iterations, r2.iterations, "BSP iteration count is layout-independent");
    }

    #[test]
    fn two_components_keep_distinct_labels() {
        // Ring 0-1-2 and ring 5-6-7 (vertices 3, 4 isolated).
        let mut edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 0),
            Edge::new(5, 6),
            Edge::new(6, 7),
            Edge::new(7, 5),
        ];
        edges.reverse(); // arbitrary input order
        let (_run, vals) = run_engine(edges, MemoryBudget(128));
        assert_eq!(vals[0].0, 0);
        assert_eq!(vals[1].0, 0);
        assert_eq!(vals[2].0, 0);
        assert_eq!(vals[3].0, 3);
        assert_eq!(vals[4].0, 4);
        assert_eq!(vals[5].0, 5);
        assert_eq!(vals[6].0, 5);
        assert_eq!(vals[7].0, 5);
    }

    #[test]
    fn update_traffic_is_counted() {
        let (run, _) = run_engine(ring(8), MemoryBudget::from_mib(1));
        assert!(run.updates_sent >= 8, "at least one scatter wave");
        assert!(run.io.bytes_read > 0 && run.io.bytes_written > 0);
    }

    #[test]
    fn values_before_run_is_an_error() {
        let dir = ScratchDir::new("xs-err").unwrap();
        let stats = IoStats::new();
        let el =
            EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), ring(4)).unwrap();
        let parts = XsPartitions::convert(
            &el,
            &dir.path().join("xs"),
            MemoryBudget::from_mib(1),
            Arc::clone(&stats),
        )
        .unwrap();
        let engine =
            XsEngine::new(parts, MinLabel, XsEngineConfig::new(MemoryBudget::from_mib(1)), stats)
                .unwrap();
        assert!(engine.values().is_err());
    }
}
