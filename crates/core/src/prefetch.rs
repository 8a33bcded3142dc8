//! Partition prefetcher: GridGraph-style double buffering for the engine's
//! partition loop.
//!
//! While partition *p* computes, a background thread loads partition
//! *p + 1* — only when that partition is already known to have work
//! (pending messages or a vertex that wants an update), so no load is
//! wasted on a partition the engine will skip: its partition index, its
//! vertex slab (read through a separate file handle — the regions are
//! disjoint from whatever the engine is writing), with its *claimed*
//! spilled-message run (see [`MsgManager::claim`]) replayed into that slab
//! on the prefetch thread as the segments are read. At most one request is
//! in flight, so exactly two partition buffers ever exist: the one
//! computing and the one loading.
//!
//! Prefetching is pure scheduling. The claim protocol guarantees no message
//! is ever lost if a prefetch is discarded, and the claimed run is applied
//! with the same [`replay`] the engine's own drain
//! uses, oldest message first, before anything newer is drained, so results
//! are bit-identical with the prefetcher on or off.
//!
//! [`MsgManager::claim`]: crate::msgmanager::MsgManager::claim

use std::path::Path;
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender};
use graphz_io::{IoStats, TrackedFile};
use graphz_types::codec::decode_slice;
use graphz_types::{IoCtx, Result, VertexId};

use crate::engine::read_vertices;
use crate::msgmanager::ClaimedSegments;
use crate::program::VertexProgram;
use crate::store::GraphStore;
use crate::worker::replay;

struct Request {
    a: VertexId,
    b: VertexId,
    claim: ClaimedSegments,
}

/// A partition loaded for the Worker: its slab and its index. A prefetched
/// one comes with its claimed spill run, already replayed into the slab:
/// the claim to retire via [`MsgManager::consume_claimed`], and how many
/// messages it held.
///
/// [`MsgManager::consume_claimed`]: crate::msgmanager::MsgManager::consume_claimed
pub struct Loaded<V> {
    pub slab: Vec<V>,
    pub start_edge: u64,
    pub degrees: Vec<u32>,
    pub claim: Option<(ClaimedSegments, u64)>,
}

/// A prefetched partition with its slab's bytes as read, which the flush
/// compares against to write back only the blocks that changed; `None`
/// when the load failed, and the engine's synchronous load then surfaces
/// the error through the normal path.
type Response<V> = Option<Box<(Loaded<V>, Vec<u8>)>>;

/// Handle to the background loading thread. One outstanding request at a
/// time (double buffering).
pub struct Prefetcher<P: VertexProgram> {
    tx: Option<Sender<Request>>,
    rx: Receiver<Response<P::VertexData>>,
    handle: Option<std::thread::JoinHandle<()>>,
    stats: Arc<IoStats>,
    outstanding: Option<u32>,
}

impl<P: VertexProgram> Prefetcher<P> {
    pub fn spawn(
        store: Arc<dyn GraphStore>,
        program: Arc<P>,
        vertices_path: &Path,
        stats: Arc<IoStats>,
    ) -> Result<Self> {
        let (tx, req_rx) = bounded::<Request>(1);
        let (resp_tx, rx) = bounded::<Response<P::VertexData>>(1);
        // A dedicated read handle: the engine's write handle and this one
        // only ever touch disjoint partition regions.
        let mut vfile =
            TrackedFile::open(vertices_path, Arc::clone(&stats)).ctx("open", vertices_path)?;
        let thread_stats = Arc::clone(&stats);
        let handle = std::thread::Builder::new()
            .name("graphz-prefetch".into())
            .spawn(move || {
                for req in req_rx {
                    let loaded = load::<P>(&store, &program, &mut vfile, &thread_stats, req);
                    if resp_tx.send(loaded.ok().map(Box::new)).is_err() {
                        return; // engine hung up
                    }
                }
            })
            .map_err(std::io::Error::other)?;
        Ok(Prefetcher { tx: Some(tx), rx, handle: Some(handle), stats, outstanding: None })
    }

    /// Ask for partition `[a, b)` to be loaded in the background. Callers
    /// must `take` the previous request first.
    pub fn request(&mut self, partition: u32, a: VertexId, b: VertexId, claim: ClaimedSegments) {
        assert!(self.outstanding.is_none(), "one prefetch request at a time");
        let req = Request { a, b, claim };
        // A shut-down prefetcher quietly declines: the engine then loads the
        // partition synchronously, same as a failed prefetch.
        let Some(tx) = self.tx.as_ref() else { return };
        if tx.send(req).is_ok() {
            self.outstanding = Some(partition);
        }
    }

    /// Collect the prefetched buffer for `partition`, if that is what is in
    /// flight. Counts a hit when the buffer was already waiting, a stall
    /// when the engine had to wait for it (or the load failed — the caller
    /// then loads synchronously).
    pub fn take(&mut self, partition: u32) -> Option<(Loaded<P::VertexData>, Vec<u8>)> {
        if self.outstanding != Some(partition) {
            return None;
        }
        let response = match self.rx.try_recv() {
            Ok(r) => {
                self.stats.record_prefetch_hit();
                r
            }
            Err(_) => {
                self.stats.record_prefetch_stall();
                self.rx.recv().ok()?
            }
        };
        self.outstanding = None;
        response.map(|loaded| *loaded)
    }
}

impl<P: VertexProgram> Drop for Prefetcher<P> {
    /// Drop whatever is in flight at the end of the run — the unconsumed
    /// claim loses nothing, its segments are still registered with the
    /// MsgManager — then close the queue, which ends the thread.
    fn drop(&mut self) {
        if self.outstanding.take().is_some() {
            let _ = self.rx.recv();
            self.stats.record_prefetch_wasted();
        }
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn load<P: VertexProgram>(
    store: &Arc<dyn GraphStore>,
    program: &P,
    vfile: &mut TrackedFile,
    stats: &Arc<IoStats>,
    req: Request,
) -> Result<(Loaded<P::VertexData>, Vec<u8>)> {
    let (start_edge, degrees) = store.partition_index(req.a, req.b, stats)?;
    let mut bytes = Vec::new();
    let mut slab = decode_slice(read_vertices::<P::VertexData>(vfile, &mut bytes, req.a, req.b)?);
    let replayed =
        req.claim.replay(stats, |dst, msg| replay(program, req.a, &mut slab, dst, &msg))?;
    Ok((Loaded { slab, start_edge, degrees, claim: Some((req.claim, replayed)) }, bytes))
}
