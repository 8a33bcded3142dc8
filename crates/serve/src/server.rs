//! The `graphz serve` server: a local TCP listener fanning connections out
//! to N reader threads, each owning its own [`GraphView`] (DESIGN.md §6l).
//!
//! Concurrency model: one accept thread pushes connections into a bounded
//! channel; each worker owns a private `Session` (its own adjacency cursor
//! and scratch buffers) and drains the channel. The DOS index and any
//! pinned [`Snapshot`](crate::Snapshot) are shared read-only behind `Arc`s,
//! so the per-query path takes **no lock** — the only lock in this crate is
//! inside the connection channel, crossed once per connection, not per
//! request.
//!
//! Shutdown: [`Server::shutdown`] raises a stop flag and self-connects to
//! wake the blocking `accept`; the accept thread drops the sender, workers
//! drain the channel and exit, and all threads are joined. Alternatively a
//! [`max_conns`](ServeOptionsBuilder::max_conns) bound lets scripted
//! sessions (CI, benches) end the server by exhausting it.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use graphz_io::IoStats;
use graphz_types::error::IoCtx;
use graphz_types::{GraphError, Result};

use crate::protocol::{Session, MAX_REQUEST_LINE};
use crate::view::GraphView;

/// Configuration for [`Server::start`]. Construct via
/// [`ServeOptions::builder`] (the workspace builder convention).
pub struct ServeOptions {
    dir: PathBuf,
    addr: String,
    threads: usize,
    checkpoint_dir: Option<PathBuf>,
    generation: Option<u32>,
    max_conns: Option<u64>,
    stats: Arc<IoStats>,
}

impl ServeOptions {
    pub fn builder(dir: &Path) -> ServeOptionsBuilder {
        ServeOptionsBuilder {
            dir: dir.to_path_buf(),
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            checkpoint_dir: None,
            generation: None,
            max_conns: None,
            stats: None,
        }
    }
}

/// `XBuilder` + chainable setters + fallible `build()`.
pub struct ServeOptionsBuilder {
    dir: PathBuf,
    addr: String,
    threads: usize,
    checkpoint_dir: Option<PathBuf>,
    generation: Option<u32>,
    max_conns: Option<u64>,
    stats: Option<Arc<IoStats>>,
}

impl ServeOptionsBuilder {
    /// Listen address, e.g. `127.0.0.1:4167`; port `0` asks the OS for a
    /// free port (read it back from [`Server::addr`]). Default `127.0.0.1:0`.
    pub fn addr(mut self, addr: &str) -> Self {
        self.addr = addr.to_string();
        self
    }

    /// Number of reader threads (default 4).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Checkpoint root to pin a snapshot from (enables `value`/`snapshot`
    /// queries).
    pub fn checkpoint_dir(mut self, dir: &Path) -> Self {
        self.checkpoint_dir = Some(dir.to_path_buf());
        self
    }

    /// Pin this specific generation instead of the newest usable one.
    pub fn generation(mut self, generation: u32) -> Self {
        self.generation = Some(generation);
        self
    }

    /// Stop accepting after this many connections (scripted sessions).
    pub fn max_conns(mut self, max: u64) -> Self {
        self.max_conns = Some(max);
        self
    }

    /// Share an IO-stats sink with the caller.
    pub fn stats(mut self, stats: Arc<IoStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    pub fn build(self) -> Result<ServeOptions> {
        if self.threads == 0 {
            return Err(GraphError::InvalidConfig(
                "serve needs at least one reader thread".into(),
            ));
        }
        if self.generation.is_some() && self.checkpoint_dir.is_none() {
            return Err(GraphError::InvalidConfig(
                "--generation requires a checkpoint dir to pin from".into(),
            ));
        }
        Ok(ServeOptions {
            dir: self.dir,
            addr: self.addr,
            threads: self.threads,
            checkpoint_dir: self.checkpoint_dir,
            generation: self.generation,
            max_conns: self.max_conns,
            stats: self.stats.unwrap_or_default(),
        })
    }
}

/// A running serve instance. Dropping without
/// [`shutdown`](Server::shutdown)/[`wait`](Server::wait) detaches the
/// threads; call one of them for an orderly exit.
pub struct Server {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept thread and `threads` reader threads, and
    /// return immediately. Pins the snapshot (when configured) *before*
    /// accepting anything, so every connection sees the same generation.
    pub fn start(options: ServeOptions) -> Result<Server> {
        let mut base = GraphView::open(&options.dir, Arc::clone(&options.stats))?;
        if let Some(root) = &options.checkpoint_dir {
            base.pin_snapshot(root, options.generation)?;
        }
        let listener = TcpListener::bind(options.addr.as_str())
            .map_err(GraphError::Io)?;
        let addr = listener.local_addr().map_err(GraphError::Io)?;
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let (tx, rx) = crossbeam::channel::bounded::<TcpStream>(options.threads.saturating_mul(2));

        let mut workers = Vec::with_capacity(options.threads);
        for i in 0..options.threads {
            let view = base.try_clone()?;
            let rx = rx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("graphz-serve-{i}"))
                .spawn(move || {
                    let mut session = Session::new(view);
                    for stream in rx.iter() {
                        // A vanished client is the client's problem, not the
                        // server's: drop the connection, keep the worker.
                        let _ = handle_conn(&mut session, stream);
                    }
                })
                .ctx("spawn", &options.dir)?;
            workers.push(handle);
        }
        drop(rx);

        let accept_stop = Arc::clone(&stop);
        let accept_served = Arc::clone(&served);
        let max_conns = options.max_conns;
        let accept = std::thread::Builder::new()
            .name("graphz-serve-accept".to_string())
            .spawn(move || {
                // `tx` moves in here: when this loop ends the channel closes
                // and the workers drain out.
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if tx.send(stream).is_err() {
                        break;
                    }
                    let n = accept_served.fetch_add(1, Ordering::SeqCst) + 1;
                    if max_conns.is_some_and(|max| n >= max) {
                        break;
                    }
                }
            })
            .ctx("spawn", &options.dir)?;

        Ok(Server { addr, stop, served, accept: Some(accept), workers })
    }

    /// The bound address (resolves port `0` to the real port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Block until the server exits on its own (requires `max_conns`, which
    /// ends the accept loop) and all in-flight sessions finish.
    pub fn wait(mut self) -> Result<u64> {
        self.join_all()?;
        Ok(self.served.load(Ordering::SeqCst))
    }

    /// Stop accepting, wake the listener, drain in-flight sessions, and
    /// join every thread. Returns the number of connections served.
    pub fn shutdown(mut self) -> Result<u64> {
        self.stop.store(true, Ordering::SeqCst);
        // The accept call blocks until *some* connection arrives; make one.
        let _ = TcpStream::connect(self.addr);
        self.join_all()?;
        Ok(self.served.load(Ordering::SeqCst))
    }

    fn join_all(&mut self) -> Result<()> {
        if let Some(accept) = self.accept.take() {
            accept
                .join()
                .map_err(|_| GraphError::Algorithm("serve accept thread panicked".into()))?;
        }
        for worker in self.workers.drain(..) {
            worker
                .join()
                .map_err(|_| GraphError::Algorithm("serve reader thread panicked".into()))?;
        }
        Ok(())
    }
}

/// Serve one connection: read request lines, answer each on its own line,
/// close on `quit` or EOF.
fn handle_conn(session: &mut Session, stream: TcpStream) -> std::io::Result<()> {
    // One coalesced write per response and Nagle off: a response split
    // across two small segments waits out the peer's delayed ACK (~40ms)
    // before the tail ships, capping a lockstep client near 25 req/s.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut buf = Vec::new();
    loop {
        let keep = match read_request(&mut reader, &mut buf)? {
            Line::Eof => return Ok(()),
            Line::Request(line) => session.handle(line),
            Line::TooLong => {
                writeln!(writer, "ERR bad-request request line exceeds {MAX_REQUEST_LINE} bytes")?;
                writer.flush()?;
                return Ok(());
            }
        };
        writer.write_all(session.response().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if !keep {
            return Ok(());
        }
    }
}

/// What [`read_request`] found.
#[derive(Debug, PartialEq, Eq)]
enum Line<'a> {
    Eof,
    /// One request, without its line ending.
    Request(&'a str),
    /// The line is longer than [`MAX_REQUEST_LINE`]; the rest of it is
    /// left unread.
    TooLong,
}

/// Read one request line through `buf`, reading at most a line ending's
/// worth past [`MAX_REQUEST_LINE`] bytes, so `buf` stays bounded however
/// long the client's line is. The length is judged before the bytes are
/// decoded, so an over-long line is `TooLong` even if the bound splits a
/// UTF-8 character; a short line that is not UTF-8 is an `InvalidData`
/// error, as it always was.
fn read_request<'a>(reader: &mut impl BufRead, buf: &'a mut Vec<u8>) -> std::io::Result<Line<'a>> {
    buf.clear();
    let limit = MAX_REQUEST_LINE as u64 + 2; // room for "\r\n"
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(Line::Eof);
    }
    let end = buf.iter().rposition(|&b| b != b'\r' && b != b'\n').map_or(0, |i| i + 1);
    if end > MAX_REQUEST_LINE {
        return Ok(Line::TooLong);
    }
    std::str::from_utf8(&buf[..end])
        .map(Line::Request)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::ScratchDir;
    use graphz_storage::{DosConverter, EdgeListFile};
    use graphz_types::{Edge, MemoryBudget};

    fn make_dos(dir: &ScratchDir) -> PathBuf {
        let s = IoStats::new();
        let input = EdgeListFile::create(
            &dir.file("edges.el"),
            Arc::clone(&s),
            [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)],
        )
        .unwrap();
        let conv = DosConverter::builder()
            .budget(MemoryBudget::from_mib(1))
            .stats(s)
            .build()
            .unwrap();
        conv.convert(&input, &dir.file("dos")).unwrap();
        dir.file("dos")
    }

    fn ask(stream: &mut TcpStream, line: &str) -> String {
        use std::io::{BufRead, BufReader, Write};
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp.trim_end().to_string()
    }

    #[test]
    fn builder_rejects_zero_threads_and_orphan_generation() {
        let dir = ScratchDir::new("serve-builder").unwrap();
        assert!(matches!(
            ServeOptions::builder(&dir.file("dos")).threads(0).build(),
            Err(GraphError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServeOptions::builder(&dir.file("dos")).generation(3).build(),
            Err(GraphError::InvalidConfig(_))
        ));
    }

    #[test]
    fn serves_and_shuts_down() {
        let dir = ScratchDir::new("serve-basic").unwrap();
        let dos = make_dos(&dir);
        let options = ServeOptions::builder(&dos).threads(2).build().unwrap();
        let server = Server::start(options).unwrap();
        let addr = server.addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        assert_eq!(ask(&mut conn, "ping"), "OK pong");
        assert_eq!(ask(&mut conn, "degree 0"), "OK 1");
        assert_eq!(ask(&mut conn, "degree 99"), "ERR unknown-vertex 99");
        assert_eq!(ask(&mut conn, "quit"), "OK bye");
        drop(conn);
        let served = server.shutdown().unwrap();
        assert!(served >= 1, "served {served}");
    }

    #[test]
    fn max_conns_ends_the_server() {
        let dir = ScratchDir::new("serve-maxconns").unwrap();
        let dos = make_dos(&dir);
        let options = ServeOptions::builder(&dos).threads(1).max_conns(2).build().unwrap();
        let server = Server::start(options).unwrap();
        let addr = server.addr();
        for _ in 0..2 {
            let mut conn = TcpStream::connect(addr).unwrap();
            assert_eq!(ask(&mut conn, "ping"), "OK pong");
            assert_eq!(ask(&mut conn, "quit"), "OK bye");
        }
        assert_eq!(server.wait().unwrap(), 2);
    }

    #[test]
    fn a_line_without_end_is_cut_off_at_the_bound() {
        // `repeat` never sends a newline: an unbounded read would never
        // return.
        let mut endless = BufReader::new(std::io::repeat(b'a'));
        let mut buf = Vec::new();
        assert_eq!(read_request(&mut endless, &mut buf).unwrap(), Line::TooLong);
        assert_eq!(buf.len(), MAX_REQUEST_LINE + 2);
        // The bound may split a multi-byte character: still too long.
        let wide = format!("a{}", "é".repeat(MAX_REQUEST_LINE));
        let mut r = BufReader::new(wide.as_bytes());
        assert_eq!(read_request(&mut r, &mut buf).unwrap(), Line::TooLong);
        // The longest accepted line, with either line ending, is a request.
        let longest = "a".repeat(MAX_REQUEST_LINE);
        for end in ["\n", "\r\n", ""] {
            let raw = format!("{longest}{end}");
            let mut r = BufReader::new(raw.as_bytes());
            let got = read_request(&mut r, &mut buf).unwrap();
            assert_eq!(got, Line::Request(longest.as_str()), "{end:?}");
            assert_eq!(read_request(&mut r, &mut buf).unwrap(), Line::Eof, "{end:?}");
        }
    }

    #[test]
    fn oversized_line_gets_an_error_and_others_still_answer() {
        let dir = ScratchDir::new("serve-oversized").unwrap();
        let dos = make_dos(&dir);
        let options = ServeOptions::builder(&dos).threads(2).build().unwrap();
        let server = Server::start(options).unwrap();
        let addr = server.addr();
        // Over the bound by the most the server reads, and no newline: the
        // server must answer without waiting for the end of the line, then
        // hang up (a timeout turns a server that waits into a failure).
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        hostile.write_all(&vec![b'a'; MAX_REQUEST_LINE + 2]).unwrap();
        let mut reply = String::new();
        BufReader::new(hostile.try_clone().unwrap()).read_to_string(&mut reply).unwrap();
        assert_eq!(
            reply,
            format!("ERR bad-request request line exceeds {MAX_REQUEST_LINE} bytes\n")
        );
        let mut other = TcpStream::connect(addr).unwrap();
        assert_eq!(ask(&mut other, "degree 0"), "OK 1");
        assert_eq!(ask(&mut other, "quit"), "OK bye");
        drop((hostile, other));
        server.shutdown().unwrap();
    }
}
