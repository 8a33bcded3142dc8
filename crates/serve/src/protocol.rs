//! The `graphz serve` wire protocol: line-delimited requests, one-line
//! responses (DESIGN.md §6l).
//!
//! Requests are whitespace-separated words; responses start with `OK` or
//! `ERR <kind>` where `kind` is one of `unknown-vertex`, `bad-request`,
//! `no-snapshot`, `internal`. The grammar:
//!
//! ```text
//! ping                 -> OK pong
//! stats                -> OK vertices=N edges=M unique-degrees=U index-bytes=B
//!                            max-degree=D min-degree=d generation=G|none
//! snapshot             -> OK generation=G next-iteration=I record-size=R
//! degree <v>           -> OK <deg>
//! neighbors <v>        -> OK <deg> <id>...
//! khop <v> <k>         -> OK <count> <id>...          (k <= 8)
//! value <v>            -> OK <hex> u32=<w> f32=<x>
//! resolve <orig>       -> OK <storage-id>
//! original <storage>   -> OK <original-id>
//! quit                 -> OK bye                       (connection closes)
//! ```
//!
//! All ids are *storage* ids except `resolve`'s argument. List responses
//! carry the true count first and at most [`MAX_LIST`] ids, with a literal
//! `...` marking truncation. Every error is a single `ERR` line — a
//! malformed or out-of-range request can never kill the connection, and an
//! out-of-range id is the *typed* [`GraphError::UnknownVertex`] mapped to
//! `ERR unknown-vertex <id>`, never a formatted internal error. The one
//! request that does close the connection is a line longer than
//! [`MAX_REQUEST_LINE`]: it gets `ERR bad-request`, then the server hangs up
//! rather than buffer the rest.

use std::fmt::Write as _;

use graphz_types::{codec, GraphError, VertexId};

use crate::view::GraphView;

/// Cap on `khop` depth: beyond this a query degenerates into "the whole
/// component", which the scan tier serves better.
pub const MAX_K: u32 = 8;

/// Cap on ids rendered in one list response.
pub const MAX_LIST: usize = 4096;

/// Longest request line the server reads, in bytes, line ending excluded.
/// The longest valid request (`original` or `khop` with a ten-digit id) is
/// under 32 bytes; a longer line is answered with `ERR bad-request` and the
/// connection is closed, so a client that never sends a newline cannot grow
/// a reader thread's buffer without bound.
pub const MAX_REQUEST_LINE: usize = 4096;

/// A parsed request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    Ping,
    Stats,
    Snapshot,
    Degree(VertexId),
    Neighbors(VertexId),
    Khop(VertexId, u32),
    Value(VertexId),
    Resolve(VertexId),
    Original(VertexId),
    Quit,
}

/// Parse one request line; `Err` is the `bad-request` detail.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_whitespace();
    let verb = words.next().ok_or_else(|| "empty request".to_string())?;
    let mut id_arg = |what: &str| -> Result<VertexId, String> {
        let w = words.next().ok_or_else(|| format!("{verb} needs {what}"))?;
        w.parse::<VertexId>().map_err(|_| format!("{what} `{w}` is not a vertex id"))
    };
    let req = match verb {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "snapshot" => Request::Snapshot,
        "degree" => Request::Degree(id_arg("a vertex id")?),
        "neighbors" => Request::Neighbors(id_arg("a vertex id")?),
        "khop" => {
            let v = id_arg("a vertex id")?;
            let k = id_arg("a hop count")?;
            if k == 0 || k > MAX_K {
                return Err(format!("hop count must be 1..={MAX_K}, got {k}"));
            }
            Request::Khop(v, k)
        }
        "value" => Request::Value(id_arg("a vertex id")?),
        "resolve" => Request::Resolve(id_arg("an original vertex id")?),
        "original" => Request::Original(id_arg("a storage vertex id")?),
        "quit" => Request::Quit,
        other => return Err(format!("unknown request `{other}`")),
    };
    if let Some(extra) = words.next() {
        return Err(format!("trailing argument `{extra}` after {verb}"));
    }
    Ok(req)
}

/// One protocol session: a view plus reusable response/scratch buffers.
/// Each server worker (and each test replay) owns one.
pub struct Session {
    view: GraphView,
    scratch: Vec<VertexId>,
    resp: String,
}

impl Session {
    pub fn new(view: GraphView) -> Session {
        Session { view, scratch: Vec::new(), resp: String::new() }
    }

    pub fn view(&self) -> &GraphView {
        &self.view
    }

    /// Handle one request line. The response is then available via
    /// [`response`](Session::response); returns `false` when the session
    /// should close (a `quit`).
    pub fn handle(&mut self, line: &str) -> bool {
        self.resp.clear();
        let req = match parse_request(line) {
            Ok(r) => r,
            Err(detail) => {
                let _ = write!(self.resp, "ERR bad-request {detail}");
                return true;
            }
        };
        if matches!(req, Request::Quit) {
            self.resp.push_str("OK bye");
            return false;
        }
        if let Err(e) = self.answer(req) {
            self.resp.clear();
            match e {
                GraphError::UnknownVertex(v) => {
                    let _ = write!(self.resp, "ERR unknown-vertex {v}");
                }
                other => {
                    let _ = write!(self.resp, "ERR internal {other}");
                }
            }
        }
        true
    }

    /// The response line for the last handled request (no trailing newline).
    pub fn response(&self) -> &str {
        &self.resp
    }

    fn answer(&mut self, req: Request) -> graphz_types::Result<()> {
        match req {
            Request::Quit => {}
            Request::Ping => self.resp.push_str("OK pong"),
            Request::Stats => {
                let st = self.view.stats();
                let _ = write!(
                    self.resp,
                    "OK vertices={} edges={} unique-degrees={} index-bytes={} \
                     max-degree={} min-degree={}",
                    st.num_vertices,
                    st.num_edges,
                    st.unique_degrees,
                    st.index_bytes,
                    st.max_degree,
                    st.min_degree
                );
                match st.snapshot_generation {
                    Some(g) => {
                        let _ = write!(self.resp, " generation={g}");
                    }
                    None => self.resp.push_str(" generation=none"),
                }
            }
            Request::Snapshot => match self.view.snapshot() {
                Some(s) => {
                    let _ = write!(
                        self.resp,
                        "OK generation={} next-iteration={} record-size={}",
                        s.generation(),
                        s.next_iteration(),
                        s.record_size()
                    );
                }
                None => self.resp.push_str("ERR no-snapshot serving topology only"),
            },
            Request::Degree(v) => {
                let d = self.view.degree(v)?;
                let _ = write!(self.resp, "OK {d}");
            }
            Request::Neighbors(v) => {
                let d = self.view.neighbors_into(v, &mut self.scratch)?;
                self.resp.push_str("OK ");
                let _ = write!(self.resp, "{d}");
                render_list(&mut self.resp, &self.scratch);
            }
            Request::Khop(v, k) => {
                let n = self.view.khop_into(v, k, &mut self.scratch)?;
                self.resp.push_str("OK ");
                let _ = write!(self.resp, "{n}");
                render_list(&mut self.resp, &self.scratch);
            }
            Request::Value(v) => {
                if self.view.snapshot().is_none() {
                    self.resp.push_str("ERR no-snapshot serving topology only");
                    return Ok(());
                }
                let bytes = self.view.value_bytes(v)?;
                self.resp.push_str("OK ");
                for b in bytes {
                    let _ = write!(self.resp, "{b:02x}");
                }
                if bytes.len() >= 4 {
                    let word = codec::read_u32_le(bytes);
                    let _ = write!(self.resp, " u32={word} f32={}", f32::from_bits(word));
                }
            }
            Request::Resolve(orig) => {
                let v = self.view.resolve(orig)?;
                let _ = write!(self.resp, "OK {v}");
            }
            Request::Original(storage) => {
                let v = self.view.original_of(storage)?;
                let _ = write!(self.resp, "OK {v}");
            }
        }
        Ok(())
    }
}

fn render_list(resp: &mut String, ids: &[VertexId]) {
    for &id in ids.iter().take(MAX_LIST) {
        let _ = write!(resp, " {id}");
    }
    if ids.len() > MAX_LIST {
        resp.push_str(" ...");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use graphz_io::{IoStats, ScratchDir};
    use graphz_storage::{DosConverter, EdgeListFile};
    use graphz_types::{Edge, MemoryBudget};

    fn session(dir: &ScratchDir) -> Session {
        let s = IoStats::new();
        let input = EdgeListFile::create(
            &dir.file("edges.el"),
            Arc::clone(&s),
            [Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 2), Edge::new(2, 0)],
        )
        .unwrap();
        let conv = DosConverter::builder()
            .budget(MemoryBudget::from_mib(1))
            .stats(Arc::clone(&s))
            .build()
            .unwrap();
        conv.convert(&input, &dir.file("dos")).unwrap();
        Session::new(GraphView::open(&dir.file("dos"), s).unwrap())
    }

    fn ask(session: &mut Session, line: &str) -> String {
        assert!(session.handle(line), "{line} should keep the session open");
        session.response().to_string()
    }

    #[test]
    fn parses_the_full_grammar() {
        assert_eq!(parse_request("ping").unwrap(), Request::Ping);
        assert_eq!(parse_request("  degree  7 ").unwrap(), Request::Degree(7));
        assert_eq!(parse_request("khop 3 2").unwrap(), Request::Khop(3, 2));
        assert_eq!(parse_request("quit").unwrap(), Request::Quit);
        assert!(parse_request("").is_err());
        assert!(parse_request("degree").is_err());
        assert!(parse_request("degree x").is_err());
        assert!(parse_request("khop 1 0").is_err());
        assert!(parse_request("khop 1 999").is_err());
        assert!(parse_request("ping extra").is_err());
        assert!(parse_request("frobnicate 1").is_err());
    }

    #[test]
    fn answers_point_queries() {
        let dir = ScratchDir::new("proto-point").unwrap();
        let mut s = session(&dir);
        assert_eq!(ask(&mut s, "ping"), "OK pong");
        let stats = ask(&mut s, "stats");
        assert!(stats.starts_with("OK vertices=3 edges=4"), "{stats}");
        assert!(stats.ends_with("generation=none"), "{stats}");
        // Vertex 0 and 2 both have out-degree 2 originally; storage id 0 is
        // one of them after the degree sort.
        assert_eq!(ask(&mut s, "degree 0"), "OK 2");
        let neighbors = ask(&mut s, "neighbors 0");
        assert!(neighbors.starts_with("OK 2 "), "{neighbors}");
    }

    /// The satellite fix: an out-of-range id in any point query is the
    /// typed `unknown-vertex` response, not an internal error dump.
    #[test]
    fn out_of_range_id_is_typed_unknown_vertex() {
        let dir = ScratchDir::new("proto-unknown").unwrap();
        let mut s = session(&dir);
        for q in ["degree 99", "neighbors 99", "khop 99 2", "resolve 99", "original 99"] {
            assert_eq!(ask(&mut s, q), "ERR unknown-vertex 99", "query {q}");
        }
    }

    #[test]
    fn malformed_lines_are_bad_request_and_keep_the_session() {
        let dir = ScratchDir::new("proto-bad").unwrap();
        let mut s = session(&dir);
        assert!(ask(&mut s, "degree banana").starts_with("ERR bad-request"));
        assert!(ask(&mut s, "").starts_with("ERR bad-request"));
        // Still serving afterwards.
        assert_eq!(ask(&mut s, "ping"), "OK pong");
    }

    #[test]
    fn value_without_snapshot_is_no_snapshot() {
        let dir = ScratchDir::new("proto-nosnap").unwrap();
        let mut s = session(&dir);
        assert!(ask(&mut s, "value 0").starts_with("ERR no-snapshot"));
        assert!(ask(&mut s, "snapshot").starts_with("ERR no-snapshot"));
    }

    #[test]
    fn quit_closes_the_session() {
        let dir = ScratchDir::new("proto-quit").unwrap();
        let mut s = session(&dir);
        assert!(!s.handle("quit"));
        assert_eq!(s.response(), "OK bye");
    }

    #[test]
    fn resolve_and_original_round_trip() {
        let dir = ScratchDir::new("proto-resolve").unwrap();
        let mut s = session(&dir);
        for orig in 0..3u32 {
            let resp = ask(&mut s, &format!("resolve {orig}"));
            let storage: u32 = resp.strip_prefix("OK ").unwrap().parse().unwrap();
            assert_eq!(ask(&mut s, &format!("original {storage}")), format!("OK {orig}"));
        }
    }
}
