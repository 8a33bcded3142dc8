//! Implementation of the `graphz` command-line tool.
//!
//! The grammar is *declarative*: every subcommand is one [`CommandSpec`] row
//! in [`COMMANDS`] — name, aliases, positionals, flags (spelling, value
//! placeholder, help text). [`parse`] walks the table, so unknown flags are
//! rejected with the subcommand's own flag list, `graphz <cmd> --help` (and
//! `graphz help <cmd>`) render per-subcommand help, and the top-level usage
//! text is generated from the same rows it validates against.
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy keeps
//! clap out of the runtime tree).

#![forbid(unsafe_code)]

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphz_algos::runner;
use graphz_algos::{AlgoParams, Algorithm, ResultStream, ValueStream};
use graphz_io::IoStats;
use graphz_serve::GraphView;
use graphz_storage::{DosGraph, EdgeListFile, IngestPipeline};
use graphz_types::{cast, EngineOptions, GraphError, IoCtx, MemoryBudget, Result, VertexId};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Generate { out: PathBuf, scale: u32, edges: u64, seed: u64 },
    Import { text: PathBuf, out: PathBuf },
    Convert {
        edges: PathBuf,
        dos_dir: PathBuf,
        budget_mib: u64,
        weighted: bool,
        /// Always `1`: `convert` takes no `--ingest-threads` flag. A
        /// compatibility name for the benchmark's convert adapter
        /// (`benchmark/src/layers.rs`), which still destructures it; goes
        /// away with that adapter.
        ingest_threads: usize,
        max_bad_records: Option<u64>,
        resume: bool,
    },
    Info { path: PathBuf },
    Verify { dos_dir: PathBuf },
    Stats { path: PathBuf },
    Islands { dos_dir: PathBuf, emit: bool },
    Export { dos_dir: PathBuf, format: String, out: Option<PathBuf>, original: bool },
    Serve {
        dos_dir: PathBuf,
        addr: String,
        threads: usize,
        checkpoint_dir: Option<PathBuf>,
        generation: Option<u32>,
        max_conns: Option<u64>,
        port_file: Option<PathBuf>,
    },
    Run {
        algo: Algorithm,
        dos_dir: PathBuf,
        budget_mib: u64,
        source: u32,
        iterations: u32,
        top: usize,
        checkpoint_dir: Option<PathBuf>,
        checkpoint_every: u32,
        resume: bool,
        /// Always `1`: `run` takes no `--threads` flag. A compatibility name
        /// for the benchmark's engine adapter (`benchmark/src/layers.rs`),
        /// which still destructures it; goes away with that adapter.
        threads: usize,
        /// Always `false`: `run` takes no `--no-prefetch` flag and the engine
        /// has no partition prefetcher. A compatibility name for the
        /// benchmark's engine adapter (`benchmark/src/layers.rs`), which
        /// still destructures it; goes away with that adapter.
        #[doc(hidden)]
        prefetch: bool,
        verbose: bool,
    },
    Help,
    /// Per-subcommand help (`graphz <cmd> --help`, `graphz help <cmd>`).
    HelpFor(String),
}

/// One flag a subcommand accepts: its spelling, the placeholder for its
/// value (`None` = boolean switch), and one help line.
pub struct FlagSpec {
    pub name: &'static str,
    pub value: Option<&'static str>,
    pub help: &'static str,
}

/// One subcommand: everything [`parse`] validates against and everything
/// the help text is rendered from.
pub struct CommandSpec {
    pub name: &'static str,
    pub aliases: &'static [&'static str],
    pub positionals: &'static [&'static str],
    pub flags: &'static [FlagSpec],
    pub summary: &'static str,
    /// Extra paragraphs for the per-subcommand help page.
    pub details: &'static str,
}

/// The whole grammar, one row per subcommand.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "generate",
        aliases: &[],
        positionals: &["<out.bin>"],
        flags: &[
            FlagSpec { name: "--scale", value: Some("N"), help: "log2 of the vertex count (default 14)" },
            FlagSpec { name: "--edges", value: Some("M"), help: "number of edges (default 100000)" },
            FlagSpec { name: "--seed", value: Some("S"), help: "R-MAT seed (default 42)" },
        ],
        summary: "emit a deterministic R-MAT edge list",
        details: "",
    },
    CommandSpec {
        name: "import",
        aliases: &[],
        positionals: &["<edges.txt | matrix.mtx>", "<out.bin>"],
        flags: &[],
        summary: "convert SNAP-style text or Matrix Market to a binary edge list",
        details: "",
    },
    CommandSpec {
        name: "convert",
        aliases: &[],
        positionals: &["<edges.bin | edges.txt | matrix.mtx>", "<dos-dir>"],
        flags: &[
            FlagSpec {
                name: "--budget-mib",
                value: Some("B"),
                help: "memory budget in MiB for the sorts and the id map (default 8)",
            },
            FlagSpec { name: "--weighted", value: None, help: "also emit weights.bin (deterministic per-edge weights)" },
            FlagSpec {
                name: "--max-bad-records",
                value: Some("N"),
                help: "tolerate up to N malformed text lines, quarantining \
                       them to quarantine.txt (default: any bad line aborts)",
            },
            FlagSpec {
                name: "--resume",
                value: None,
                help: "reuse completed stages from a previous interrupted \
                       run's scratch directory",
            },
        ],
        summary: "build degree-ordered storage (detects text, .mtx or binary input)",
        details: "Stages: runs (text or .mtx parsed straight into sorted runs on disk;\n\
                  a binary edge list is read in place), old2new (degrees counted,\n\
                  vertices numbered from the degree histogram), new2old, adjacency\n\
                  (edges.bin, weights.bin: each vertex's list written at the offset\n\
                  the index gives it), emit (index.tbl, meta.txt, checksums.txt).\n\
                  Memory: the id map (4 bytes per vertex) stays in memory when it\n\
                  fits half of --budget-mib; the other half holds the adjacency\n\
                  stage's write buffers and the list being sorted, and no sort of\n\
                  the whole edge set follows the runs. A larger id space is\n\
                  streamed from old2new.bin through two more sorts. The output is\n\
                  the same.\n\
                  Fault tolerance: each stage commits a checksummed manifest\n\
                  into a <dos-dir>.scratch directory; --resume skips stages whose\n\
                  manifests verify and restarts at the first incomplete one, producing\n\
                  a byte-identical directory. --max-bad-records N diverts up to N\n\
                  malformed text lines into <dos-dir>/quarantine.txt instead of\n\
                  aborting the conversion.",
    },
    CommandSpec {
        name: "info",
        aliases: &[],
        positionals: &["<dos-dir | edges.bin>"],
        flags: &[],
        summary: "print metadata and index sizes",
        details: "",
    },
    CommandSpec {
        name: "verify",
        aliases: &[],
        positionals: &["<dos-dir>"],
        flags: &[],
        summary: "check structural invariants and data-file checksums",
        details: "",
    },
    CommandSpec {
        name: "stats",
        aliases: &[],
        positionals: &["<edges.bin | dos-dir>"],
        flags: &[],
        summary: "degree distribution and unique-degree analysis (paper \u{a7}III-D)",
        details: "Accepts either a raw edge list (full degree histogram from one\n\
                  sequential scan) or a converted DOS directory, where the same\n\
                  numbers come straight from the in-memory degree-group index via\n\
                  the GraphView read API — no edge scan at all.",
    },
    CommandSpec {
        name: "islands",
        aliases: &[],
        positionals: &["<dos-dir>"],
        flags: &[FlagSpec {
            name: "--emit",
            value: None,
            help: "also print one `storage-id component-label` line per vertex",
        }],
        summary: "weakly-connected components from one sequential edge scan",
        details: "Components are labeled by their smallest storage id, so output is\n\
                  stable across runs. Uses the GraphView scan tier (union-find over\n\
                  edges.bin in storage order).",
    },
    CommandSpec {
        name: "export",
        aliases: &[],
        positionals: &["<dos-dir>"],
        flags: &[
            FlagSpec { name: "--format", value: Some("F"), help: "output format; only `dot` today (default dot)" },
            FlagSpec { name: "--out", value: Some("FILE"), help: "write to FILE instead of stdout" },
            FlagSpec {
                name: "--original",
                value: None,
                help: "emit original vertex ids (loads the new2old map) instead of storage ids",
            },
        ],
        summary: "stream the graph as Graphviz DOT",
        details: "",
    },
    CommandSpec {
        name: "serve",
        aliases: &[],
        positionals: &["<dos-dir>"],
        flags: &[
            FlagSpec { name: "--addr", value: Some("A"), help: "listen address (default 127.0.0.1:0 = OS-assigned port)" },
            FlagSpec { name: "--threads", value: Some("N"), help: "reader threads, each with its own GraphView (default 4)" },
            FlagSpec { name: "--checkpoint-dir", value: Some("D"), help: "pin a checkpoint snapshot from D (enables value queries)" },
            FlagSpec { name: "--generation", value: Some("G"), help: "pin generation G instead of the newest usable one (a run keeps its newest two)" },
            FlagSpec { name: "--max-conns", value: Some("N"), help: "exit after serving N connections (scripted sessions)" },
            FlagSpec { name: "--port-file", value: Some("FILE"), help: "write the bound address to FILE once listening" },
        ],
        summary: "serve point queries over a live DOS image (line protocol over TCP)",
        details: "Requests are single lines: ping, stats, snapshot, degree <v>,\n\
                  neighbors <v>, khop <v> <k>, value <v>, resolve <orig>,\n\
                  original <storage>, quit. Responses are one `OK ...` or\n\
                  `ERR <kind> ...` line each. All ids are storage ids except\n\
                  resolve's argument; `value` returns the pinned checkpoint's raw\n\
                  record in hex plus u32/f32 readings of its first word.\n\
                  \n\
                  Isolation: the snapshot is pinned (manifest + CRC verified, loaded\n\
                  into memory) before the listener accepts anything, so every\n\
                  connection sees one generation; a concurrent `run --checkpoint-dir`\n\
                  writer is never observed mid-write (DESIGN.md \u{a7}6l).",
    },
    CommandSpec {
        name: "run",
        aliases: &[],
        positionals: &["<pr|bfs|cc|sssp|bp|rw>", "<dos-dir>"],
        flags: &[
            FlagSpec { name: "--budget-mib", value: Some("B"), help: "partition memory budget in MiB (default 8)" },
            FlagSpec { name: "--source", value: Some("V"), help: "source vertex for bfs/sssp (default 0)" },
            FlagSpec { name: "--iterations", value: Some("N"), help: "iteration cap (default 100)" },
            FlagSpec { name: "--top", value: Some("K"), help: "result rows to print (default 10)" },
            FlagSpec { name: "--checkpoint-dir", value: Some("D"), help: "write crash-safe generations under D" },
            FlagSpec { name: "--checkpoint-every", value: Some("N"), help: "iterations per generation (default 1)" },
            FlagSpec { name: "--resume", value: None, help: "continue from the newest valid generation" },
            FlagSpec { name: "--verbose", value: None, help: "print the plan, per-stage wall times and message counters" },
        ],
        summary: "run an algorithm out-of-core and print the top-K vertices",
        details: "Checkpointing: with --checkpoint-dir, a crash-safe generation is written\n\
                  under D after every N completed iterations (default 1). The newest two\n\
                  generations are kept; each commit removes the older ones. A generation's\n\
                  files are framed on the run's thread; its fsyncs, rename and retention\n\
                  run on a commit thread while the next iteration computes, and it becomes\n\
                  visible only once they finish. The run waits for the last commit before\n\
                  it reports. --resume continues from the newest valid generation, skipping\n\
                  one damaged by a crash.\n\
                  \n\
                  Schedule: one Worker updates vertices in ascending order, the paper's\n\
                  sequential schedule, while a read-ahead thread streams adjacency.\n\
                  Partitions load one after another on the run's thread. A graph that\n\
                  fits one partition keeps its vertex array in memory for the whole run,\n\
                  and its adjacency, when both fit the budget. --verbose prints the\n\
                  resolved plan, per-stage wall times and messages buffered / spilled /\n\
                  replayed / held in memory at most; with --checkpoint-dir also the\n\
                  generations committed and the time spent sealing them, waiting on a\n\
                  commit, and committing.\n\
                  \n\
                  Memory: half of --budget-mib holds a partition's vertex array and a\n\
                  quarter holds messages bound for other partitions; the message that\n\
                  takes them past that quarter spills them all to disk, and a partition's\n\
                  messages are applied to its vertices as they are read back, never\n\
                  collected. Outside the budget: the adjacency read-ahead blocks. Vertex\n\
                  state goes to disk only when memory cannot hold it: a vertex array that\n\
                  fits one partition stays in memory from the start to the listing and is\n\
                  never written, and no run writes initial values (a partition's first\n\
                  flush does). The listing is made in one pass over the final values,\n\
                  each with its original id; --top K holds K rows, not one per vertex. cc\n\
                  also counts component sizes in a table of 8 bytes per vertex.",
    },
];

fn find_command(name: &str) -> Option<&'static CommandSpec> {
    COMMANDS.iter().find(|c| c.name == name || c.aliases.contains(&name))
}

/// The subcommand names from [`COMMANDS`], comma-separated — shared by every
/// "no such command" error so the list can never drift from the table.
pub fn command_names() -> String {
    COMMANDS.iter().map(|c| c.name).collect::<Vec<_>>().join(", ")
}

/// The top-level usage page, rendered from [`COMMANDS`].
pub fn usage() -> String {
    let mut out = String::from("graphz — out-of-core graph analytics (GraphZ, ICDE'18)\n\nUSAGE:\n");
    for c in COMMANDS {
        let mut line = format!("  graphz {:<9}", c.name);
        for p in c.positionals {
            line.push_str(&format!(" {p}"));
        }
        if !c.flags.is_empty() {
            line.push_str(" [flags]");
        }
        out.push_str(&format!("{line}\n{:21}{}\n", "", c.summary));
    }
    out.push_str("  graphz help [command]\n\n");
    out.push_str("Run `graphz <command> --help` for that command's flags.\n");
    out
}

/// The per-subcommand help page (`graphz <cmd> --help`).
pub fn usage_for(name: &str) -> String {
    let Some(c) = find_command(name) else {
        return usage();
    };
    let mut out = format!("graphz {} — {}\n\nUSAGE:\n  graphz {}", c.name, c.summary, c.name);
    for p in c.positionals {
        out.push_str(&format!(" {p}"));
    }
    if !c.flags.is_empty() {
        out.push_str(" [flags]\n\nFLAGS:\n");
        for f in c.flags {
            let spelled = match f.value {
                Some(v) => format!("{} {v}", f.name),
                None => f.name.to_string(),
            };
            out.push_str(&format!("  {spelled:<22} {}\n", f.help));
        }
    } else {
        out.push('\n');
    }
    if !c.details.is_empty() {
        out.push_str(&format!("\n{}\n", c.details));
    }
    out
}

/// Arguments validated against one [`CommandSpec`]: positionals in order,
/// flag values, switches.
struct ParsedArgs<'a> {
    spec: &'static CommandSpec,
    positionals: Vec<&'a str>,
    values: Vec<(&'static str, &'a str)>,
    switches: Vec<&'static str>,
}

impl<'a> ParsedArgs<'a> {
    /// Walk the tokens left to right, classifying each against the spec.
    /// Unknown flags and surplus positionals are errors naming the command.
    fn collect(spec: &'static CommandSpec, args: &'a [String]) -> Result<Self> {
        let mut parsed = ParsedArgs { spec, positionals: Vec::new(), values: Vec::new(), switches: Vec::new() };
        let mut it = args.iter();
        while let Some(tok) = it.next() {
            if let Some(flag) = spec.flags.iter().find(|f| f.name == tok.as_str()) {
                if flag.value.is_some() {
                    let raw = it.next().ok_or_else(|| {
                        GraphError::InvalidConfig(format!(
                            "flag {} expects a value ({})",
                            flag.name,
                            flag.value.unwrap_or("?")
                        ))
                    })?;
                    parsed.values.push((flag.name, raw.as_str()));
                } else {
                    parsed.switches.push(flag.name);
                }
            } else if tok.starts_with("--") {
                return Err(GraphError::InvalidConfig(format!(
                    "unknown flag `{tok}` for `graphz {}` — see `graphz {} --help`",
                    spec.name, spec.name
                )));
            } else if parsed.positionals.len() < spec.positionals.len() {
                parsed.positionals.push(tok.as_str());
            } else {
                return Err(GraphError::InvalidConfig(format!(
                    "unexpected argument `{tok}` for `graphz {}`",
                    spec.name
                )));
            }
        }
        Ok(parsed)
    }

    fn pos(&self, idx: usize) -> Result<PathBuf> {
        self.positionals.get(idx).map(PathBuf::from).ok_or_else(|| {
            GraphError::InvalidConfig(format!(
                "missing argument: {}",
                self.spec.positionals.get(idx).unwrap_or(&"<arg>")
            ))
        })
    }

    fn value(&self, flag: &str) -> Option<&str> {
        // Last spelling wins, like every getopt descendant.
        self.values.iter().rev().find(|(n, _)| *n == flag).map(|(_, v)| *v)
    }

    fn parse_value<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T> {
        match self.value(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| GraphError::InvalidConfig(format!("bad value for {flag}: `{raw}`"))),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

/// Parse a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(match args.get(1).and_then(|n| find_command(n)) {
            Some(spec) => Command::HelpFor(spec.name.to_string()),
            None => Command::Help,
        });
    }
    let spec = find_command(cmd).ok_or_else(|| {
        GraphError::InvalidConfig(format!(
            "unknown command `{cmd}` — available: {} (see `graphz help`)",
            command_names()
        ))
    })?;
    let rest = &args[1..];
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::HelpFor(spec.name.to_string()));
    }
    let p = ParsedArgs::collect(spec, rest)?;
    match spec.name {
        "generate" => Ok(Command::Generate {
            out: p.pos(0)?,
            scale: p.parse_value("--scale", 14)?,
            edges: p.parse_value("--edges", 100_000)?,
            seed: p.parse_value("--seed", 42)?,
        }),
        "import" => Ok(Command::Import {
            text: p.pos(0)?,
            out: p.pos(1)?,
        }),
        "convert" => Ok(Command::Convert {
            edges: p.pos(0)?,
            dos_dir: p.pos(1)?,
            budget_mib: p.parse_value("--budget-mib", 8)?,
            weighted: p.switch("--weighted"),
            ingest_threads: 1,
            max_bad_records: p
                .value("--max-bad-records")
                .map(|raw| {
                    raw.parse().map_err(|_| {
                        GraphError::InvalidConfig(format!(
                            "bad value for --max-bad-records: `{raw}`"
                        ))
                    })
                })
                .transpose()?,
            resume: p.switch("--resume"),
        }),
        "info" => Ok(Command::Info { path: p.pos(0)? }),
        "verify" => Ok(Command::Verify { dos_dir: p.pos(0)? }),
        "stats" => Ok(Command::Stats { path: p.pos(0)? }),
        "islands" => Ok(Command::Islands { dos_dir: p.pos(0)?, emit: p.switch("--emit") }),
        "export" => {
            let format = p.value("--format").unwrap_or("dot").to_string();
            if format != "dot" {
                return Err(GraphError::InvalidConfig(format!(
                    "unknown export format `{format}` — only `dot` is supported"
                )));
            }
            Ok(Command::Export {
                dos_dir: p.pos(0)?,
                format,
                out: p.value("--out").map(PathBuf::from),
                original: p.switch("--original"),
            })
        }
        "serve" => Ok(Command::Serve {
            dos_dir: p.pos(0)?,
            addr: p.value("--addr").unwrap_or("127.0.0.1:0").to_string(),
            threads: p.parse_value("--threads", 4usize)?.max(1),
            checkpoint_dir: p.value("--checkpoint-dir").map(PathBuf::from),
            generation: p
                .value("--generation")
                .map(|raw| {
                    raw.parse().map_err(|_| {
                        GraphError::InvalidConfig(format!("bad value for --generation: `{raw}`"))
                    })
                })
                .transpose()?,
            max_conns: p
                .value("--max-conns")
                .map(|raw| {
                    raw.parse().map_err(|_| {
                        GraphError::InvalidConfig(format!("bad value for --max-conns: `{raw}`"))
                    })
                })
                .transpose()?,
            port_file: p.value("--port-file").map(PathBuf::from),
        }),
        "run" => {
            let algo_raw = p.pos(0)?;
            let algo = match algo_raw.to_string_lossy().to_lowercase().as_str() {
                "pr" | "pagerank" => Algorithm::PageRank,
                "bfs" => Algorithm::Bfs,
                "cc" => Algorithm::Cc,
                "sssp" => Algorithm::Sssp,
                "bp" => Algorithm::Bp,
                "rw" | "randomwalk" => Algorithm::RandomWalk,
                other => {
                    return Err(GraphError::InvalidConfig(format!("unknown algorithm `{other}`")))
                }
            };
            if p.value("--source").is_some() && !matches!(algo, Algorithm::Bfs | Algorithm::Sssp) {
                return Err(GraphError::InvalidConfig(format!(
                    "--source applies to bfs and sssp only; {} has no source",
                    algo.name()
                )));
            }
            Ok(Command::Run {
                algo,
                dos_dir: p.pos(1)?,
                budget_mib: p.parse_value("--budget-mib", 8)?,
                source: p.parse_value("--source", 0)?,
                iterations: p.parse_value("--iterations", 100)?,
                top: p.parse_value("--top", 10)?,
                checkpoint_dir: p.value("--checkpoint-dir").map(PathBuf::from),
                checkpoint_every: p.parse_value("--checkpoint-every", 1)?,
                resume: p.switch("--resume"),
                threads: 1,
                prefetch: false,
                verbose: p.switch("--verbose"),
            })
        }
        // `COMMANDS` and this match are maintained together; a row without
        // an arm is a bug caught by the exhaustive-table test.
        other => Err(GraphError::InvalidConfig(format!(
            "unimplemented command `{other}` — available: {}",
            command_names()
        ))),
    }
}

/// Execute a parsed command; returns the text to print.
pub fn execute(cmd: Command) -> Result<String> {
    let stats = IoStats::new();
    match cmd {
        Command::Help => Ok(usage()),
        Command::HelpFor(name) => Ok(usage_for(&name)),
        Command::Generate { out, scale, edges, seed } => {
            let el = EdgeListFile::create(
                &out,
                Arc::clone(&stats),
                graphz_gen::rmat_edges(scale, edges, Default::default(), seed),
            )?;
            let m = el.meta();
            Ok(format!(
                "wrote {}: {} vertices, {} edges, {} unique degrees\n",
                out.display(),
                m.num_vertices,
                m.num_edges,
                m.unique_degrees
            ))
        }
        Command::Import { text, out } => {
            // `.mtx` files go through the Matrix Market reader; anything
            // else is SNAP-style `src dst` text.
            let el = if text.extension().is_some_and(|e| e == "mtx") {
                EdgeListFile::import_matrix_market(&text, &out, Arc::clone(&stats))?
            } else {
                EdgeListFile::import_text(&text, &out, Arc::clone(&stats))?
            };
            Ok(format!(
                "imported {} edges over {} vertices into {}\n",
                el.meta().num_edges,
                el.meta().num_vertices,
                out.display()
            ))
        }
        Command::Convert {
            edges,
            dos_dir,
            budget_mib,
            weighted,
            max_bad_records,
            resume,
            ..
        } => {
            let mut pipeline = IngestPipeline::builder()
                .budget(MemoryBudget::from_mib(budget_mib))
                .stats(Arc::clone(&stats))
                .resume(resume);
            if weighted {
                // Deterministic weights derived from original endpoint ids.
                pipeline = pipeline.weights(graphz_types::derive_weight);
            }
            if let Some(n) = max_bad_records {
                pipeline = pipeline.max_bad_records(n);
            }
            let dos = pipeline.build()?.run(&edges, &dos_dir)?;
            let quarantine = dos_dir.join("quarantine.txt");
            let quarantined = if quarantine.is_file() {
                format!("quarantined malformed lines listed in {}\n", quarantine.display())
            } else {
                String::new()
            };
            Ok(format!(
                "converted to degree-ordered storage at {}\n\
                 index: {} bytes for {} unique degrees (dense CSR would need {} bytes)\n\
                 {quarantined}",
                dos_dir.display(),
                dos.index().index_bytes(),
                dos.index().unique_degrees(),
                (dos.meta().num_vertices + 1) * 8
            ))
        }
        Command::Info { path } => {
            if path.is_dir() {
                // Read through GraphView, like every other interactive
                // consumer of a converted image.
                let view = GraphView::open(&path, Arc::clone(&stats))?;
                let m = view.graph().meta();
                Ok(format!(
                    "degree-ordered storage at {}\n\
                     vertices: {}\nedges: {}\nunique degrees: {}\nmax degree: {}\n\
                     index bytes: {}\n",
                    path.display(),
                    m.num_vertices,
                    m.num_edges,
                    m.unique_degrees,
                    m.max_degree,
                    view.stats().index_bytes
                ))
            } else {
                let el = EdgeListFile::open(&path)?;
                let m = el.meta();
                Ok(format!(
                    "edge list at {}\nvertices: {}\nedges: {}\nunique degrees: {}\nmax degree: {}\n",
                    path.display(),
                    m.num_vertices,
                    m.num_edges,
                    m.unique_degrees,
                    m.max_degree
                ))
            }
        }
        Command::Verify { dos_dir } => {
            let report = graphz_storage::verify_dos(&dos_dir, Arc::clone(&stats))?;
            if report.is_clean() {
                let checksums = if report.files_checksummed > 0 {
                    format!("{} data files checksum-verified", report.files_checksummed)
                } else {
                    "no checksums.txt sidecar; structural checks only".to_string()
                };
                Ok(format!("{}: OK ({checksums})\n", dos_dir.display()))
            } else {
                let mut out = format!(
                    "{}: {} violation(s)\n",
                    dos_dir.display(),
                    report.violations.len()
                );
                for v in &report.violations {
                    out.push_str(&format!("  {v}\n"));
                }
                Err(GraphError::Corrupt(out))
            }
        }
        Command::Stats { path } => {
            if path.is_dir() {
                // A converted image: everything comes from the degree-group
                // index through the unified GraphView read API.
                let view = GraphView::open(&path, Arc::clone(&stats))?;
                Ok(dos_stats(&view, &path))
            } else {
                let el = EdgeListFile::open(&path)?;
                Ok(degree_stats(&el, &stats)?)
            }
        }
        Command::Islands { dos_dir, emit } => {
            let view = GraphView::open(&dos_dir, Arc::clone(&stats))?;
            let islands = view.islands()?;
            let mut out = format!(
                "{}: {} component(s), largest {} vertices, {} isolated\n",
                dos_dir.display(),
                islands.components(),
                islands.largest(),
                islands.isolated()
            );
            if emit {
                for (v, label) in islands.labels().iter().enumerate() {
                    out.push_str(&format!("{v} {label}\n"));
                }
            }
            Ok(out)
        }
        Command::Export { dos_dir, format: _, out, original } => {
            let view = GraphView::open(&dos_dir, Arc::clone(&stats))?;
            let mut buf = Vec::new();
            let edges = view.export_dot(&mut buf, original)?;
            let rendered = String::from_utf8(buf)
                .map_err(|_| GraphError::Corrupt("export produced non-UTF-8 output".into()))?;
            match out {
                Some(file) => {
                    std::fs::write(&file, rendered).ctx("write", &file)?;
                    Ok(format!("wrote {} edges as dot to {}\n", edges, file.display()))
                }
                None => Ok(rendered),
            }
        }
        Command::Serve { dos_dir, addr, threads, checkpoint_dir, generation, max_conns, port_file } => {
            let mut builder = graphz_serve::ServeOptions::builder(&dos_dir)
                .addr(&addr)
                .threads(threads)
                .stats(Arc::clone(&stats));
            if let Some(dir) = &checkpoint_dir {
                builder = builder.checkpoint_dir(dir);
            }
            if let Some(g) = generation {
                builder = builder.generation(g);
            }
            if let Some(n) = max_conns {
                builder = builder.max_conns(n);
            }
            let server = graphz_serve::Server::start(builder.build()?)?;
            let bound = server.addr();
            if let Some(file) = &port_file {
                std::fs::write(file, format!("{bound}\n")).map_err(GraphError::Io)?;
            }
            // Status goes to stderr immediately — the returned string is only
            // printed after the server exits.
            eprintln!("graphz serve: listening on {bound} ({threads} reader threads)");
            let served = server.wait()?;
            Ok(format!("served {served} connection(s) on {bound}\n"))
        }
        Command::Run {
            algo,
            dos_dir,
            budget_mib,
            source,
            iterations,
            top,
            checkpoint_dir,
            checkpoint_every,
            resume,
            verbose,
            ..
        } => {
            let dos = DosGraph::open(&dos_dir, Arc::clone(&stats))?;
            let params = AlgoParams::new(algo)
                .with_source(source)
                .with_max_iterations(iterations);
            let budget = MemoryBudget::from_mib(budget_mib);
            let checkpointed = checkpoint_dir.is_some();
            let ckpt = runner::CheckpointSpec {
                dir: checkpoint_dir,
                every: checkpoint_every,
                resume,
            };
            let outcome = runner::run_graphz_reported(
                &dos,
                &params,
                budget,
                EngineOptions::full(),
                &ckpt,
                Arc::clone(&stats),
                |values| render_top(values, top),
            )?;
            let mut out = format!(
                "{algo} on {}: {} iterations ({}), {} partitions, {} messages\n\
                 io: {} read / {} written / {} seeks, wall {:?}\n",
                dos_dir.display(),
                outcome.iterations,
                if outcome.converged { "converged" } else { "hit iteration cap" },
                outcome.partitions,
                outcome.messages,
                outcome.io.bytes_read,
                outcome.io.bytes_written,
                outcome.io.seeks,
                outcome.wall,
            );
            if verbose {
                if let Some(plan) = outcome.plan {
                    out.push_str(&format!(
                        "plan: threads {} / residency {}\n",
                        plan.pipeline_threads,
                        plan.residency(),
                    ));
                }
                if let Some(st) = outcome.stages {
                    out.push_str(&format!(
                        "stage times: load {:?} / replay {:?} / compute {:?} / flush {:?}\n",
                        st.load, st.replay, st.compute, st.flush,
                    ));
                }
                out.push_str(&format!(
                    "msgs: {} buffered / {} spilled / {} replayed / {} held at most\n",
                    outcome.buffered, outcome.spilled, outcome.replayed, outcome.msg_high_water,
                ));
                if let Some(act) = outcome.activity {
                    out.push_str(&format!(
                        "activity: {} partition passes skipped / {} adjacency bytes skipped \
                         / {} gaps re-read / {} slab bytes written\n",
                        act.passes_skipped,
                        act.adjacency_bytes_skipped,
                        act.gaps_reread,
                        act.slab_bytes_written,
                    ));
                }
                if let (Some(ck), true) = (outcome.checkpoint, checkpointed) {
                    out.push_str(&format!(
                        "checkpoint: {} generations committed / seal {:?} / waited {:?} \
                         / commit thread {:?}\n",
                        ck.generations, ck.seal, ck.waited, ck.commit,
                    ));
                }
            }
            out.push_str(&outcome.values);
            Ok(out)
        }
    }
}

/// The stats page for a converted DOS image: the same §III-D numbers as the
/// edge-list path, but read straight off the degree-group index (one entry
/// per unique degree) through [`GraphView`] — no edge scan at all.
fn dos_stats(view: &GraphView, path: &Path) -> String {
    let st = view.stats();
    let bound = graphz_storage::dos::unique_degree_bound(st.num_edges);
    let mut out = format!(
        "{}\nvertices: {}\nedges: {}\n\
         unique out-degrees: {} (Claim-1 bound 2*sqrt(E) = {})\n\
         max out-degree: {}\nindex bytes: {}\n",
        path.display(),
        st.num_vertices,
        st.num_edges,
        st.unique_degrees,
        bound,
        st.max_degree,
        st.index_bytes,
    );
    // The index *is* the histogram: each group covers the vertices
    // `first_id .. next.first_id`, all with the same degree. Groups are
    // stored by descending degree; print ascending like the edge-list path.
    let groups = view.graph().index().groups();
    let n = st.num_vertices;
    out.push_str("degree histogram (first 10 buckets):\n");
    for (gi, g) in groups.iter().enumerate().rev().take(10) {
        let end = groups.get(gi + 1).map_or(n, |ng| u64::from(ng.first_id));
        let count = end - u64::from(g.first_id);
        out.push_str(&format!("  degree {:>6}: {count} vertices\n", g.degree));
    }
    out
}

/// The §III-D analysis as a tool: degree distribution, unique-degree count
/// against Claim 1's bound, and a rough power-law tail exponent.
fn degree_stats(el: &EdgeListFile, stats: &Arc<IoStats>) -> Result<String> {
    use std::collections::HashMap;
    let meta = el.meta();
    let mut degrees: HashMap<u32, u64> = HashMap::new();
    for e in el.reader(Arc::clone(stats))? {
        *degrees.entry(e?.src).or_default() += 1;
    }
    // Histogram: degree -> number of vertices with that degree.
    let mut histogram: HashMap<u64, u64> = HashMap::new();
    for &d in degrees.values() {
        *histogram.entry(d).or_default() += 1;
    }
    let zero_degree = meta.num_vertices - degrees.len() as u64;
    if zero_degree > 0 {
        histogram.insert(0, zero_degree);
    }
    let bound = graphz_storage::dos::unique_degree_bound(meta.num_edges);
    let mut out = format!(
        "{}
vertices: {}
edges: {}
unique out-degrees: {} (Claim-1 bound 2*sqrt(E) = {})
         max out-degree: {}
zero-out-degree vertices: {}
",
        el.path().display(),
        meta.num_vertices,
        meta.num_edges,
        histogram.len(),
        bound,
        meta.max_degree,
        zero_degree,
    );
    // Least-squares slope of log(count) over log(degree) for degree >= 1 —
    // a quick power-law tail exponent estimate (natural graphs: ~2-3).
    let points: Vec<(f64, f64)> = histogram
        .iter()
        .filter(|&(&d, _)| d >= 1)
        .map(|(&d, &c)| ((d as f64).ln(), (c as f64).ln()))
        .collect();
    if points.len() >= 3 {
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        out.push_str(&format!("power-law tail exponent (least squares): {:.2}
", -slope));
    }
    let mut buckets: Vec<(u64, u64)> = histogram.into_iter().collect();
    buckets.sort();
    out.push_str("degree histogram (first 10 buckets):
");
    for (d, c) in buckets.iter().take(10) {
        out.push_str(&format!("  degree {d:>6}: {c} vertices
"));
    }
    Ok(out)
}

/// The `--top K` listing: the K most interesting vertices for the value
/// kind (highest rank/visits, lowest distances, largest components...),
/// made in one pass over the run's values.
fn render_top(values: ResultStream<'_>, k: usize) -> Result<String> {
    let mut out = String::new();
    match values {
        ResultStream::Ranks(v) => {
            out.push_str("top vertices by rank:\n");
            let (top, _) = top_of(v, k, |r| Reverse(Total(r.into())), |_| {})?;
            for (Reverse(Total(val)), id) in top {
                out.push_str(&format!("  {id:>8}  {val:.4}\n"));
            }
        }
        ResultStream::Visits(v) => {
            out.push_str("top vertices by visit mass:\n");
            let (top, _) = top_of(v, k, |m| Reverse(Total(m.into())), |_| {})?;
            for (Reverse(Total(val)), id) in top {
                out.push_str(&format!("  {id:>8}  {val:.4}\n"));
            }
        }
        ResultStream::Hops(v) => {
            let mut reached = 0u64;
            let (top, n) =
                top_of(v, k, |d| Total(d.into()), |d| reached += u64::from(d != u32::MAX))?;
            out.push_str(&format!("reached {reached} of {n} vertices; nearest:\n"));
            for (Total(val), id) in top {
                if val == f64::from(u32::MAX) {
                    break;
                }
                out.push_str(&format!("  {id:>8}  {val:.0} hops\n"));
            }
        }
        ResultStream::Costs(v) => {
            let mut reached = 0u64;
            let (top, n) =
                top_of(v, k, |c| Total(c.into()), |c| reached += u64::from(c.is_finite()))?;
            out.push_str(&format!("reached {reached} of {n} vertices; nearest:\n"));
            for (Total(val), id) in top {
                if !val.is_finite() {
                    break;
                }
                out.push_str(&format!("  {id:>8}  {val:.3}\n"));
            }
        }
        ResultStream::Labels(v) => {
            let (components, top) = largest_components(v, k)?;
            out.push_str(&format!("{components} components; largest:\n"));
            for (Reverse(n), label) in top {
                out.push_str(&format!("  component {label:>8}: {n} vertices\n"));
            }
        }
        ResultStream::Beliefs(v) => {
            out.push_str("most state-0-confident vertices:\n");
            let (top, _) = top_of(v, k, |b| Reverse(Total(b[0].into())), |_| {})?;
            for (Reverse(Total(val)), id) in top {
                out.push_str(&format!("  {id:>8}  P(state 0) = {val:.4}\n"));
            }
        }
    }
    Ok(out)
}

/// An `f64` ordered by [`f64::total_cmp`], so a listing key is `Ord`.
#[derive(Debug, Clone, Copy)]
struct Total(f64);

impl PartialEq for Total {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Total {}

impl PartialOrd for Total {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Total {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The first `k` rows of a listing — ascending key, ties by ascending
/// original id — kept in a k-entry max-heap while the values stream past:
/// a row that sorts before the heap's last row replaces it. The order is
/// total, so the rows kept are exactly the prefix a full sort would print.
/// Ties must break on the original id as each row arrives, which is why
/// the id map is zipped into the stream rather than applied afterwards.
struct TopK<K: Ord> {
    k: usize,
    /// Max-heap: the root is the kept row listed last.
    heap: BinaryHeap<(K, VertexId)>,
}

impl<K: Ord> TopK<K> {
    fn new(k: usize) -> Self {
        TopK { k, heap: BinaryHeap::new() }
    }

    fn push(&mut self, key: K, id: VertexId) {
        let row = (key, id);
        if self.heap.len() < self.k {
            self.heap.push(row);
        } else if let Some(mut last) = self.heap.peek_mut() {
            if row < *last {
                *last = row;
            }
        }
    }

    /// The rows kept, in listing order.
    fn into_sorted(self) -> Rows<K> {
        self.heap.into_sorted_vec()
    }
}

/// Listing rows: a key and the original id it belongs to.
type Rows<K> = Vec<(K, VertexId)>;

/// Stream `values` through a [`TopK`] of `k` rows under `key`, showing
/// every value to `seen` too. Returns the rows in listing order and the
/// vertex count.
fn top_of<T: Copy, K: Ord>(
    values: ValueStream<'_, T>,
    k: usize,
    key: impl Fn(T) -> K,
    mut seen: impl FnMut(T),
) -> Result<(Rows<K>, u64)> {
    let mut top = TopK::new(k);
    let n = values.for_each(|id, value| {
        seen(value);
        top.push(key(value), id);
    })?;
    Ok((top.into_sorted(), n))
}

/// CC's listing from one pass over the raw labels: a table indexed by raw
/// label holds each component's size and smallest original id (its
/// canonical label). GraphZ's raw labels are storage ids below V, so that
/// is 8 bytes per vertex — the one V-sized table left in reporting; a
/// larger label falls back to a map. Returns the component count and the
/// `k` largest components, equal sizes by canonical label.
fn largest_components(
    labels: ValueStream<'_, u32>,
    k: usize,
) -> Result<(usize, Rows<Reverse<u32>>)> {
    let unseen = (0u32, VertexId::MAX);
    let mut dense = vec![unseen; cast::to_usize(labels.num_vertices(), "vertex count")?];
    let mut sparse: std::collections::HashMap<u32, (u32, VertexId)> = Default::default();
    labels.for_each(|id, label| {
        let (size, first) = match dense.get_mut(cast::vertex_index(label)) {
            Some(slot) => slot,
            None => sparse.entry(label).or_insert(unseen),
        };
        *size += 1;
        *first = (*first).min(id);
    })?;
    let mut top = TopK::new(k);
    let mut components = 0;
    for &(size, first) in dense.iter().filter(|&&(size, _)| size > 0).chain(sparse.values()) {
        components += 1;
        top.push(Reverse(size), first);
    }
    Ok((components, top.into_sorted()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_generate_with_flags() {
        let cmd = parse(&args("generate g.bin --scale 12 --edges 5000 --seed 7")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate { out: "g.bin".into(), scale: 12, edges: 5000, seed: 7 }
        );
    }

    #[test]
    fn parses_run_with_defaults() {
        let cmd = parse(&args("run pr dos-dir")).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                algo: Algorithm::PageRank,
                dos_dir: "dos-dir".into(),
                budget_mib: 8,
                source: 0,
                iterations: 100,
                top: 10,
                checkpoint_dir: None,
                checkpoint_every: 1,
                resume: false,
                threads: 1,
                prefetch: false,
                verbose: false,
            }
        );
    }

    #[test]
    fn run_rejects_source_for_algorithms_without_one() {
        for (algo, name) in [("pr", "PR"), ("cc", "CC"), ("bp", "BP"), ("rw", "RW")] {
            let err = parse(&args(&format!("run {algo} dos-dir --source 4"))).unwrap_err();
            assert!(matches!(err, GraphError::InvalidConfig(_)), "{algo}: {err:?}");
            let want = format!("--source applies to bfs and sssp only; {name} has no source");
            assert!(err.to_string().contains(&want), "{algo}: {err}");
        }
        for algo in ["bfs", "sssp"] {
            match parse(&args(&format!("run {algo} dos-dir --source 4"))).unwrap() {
                Command::Run { source, .. } => assert_eq!(source, 4, "{algo}"),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn parses_run_parallelism_flags() {
        let cmd = parse(&args("run pr dos-dir --verbose")).unwrap();
        match cmd {
            Command::Run { threads, prefetch, verbose, .. } => {
                assert_eq!(threads, 1);
                assert!(!prefetch);
                assert!(verbose);
            }
            other => panic!("parsed {other:?}"),
        }
        // `run` has one Worker schedule and loads partitions on its own
        // thread: --threads and --no-prefetch are unknown flags.
        for (flag, rest) in [("--threads", " 2"), ("--no-prefetch", "")] {
            let err = parse(&args(&format!("run pr dos-dir {flag}{rest}"))).unwrap_err();
            let want = format!("unknown flag `{flag}` for `graphz run` — see `graphz run --help`");
            assert!(err.to_string().contains(&want), "{err}");
        }
    }

    #[test]
    fn parses_run_with_checkpoint_flags() {
        let cmd =
            parse(&args("run cc dos-dir --checkpoint-dir ckpts --checkpoint-every 5 --resume"))
                .unwrap();
        match cmd {
            Command::Run { checkpoint_dir, checkpoint_every, resume, .. } => {
                assert_eq!(checkpoint_dir, Some("ckpts".into()));
                assert_eq!(checkpoint_every, 5);
                assert!(resume);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_command_and_algorithm() {
        assert!(parse(&args("frobnicate x")).is_err());
        assert!(parse(&args("run dijkstra dos")).is_err());
    }

    #[test]
    fn unknown_command_error_lists_available_subcommands() {
        let err = parse(&args("frobnicate x")).unwrap_err();
        let msg = err.to_string();
        // The error enumerates the table so users see what *is* spelled right.
        for spec in COMMANDS {
            assert!(msg.contains(spec.name), "`{}` missing from: {msg}", spec.name);
        }
        assert!(msg.contains("unknown command `frobnicate`"), "{msg}");
        // The same table renders the helper, so the two can never disagree.
        assert_eq!(command_names().matches(", ").count() + 1, COMMANDS.len());
        assert!(command_names().contains("convert"), "{}", command_names());
    }

    #[test]
    fn parses_convert_fault_tolerance_flags() {
        match parse(&args("convert e.txt dos --max-bad-records 5 --resume")).unwrap() {
            Command::Convert { max_bad_records, resume, .. } => {
                assert_eq!(max_bad_records, Some(5));
                assert!(resume);
            }
            other => panic!("parsed {other:?}"),
        }
        // Defaults: strict parsing, fresh scratch.
        match parse(&args("convert e.txt dos")).unwrap() {
            Command::Convert { max_bad_records, resume, .. } => {
                assert_eq!(max_bad_records, None);
                assert!(!resume);
            }
            other => panic!("parsed {other:?}"),
        }
        let err = parse(&args("convert e.txt dos --max-bad-records lots")).unwrap_err();
        assert!(err.to_string().contains("--max-bad-records"), "{err}");
    }

    #[test]
    fn convert_quarantines_bad_lines_when_budgeted() {
        let dir = graphz_io::ScratchDir::new("cli-quarantine").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n1 oops\n1 2\n2 0\n").unwrap();
        let dos = dir.path().join("dos");
        // Strict by default: the malformed line aborts the conversion.
        let line = format!("convert {} {}", txt.display(), dos.display());
        assert!(execute(parse(&args(&line)).unwrap()).is_err());
        // With a budget the line is quarantined and conversion succeeds.
        let line = format!("convert {} {} --max-bad-records 1", txt.display(), dos.display());
        let out = execute(parse(&args(&line)).unwrap()).unwrap();
        assert!(out.contains("degree-ordered storage"), "{out}");
        assert!(out.contains("quarantine.txt"), "{out}");
        let sidecar = std::fs::read_to_string(dos.join("quarantine.txt")).unwrap();
        assert!(sidecar.contains("line 2"), "{sidecar}");
        assert!(sidecar.contains("1 oops"), "{sidecar}");
    }

    #[test]
    fn rejects_unknown_flags_naming_the_command() {
        let err = parse(&args("run pr dos --banana")).unwrap_err();
        assert!(err.to_string().contains("graphz run"), "{err}");
        // A flag valid elsewhere is still unknown here.
        let err = parse(&args("generate g.bin --ingest-threads 4")).unwrap_err();
        assert!(err.to_string().contains("--ingest-threads"), "{err}");
        // Surplus positionals are rejected, not silently dropped.
        assert!(parse(&args("info a b")).is_err());
        // A value-taking flag at the end of the line is an error.
        let err = parse(&args("generate g.bin --scale")).unwrap_err();
        assert!(err.to_string().contains("--scale"), "{err}");
        // The new read-API rows reject strangers too, naming themselves.
        let err = parse(&args("serve dos --checkpoint-every 2")).unwrap_err();
        assert!(err.to_string().contains("graphz serve"), "{err}");
        let err = parse(&args("islands dos --format dot")).unwrap_err();
        assert!(err.to_string().contains("graphz islands"), "{err}");
        let err = parse(&args("export dos --emit")).unwrap_err();
        assert!(err.to_string().contains("graphz export"), "{err}");
    }

    #[test]
    fn parses_serve_with_flags_and_defaults() {
        assert_eq!(
            parse(&args("serve dos")).unwrap(),
            Command::Serve {
                dos_dir: "dos".into(),
                addr: "127.0.0.1:0".into(),
                threads: 4,
                checkpoint_dir: None,
                generation: None,
                max_conns: None,
                port_file: None,
            }
        );
        match parse(&args(
            "serve dos --addr 127.0.0.1:4167 --threads 2 --checkpoint-dir ck \
             --generation 3 --max-conns 10 --port-file p.txt",
        ))
        .unwrap()
        {
            Command::Serve { addr, threads, checkpoint_dir, generation, max_conns, port_file, .. } => {
                assert_eq!(addr, "127.0.0.1:4167");
                assert_eq!(threads, 2);
                assert_eq!(checkpoint_dir, Some("ck".into()));
                assert_eq!(generation, Some(3));
                assert_eq!(max_conns, Some(10));
                assert_eq!(port_file, Some("p.txt".into()));
            }
            other => panic!("parsed {other:?}"),
        }
        // --threads 0 is clamped like run's.
        match parse(&args("serve dos --threads 0")).unwrap() {
            Command::Serve { threads, .. } => assert_eq!(threads, 1),
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&args("serve dos --generation nope")).is_err());
        assert!(parse(&args("serve dos --max-conns many")).is_err());
    }

    #[test]
    fn parses_islands_and_export() {
        assert_eq!(
            parse(&args("islands dos --emit")).unwrap(),
            Command::Islands { dos_dir: "dos".into(), emit: true }
        );
        assert_eq!(
            parse(&args("export dos --out g.dot --original")).unwrap(),
            Command::Export {
                dos_dir: "dos".into(),
                format: "dot".into(),
                out: Some("g.dot".into()),
                original: true,
            }
        );
        let err = parse(&args("export dos --format gexf")).unwrap_err();
        assert!(err.to_string().contains("gexf"), "{err}");
    }

    #[test]
    fn stats_islands_export_read_through_graphview() {
        let dir = graphz_io::ScratchDir::new("cli-view").unwrap();
        let txt = dir.file("g.txt");
        // Two 3-cycles, disjoint: components {0,1,2} and {3,4,5}.
        std::fs::write(&txt, "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n").unwrap();
        let dos = dir.path().join("dos").display().to_string();
        execute(parse(&args(&format!("convert {} {dos}", txt.display()))).unwrap()).unwrap();

        let out = execute(parse(&args(&format!("stats {dos}"))).unwrap()).unwrap();
        assert!(out.contains("vertices: 6"), "{out}");
        assert!(out.contains("unique out-degrees: 1"), "{out}");
        assert!(out.contains("degree histogram"), "{out}");

        let out = execute(parse(&args(&format!("islands {dos} --emit"))).unwrap()).unwrap();
        assert!(out.contains("2 component(s), largest 3 vertices, 0 isolated"), "{out}");
        // --emit prints a line per vertex.
        assert_eq!(out.lines().count(), 1 + 6, "{out}");

        let dot = dir.file("g.dot");
        let out = execute(
            parse(&args(&format!("export {dos} --out {} --original", dot.display()))).unwrap(),
        )
        .unwrap();
        assert!(out.contains("wrote 6 edges"), "{out}");
        let text = std::fs::read_to_string(&dot).unwrap();
        assert!(text.contains("0 -> 1;"), "{text}");
        assert!(text.contains("5 -> 3;"), "{text}");
        // Without --out the DOT text itself is the command output.
        let inline = execute(parse(&args(&format!("export {dos}"))).unwrap()).unwrap();
        assert!(inline.starts_with("digraph graphz {"), "{inline}");
    }

    #[test]
    fn serve_command_answers_queries_end_to_end() {
        use std::io::{BufRead, BufReader, Write};
        let dir = graphz_io::ScratchDir::new("cli-serve").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n1 2\n2 0\n").unwrap();
        let dos = dir.path().join("dos").display().to_string();
        execute(parse(&args(&format!("convert {} {dos}", txt.display()))).unwrap()).unwrap();

        let port_file = dir.file("port.txt");
        let line = format!(
            "serve {dos} --threads 2 --max-conns 1 --port-file {}",
            port_file.display()
        );
        let cmd = parse(&args(&line)).unwrap();
        let server = std::thread::spawn(move || execute(cmd));
        // The port file appears once the listener is bound.
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if s.ends_with('\n') {
                    break s.trim().to_string();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut resp = String::new();
        for (req, want) in [("ping", "OK pong"), ("degree 0", "OK 1"), ("quit", "OK bye")] {
            conn.write_all(req.as_bytes()).unwrap();
            conn.write_all(b"\n").unwrap();
            resp.clear();
            reader.read_line(&mut resp).unwrap();
            assert_eq!(resp.trim_end(), want);
        }
        drop(conn);
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("served 1 connection(s)"), "{out}");
    }

    #[test]
    fn per_subcommand_help_renders_from_the_table() {
        for spelled in ["convert --help", "convert -h", "help convert"] {
            let cmd = parse(&args(spelled)).unwrap();
            assert_eq!(cmd, Command::HelpFor("convert".into()), "{spelled}");
        }
        let page = execute(Command::HelpFor("convert".into())).unwrap();
        assert!(page.contains("--resume"), "{page}");
        assert!(page.contains("byte-identical"), "{page}");
        assert!(!page.contains("--ingest-threads"), "{page}");
        assert!(page.contains("--weighted"), "{page}");
        // `--help` wins even when the rest of the line is malformed.
        assert_eq!(
            parse(&args("run --help --banana")).unwrap(),
            Command::HelpFor("run".into())
        );
        // `help <unknown>` falls back to the top-level page.
        assert_eq!(parse(&args("help frobnicate")).unwrap(), Command::Help);
    }

    #[test]
    fn every_table_row_parses_and_renders_help() {
        for spec in COMMANDS {
            // The parse() match has an arm for every row: a minimal
            // invocation must never hit the `unimplemented command` arm.
            let mut line = vec![spec.name.to_string()];
            line.extend(spec.positionals.iter().map(|p| match *p {
                "<pr|bfs|cc|sssp|bp|rw>" => "pr".to_string(),
                other => other.trim_matches(['<', '>']).replace(" | ", "-"),
            }));
            match parse(&line) {
                Ok(_) => {}
                Err(e) => {
                    assert!(
                        !e.to_string().contains("unimplemented"),
                        "`{}` has a table row but no parse arm: {e}",
                        spec.name
                    );
                    panic!("minimal `{}` invocation failed to parse: {e}", spec.name);
                }
            }
            let page = usage_for(spec.name);
            assert!(page.contains(spec.summary), "{page}");
            for f in spec.flags {
                assert!(page.contains(f.name), "help for `{}` misses {}", spec.name, f.name);
            }
            assert!(usage().contains(spec.name));
        }
    }

    #[test]
    fn ingest_threads_is_an_unknown_flag_on_import_and_convert() {
        // Ingest has one path, on the calling thread.
        for cmd in ["import", "convert"] {
            let err = parse(&args(&format!("{cmd} e.txt out --ingest-threads 2")))
                .unwrap_err()
                .to_string();
            let want = format!(
                "unknown flag `--ingest-threads` for `graphz {cmd}` — see `graphz {cmd} --help`"
            );
            assert!(err.contains(&want), "{err}");
        }
        assert_eq!(
            parse(&args("import e.txt e.bin")).unwrap(),
            Command::Import { text: "e.txt".into(), out: "e.bin".into() }
        );
        match parse(&args("convert e.bin dos")).unwrap() {
            Command::Convert { ingest_threads, .. } => assert_eq!(ingest_threads, 1),
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert!(execute(Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn bad_flag_value_is_config_error() {
        let err = parse(&args("generate g.bin --scale banana")).unwrap_err();
        assert!(matches!(err, GraphError::InvalidConfig(_)));
    }

    #[test]
    fn end_to_end_generate_convert_info_run() {
        let dir = graphz_io::ScratchDir::new("cli").unwrap();
        let g = dir.file("g.bin").display().to_string();
        let dos = dir.path().join("dos").display().to_string();
        let out = execute(
            parse(&args(&format!("generate {g} --scale 10 --edges 4000"))).unwrap(),
        )
        .unwrap();
        assert!(out.contains("4000 edges"), "{out}");
        let out = execute(parse(&args(&format!("convert {g} {dos}"))).unwrap()).unwrap();
        assert!(out.contains("degree-ordered storage"));
        let out = execute(parse(&args(&format!("info {dos}"))).unwrap()).unwrap();
        assert!(out.contains("edges: 4000"));
        let out = execute(
            parse(&args(&format!("run bfs {dos} --budget-mib 1 --source 0 --top 3"))).unwrap(),
        )
        .unwrap();
        assert!(out.contains("reached"), "{out}");
        let out =
            execute(parse(&args(&format!("run pr {dos} --iterations 20"))).unwrap()).unwrap();
        assert!(out.contains("top vertices by rank"), "{out}");
        let out = execute(
            parse(&args(&format!(
                "run pr {dos} --budget-mib 1 --iterations 10 --verbose"
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("stage times:"), "{out}");
        assert!(!out.contains("prefetch"), "{out}");
        assert!(out.contains("plan: threads "), "{out}");
        // One resident partition: no message is ever buffered or spilled.
        let msgs = "msgs: 0 buffered / 0 spilled / 0 replayed / 0 held at most\n";
        assert!(out.contains(msgs), "{out}");
        // PageRank keeps every vertex active: nothing is skipped.
        let none_skipped =
            "activity: 0 partition passes skipped / 0 adjacency bytes skipped / 0 gaps re-read / ";
        assert!(out.contains(none_skipped), "{out}");
        // Once the BFS frontier dies the last pass is skipped (this graph
        // is one resident partition, so there are no blocks to seek past);
        // without --verbose no activity line is printed.
        let bfs = format!("run bfs {dos} --budget-mib 1 --source 0 --top 3");
        let out = execute(parse(&args(&format!("{bfs} --verbose"))).unwrap()).unwrap();
        let line = out.lines().find(|l| l.starts_with("activity: ")).expect("activity line");
        let fields: Vec<u64> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|f| !f.is_empty())
            .map(|f| f.parse().unwrap())
            .collect();
        assert_eq!(fields.len(), 4, "{line}");
        assert!(fields[0] > 0, "the quiet final pass is skipped: {line}");
        assert_eq!(fields[3], 0, "the resident slab is never written: {line}");
        let quiet = execute(parse(&args(&bfs)).unwrap()).unwrap();
        assert!(!quiet.contains("activity:") && !quiet.contains("msgs:"), "{quiet}");
        // A graph that fits runs inline over a resident adjacency; without
        // --verbose no plan line is printed.
        let out = execute(parse(&args(&format!("run pr {dos} --iterations 3 --verbose"))).unwrap())
            .unwrap();
        assert!(
            out.contains("plan: threads 1 / residency slab+adjacency\n"),
            "{out}"
        );
        // It keeps its vertex state out of the working file.
        assert!(out.contains(" read / 0 written / "), "{out}");
        let out =
            execute(parse(&args(&format!("run pr {dos} --iterations 3"))).unwrap()).unwrap();
        assert!(!out.contains("plan:"), "{out}");
    }

    #[test]
    fn convert_accepts_text_directly_and_matches_import_then_convert() {
        let dir = graphz_io::ScratchDir::new("cli-text-convert").unwrap();
        let txt = dir.file("g.txt");
        let bin = dir.file("g.bin");
        std::fs::write(&txt, "0 1\n1 2\n2 0\n0 2\n3 1\n").unwrap();
        let from_text = dir.path().join("from-text");
        let from_bin = dir.path().join("from-bin");
        let run = |line: String| execute(parse(&args(&line)).unwrap()).unwrap();
        let out = run(format!("convert {} {}", txt.display(), from_text.display()));
        assert!(out.contains("degree-ordered storage"), "{out}");
        run(format!("import {} {}", txt.display(), bin.display()));
        run(format!("convert {} {}", bin.display(), from_bin.display()));
        for name in ["edges.bin", "checksums.txt"] {
            assert_eq!(
                std::fs::read(from_text.join(name)).unwrap(),
                std::fs::read(from_bin.join(name)).unwrap(),
                "{name}"
            );
        }
    }

    #[test]
    fn import_dispatches_on_extension() {
        let dir = graphz_io::ScratchDir::new("cli-import").unwrap();
        let mtx = dir.file("m.mtx");
        std::fs::write(&mtx, "%%MatrixMarket matrix coordinate
2 2 1
1 2
").unwrap();
        let out = execute(
            parse(&args(&format!(
                "import {} {}",
                mtx.display(),
                dir.file("m.bin").display()
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("imported 1 edges"), "{out}");
    }

    #[test]
    fn stats_command_reports_distribution() {
        let dir = graphz_io::ScratchDir::new("cli-stats").unwrap();
        let g = dir.file("g.bin").display().to_string();
        execute(parse(&args(&format!("generate {g} --scale 10 --edges 8000"))).unwrap())
            .unwrap();
        let out = execute(parse(&args(&format!("stats {g}"))).unwrap()).unwrap();
        assert!(out.contains("unique out-degrees"), "{out}");
        assert!(out.contains("power-law tail exponent"), "{out}");
        assert!(out.contains("degree histogram"), "{out}");
    }

    #[test]
    fn verify_command_reports_ok_and_corruption() {
        let dir = graphz_io::ScratchDir::new("cli-verify").unwrap();
        let g = dir.file("g.bin").display().to_string();
        let dos = dir.path().join("dos");
        let dos_s = dos.display().to_string();
        execute(parse(&args(&format!("generate {g} --scale 8 --edges 500"))).unwrap()).unwrap();
        execute(parse(&args(&format!("convert {g} {dos_s}"))).unwrap()).unwrap();
        let out = execute(parse(&args(&format!("verify {dos_s}"))).unwrap()).unwrap();
        assert!(out.contains("OK"));
        assert!(out.contains("checksum-verified"), "{out}");
        // Corrupt and re-verify.
        let edges = dos.join("edges.bin");
        let len = std::fs::metadata(&edges).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&edges).unwrap().set_len(len - 4).unwrap();
        let err = execute(parse(&args(&format!("verify {dos_s}"))).unwrap()).unwrap_err();
        assert!(err.to_string().contains("violation"), "{err}");
    }

    #[test]
    fn run_writes_checkpoints_and_resumes() {
        let dir = graphz_io::ScratchDir::new("cli-ckpt").unwrap();
        let g = dir.file("g.bin").display().to_string();
        let dos = dir.path().join("dos").display().to_string();
        let ck = dir.path().join("ckpts");
        let ck_s = ck.display().to_string();
        execute(parse(&args(&format!("generate {g} --scale 9 --edges 2000"))).unwrap()).unwrap();
        execute(parse(&args(&format!("convert {g} {dos}"))).unwrap()).unwrap();

        let out = execute(
            parse(&args(&format!(
                "run pr {dos} --budget-mib 1 --iterations 30 --checkpoint-dir {ck_s}"
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("top vertices by rank"), "{out}");
        // Retention: of one generation per iteration, only the newest two
        // stay on disk, and nothing else does.
        let generations = graphz_core::list_generations(&ck).unwrap();
        assert_eq!(generations.len(), 2, "expected the newest two generations: {generations:?}");
        assert_eq!(std::fs::read_dir(&ck).unwrap().count(), 2, "retention left debris");
        let newest = generations[0].number;
        assert!(newest > 2, "the run must have retired generations: newest is {newest}");

        // A retired generation is a typed not-found that names it.
        let err = execute(
            parse(&args(&format!(
                "serve {dos} --addr 127.0.0.1:0 --checkpoint-dir {ck_s} --generation 1"
            )))
            .unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::NotFound(_)), "{err:?}");
        assert!(err.to_string().contains("generation 1 "), "{err}");

        let out = execute(
            parse(&args(&format!(
                "run pr {dos} --budget-mib 1 --iterations 30 --checkpoint-dir {ck_s} \
                 --checkpoint-every 0 --resume"
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("top vertices by rank"), "{out}");
    }

    #[test]
    fn verbose_checkpoint_line_only_with_a_checkpoint_dir() {
        let dir = graphz_io::ScratchDir::new("cli-ckpt-verbose").unwrap();
        let g = dir.file("g.bin").display().to_string();
        let dos = dir.path().join("dos").display().to_string();
        let ck = dir.path().join("ckpts").display().to_string();
        execute(parse(&args(&format!("generate {g} --scale 9 --edges 2000"))).unwrap()).unwrap();
        execute(parse(&args(&format!("convert {g} {dos}"))).unwrap()).unwrap();
        let run = format!("run pr {dos} --budget-mib 1 --iterations 6 --verbose");

        let plain = execute(parse(&args(&run)).unwrap()).unwrap();
        assert!(!plain.contains("checkpoint:"), "{plain}");

        let out = execute(parse(&args(&format!("{run} --checkpoint-dir {ck}"))).unwrap()).unwrap();
        let line = out.lines().find(|l| l.starts_with("checkpoint: ")).expect("checkpoint line");
        assert!(
            line.contains(" generations committed / seal ")
                && line.contains(" / waited ")
                && line.contains(" / commit thread "),
            "{line}"
        );
        // One generation per iteration, every one of them committed.
        let iterations = out.split(": ").nth(1).and_then(|f| f.split(' ').next()).unwrap();
        assert!(line.starts_with(&format!("checkpoint: {iterations} generations")), "{out}");
        assert_eq!(iterations, "6", "{out}");
    }

    /// `values` (index = original id) as the stream a run hands its report.
    fn stream_of<T: Copy>(values: &[T]) -> ValueStream<'_, T> {
        ValueStream::new(values.len() as u64, move |f| {
            for (id, &v) in values.iter().enumerate() {
                f(id as VertexId, v);
            }
            Ok(values.len() as u64)
        })
    }

    /// The heap's listing of `values`, largest first, as `(id, value)`.
    fn largest<T: Copy + Into<f64>>(values: &[T], k: usize) -> Vec<(usize, f64)> {
        let (top, _) = top_of(stream_of(values), k, |v| Reverse(Total(v.into())), |_| {}).unwrap();
        top.into_iter().map(|(Reverse(Total(v)), id)| (id as usize, v)).collect()
    }

    /// The heap's listing of `values`, smallest first, as `(id, value)`.
    fn smallest<T: Copy + Into<f64>>(values: &[T], k: usize) -> Vec<(usize, f64)> {
        let (top, _) = top_of(stream_of(values), k, |v| Total(v.into()), |_| {}).unwrap();
        top.into_iter().map(|(Total(v), id)| (id as usize, v)).collect()
    }

    #[test]
    fn top_by_orders_and_truncates() {
        let v = [3.0f32, 1.0, 2.0];
        let top = largest(&v, 2);
        assert_eq!(top, vec![(0, 3.0), (2, 2.0)]);

        // k = 0 and k >= len.
        assert!(largest(&v, 0).is_empty());
        let all = vec![(0, 3.0), (2, 2.0), (1, 1.0)];
        assert_eq!(largest(&v, 3), all);
        assert_eq!(largest(&v, 10), all);
        assert!(smallest::<f32>(&[], 5).is_empty());

        // Ties break by ascending id on both sides of the cut, and every k
        // is exactly the prefix of the full sort it replaces.
        let hops = [5u32, 1, u32::MAX, 1, 3, 1, 5, 0, u32::MAX, 3];
        let mut full: Vec<(usize, f64)> =
            hops.iter().enumerate().map(|(i, &d)| (i, f64::from(d))).collect();
        full.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        for k in 0..=hops.len() + 1 {
            let top = smallest(&hops, k);
            assert_eq!(top, full[..k.min(full.len())], "k={k}");
        }
        assert_eq!(smallest(&hops, 3), vec![(7, 0.0), (1, 1.0), (3, 1.0)]);
        let ranks = [0.5f64, 0.5, 0.25, 0.5];
        assert_eq!(largest(&ranks, 2), vec![(0, 0.5), (1, 0.5)]);
    }

    #[test]
    fn component_listing_counts_labels_in_and_past_the_table() {
        // A table of 6 raw labels: 9 and u32::MAX lie past it (and 6
        // exactly at its end). Each vertex's original id is its raw label,
        // so each component is listed under that label; sizes 3, 2, 2, 2
        // with ties listed by label.
        let raw = [9, 1, 9, 6, 1, 1, u32::MAX, 6, u32::MAX];
        let labels = || {
            ValueStream::new(6, move |f| {
                raw.iter().for_each(|&l| f(l, l));
                Ok(raw.len() as u64)
            })
        };
        let listing = |k| render_top(ResultStream::Labels(labels()), k).unwrap();
        assert_eq!(
            listing(10),
            "4 components; largest:\n\
             \x20 component        1: 3 vertices\n\
             \x20 component        6: 2 vertices\n\
             \x20 component        9: 2 vertices\n\
             \x20 component 4294967295: 2 vertices\n"
        );
        assert_eq!(
            listing(2),
            "4 components; largest:\n\
             \x20 component        1: 3 vertices\n\
             \x20 component        6: 2 vertices\n"
        );
        let empty = ValueStream::new(0, |_| Ok(0));
        assert_eq!(
            render_top(ResultStream::Labels(empty), 3).unwrap(),
            "0 components; largest:\n"
        );
    }

    #[test]
    fn a_component_is_listed_under_its_smallest_original_id() {
        // Storage order with (original id, raw label): raw labels 0, 1 and
        // 4 hold original ids {5, 2}, {4, 0} and {3, 1}. Equal sizes list
        // by the smallest original id, not by raw label.
        let rows = [(5, 0), (2, 0), (4, 1), (0, 1), (3, 4), (1, 4)];
        let labels = ValueStream::new(6, move |f| {
            rows.iter().for_each(|&(id, l)| f(id, l));
            Ok(rows.len() as u64)
        });
        assert_eq!(
            render_top(ResultStream::Labels(labels), 10).unwrap(),
            "3 components; largest:\n\
             \x20 component        0: 2 vertices\n\
             \x20 component        1: 2 vertices\n\
             \x20 component        2: 2 vertices\n"
        );
    }
}
