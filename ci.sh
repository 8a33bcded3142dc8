#!/usr/bin/env bash
# Offline CI gate: build, test, lint. Run from the repo root.
#
# The workspace builds fully offline (path-shimmed deps under shims/), so
# --offline both documents and enforces that no network fetch is needed.
# Each step prints its wall time; an analyzer-gate failure tails the
# offending findings JSON so the log alone names every violation.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

STEP_T0=0
step() {
    STEP_T0=$SECONDS
    echo "== $* =="
}
step_done() {
    echo "   (step took $((SECONDS - STEP_T0))s)"
}

# Run an analyzer binary with --json OUT; on failure, tail the findings
# artifact before propagating the exit code.
analyzer() {
    local bin=$1 out=$2
    if ! cargo run --offline -q -p graphz-check --bin "$bin" -- --json "$out"; then
        echo "-- $bin failed; tail of $out:" >&2
        tail -n 40 "$out" >&2 || true
        return 1
    fi
}

step "build (release)"
cargo build --release --offline
step_done

step "test"
cargo test -q --offline
step_done

step "ingest equivalence (any budget, any resume point: same bytes)"
# Part of the tier-1 gate: a budget that spills many runs and pre-merges
# must produce DOS directories byte-identical to a budget where every sort
# is one in-memory run, and a run killed at any stage commit must resume to
# the same bytes (DESIGN.md §6g, §6h).
cargo test -q --offline -p graphz-bench --test ingest_equivalence
step_done

step "ingest chaos (fault sweep + resume, DESIGN.md §6h)"
# A fault planted at every sampled file operation — hard, torn, transient,
# disk-full — must either retry to success or fail typed with the scratch
# root resumable to a byte-identical directory. The sweep summary lands in
# chaos_ingest.json and must equal the committed one: its gated op count and
# injection points are a function of the pipeline's file operations, so a
# change that moves them on purpose commits the summary this step wrote.
committed_chaos=$(mktemp)
cp chaos_ingest.json "$committed_chaos"
CHAOS_INGEST_OUT="$PWD/chaos_ingest.json" \
  cargo test -q --offline -p graphz-bench --test ingest_chaos
if ! cmp -s "$committed_chaos" chaos_ingest.json; then
    echo "-- chaos_ingest.json differs from the committed summary" >&2
    echo "-- committed:" >&2
    cat "$committed_chaos" >&2
    echo "-- this run:" >&2
    cat chaos_ingest.json >&2
    rm -f "$committed_chaos"
    exit 1
fi
rm -f "$committed_chaos"
step_done

step "clippy (warnings are errors)"
cargo clippy --offline --all-targets -- -D warnings
step_done

step "lint (repo invariants, DESIGN.md §6e)"
analyzer graphz-lint lint_findings.json
step_done

step "audit (dataflow/protocol analyses, DESIGN.md §6f)"
# Covers crates/check itself (the tools are self-gated) and emits the
# machine-readable findings artifact either way.
analyzer graphz-audit audit_findings.json
step_done

step "flow (CFG path-sensitive dataflow, DESIGN.md §6j)"
# Fault-surface coverage of every write path, path-complete must-consume,
# determinism taint, and error-context — over per-function CFGs. Also
# self-applied to crates/check.
analyzer graphz-flow flow_findings.json
step_done

step "ipa (interprocedural call-graph analyses, DESIGN.md §6k)"
# The Worker hot path stays allocation-, lock-, and IO-free; the compute
# phase stays panic-free; every file-creating sink is fault-gated on all
# call paths; fs errors crossing crates carry .ctx context.
analyzer graphz-ipa ipa_findings.json
step_done

step "combined analysis artifact"
# One document answering "is the tree clean" across lint + audit + flow + ipa.
cargo run --offline -q -p graphz-check --bin graphz-report -- \
  --out analysis_findings.json \
  graphz-lint=lint_findings.json \
  graphz-audit=audit_findings.json \
  graphz-flow=flow_findings.json \
  graphz-ipa=ipa_findings.json
step_done

step "serve (golden transcript + concurrent readers, DESIGN.md §6l)"
# Boots a real server on a scratch image twice: a scripted TCP session is
# diffed byte-for-byte against the committed golden transcript, then four
# readers replay a mixed query script against a pinned snapshot while the
# engine commits new checkpoint generations mid-flight.
cargo test -q --offline -p graphz-serve --test golden --test concurrent
step_done

step "benchmark (unit tests + ingest-text, pagerank-fit, pagerank-ooc, traversal-ooc, pipeline-cold smokes)"
# The benchmark package's own tests, then one short ingest-text run: the
# text -> `graphz convert` path (byte-level parse, run sorts, manifests and
# checksums folded while writing), with the image checked by `verify_dos`.
# Then one short pagerank-fit run: it
# drives `graphz convert | run` with default flags, checks the top-100
# ranks against the in-memory reference, and refuses to report unless the
# graph really fits one partition (exit 2) — so the default, fully resident
# serial path is exercised end to end on every CI run. The pagerank-ooc run
# does the same for the streamed multi-partition path: same oracle, and it
# refuses to report unless the budget really yields >= 8 partitions. The
# traversal-ooc run checks BFS, SSSP and CC — broadcast and per-edge sends
# through the out-of-core path, with quiet partitions and adjacency blocks
# skipped — against its oracle. pipeline-cold is the only workload that
# writes checkpoints, which dirty slab write-back feeds, and serves a value
# from them.
cargo test --manifest-path benchmark/Cargo.toml --offline -q
bash benchmark/run.sh --workload ingest-text --seconds 1
bash benchmark/run.sh --workload pagerank-fit --seconds 1
bash benchmark/run.sh --workload pagerank-ooc --seconds 1
bash benchmark/run.sh --workload traversal-ooc --seconds 1
bash benchmark/run.sh --workload pipeline-cold --seconds 1
step_done

echo "CI gate passed."
