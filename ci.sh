#!/usr/bin/env bash
# Offline CI gate: build, test, lint. Run from the repo root.
#
# The workspace builds fully offline (path-shimmed deps under shims/), so
# --offline both documents and enforces that no network fetch is needed.
# Each step prints its wall time; an analyzer-gate failure tails the
# findings JSON so the log alone names every violation.
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

# Run graphz-check with --json OUT; on failure, tail the findings
# document before propagating the exit code.
analyzer() {
    local out=$1
    if ! cargo run --offline -q -p graphz-check --bin graphz-check -- --json "$out"; then
        echo "-- graphz-check failed; tail of $out:" >&2
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

step "run memory bound (ROADMAP item 3)"
# Also part of the test step above; run alone so the log names it.
# crates/cli/tests/run_memory.rs runs `graphz run pr` and `run cc` at
# --budget-mib 1 on a scale-20 graph of 100k edges and holds the process's
# VmHWM to the fixed overhead + the budget + the run phase's own buffers
# (+ CC's 8-byte-per-vertex component table): the `--top` listing streams,
# so no per-vertex copy of the result counts against it.
# crates/cli/tests/resident_memory.rs (its own binary: VmHWM is per
# process) runs `graphz run pr` on a scale-17 graph that plans
# `slab+adjacency` and holds VmHWM to the overhead + one slab + one
# adjacency + a 768 KiB allowance, and its `io:` line to `0 written`. The engine test
# pins the MsgManager's share: a pass that defers far more messages than
# the cap never holds more than cap + 1 of them in memory (DESIGN.md §6d).
cargo test -q --offline -p graphz-cli --test run_memory
cargo test -q --offline -p graphz-cli --test resident_memory
cargo test -q --offline -p graphz-core --lib in_memory_messages_never_exceed_the_cap_plus_one
step_done

step "examples (release)"
# Every repo example runs to completion, not just compiles. checkpointing
# asserts that a run resumed through Engine::checkpoint/restore is
# bit-identical to the uninterrupted one: the partition pass and the
# checkpoint staging end to end.
for example in checkpointing quickstart dos_walkthrough web_ranking social_reachability; do
    cargo run --release --offline -q -p graphz-bench --example "$example" > /dev/null
done
step_done

step "paper claims (Fig. 9 bytes, Fig. 7 order, the repro binary)"
# Also part of the test step above; run alone so the log names it.
# tests/bytes_moved.rs runs PR, BFS and CC out of core (GraphZ at four
# partitions) and holds GraphZ's bytes read + written to at most half of
# GraphChi's and of X-Stream's, and to the Fig. 7 order GraphZ <= w/o DOS
# <= w/o DOS and DM. Then the `repro` binary: the two LOC tables, which
# generate no graph, and an unknown report name, which must exit 2.
cargo test -q --offline -p graphz-bench --test bytes_moved
./target/release/repro table01_loc table09_loc_engines > /dev/null
repro_status=0
./target/release/repro no-such-table 2> /dev/null || repro_status=$?
if [ "$repro_status" -ne 2 ]; then
    echo "-- repro no-such-table exited $repro_status, expected 2" >&2
    exit 1
fi
step_done

step "ingest equivalence (any budget, any relabel path, any resume point: same bytes)"
# Part of the tier-1 gate. tests/ingest_equivalence.rs converts each
# fixture under three budget arms: one where every sort is one in-memory run
# and the id map fits (the reference), one where the map still fits but
# the source runs spill, and one so small that every sort spills and
# pre-merges and the map does not fit, so the sorted relabel path runs.
# All three must produce byte-identical DOS directories, and a run killed
# at any stage commit on any arm must resume to the same bytes (DESIGN.md
# §6g, §6h). The golden image pins those bytes across versions: a convert
# change that moves any image byte fails here, naming the file. The smoke
# below does the same across the two relabel paths at real scale: a
# scale-19 graph's id map (2 MiB) fits half the default 8 MiB budget but
# not half of 1 MiB. The map-fits path writes each list at its Eq. 1
# offset, weights.bin too, so the pair runs with and without --weighted.
cargo test -q --offline -p graphz-bench --test ingest_equivalence
cargo test -q --offline -p graphz-storage --test golden_image
cross_path=$(mktemp -d)
./target/release/graphz generate "$cross_path/g.bin" --scale 19 --edges 300000
for weighted in "" --weighted; do
    ./target/release/graphz convert "$cross_path/g.bin" "$cross_path/map-fits" $weighted
    ./target/release/graphz convert "$cross_path/g.bin" "$cross_path/sorted" --budget-mib 1 $weighted
    diff -r "$cross_path/map-fits" "$cross_path/sorted"
    ./target/release/graphz verify "$cross_path/map-fits"
    ./target/release/graphz verify "$cross_path/sorted"
    rm -rf "$cross_path/map-fits" "$cross_path/sorted"
done
rm -rf "$cross_path"
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

step "checkpoint chaos + retention (DESIGN.md §6c)"
# A crash planted at every gated op of a checkpointing run — teed vertex
# frame writes, spill frames, the staged manifest write, the commit, and the
# retention that retires generations older than the newest two — must
# resume to the uninterrupted run's exact values. The sweep's op count is
# pinned at 94 in tests/chaos_checkpoint.rs, as the ingest step pins
# chaos_ingest.json: checkpoints gate through the same FaultSurface, whose
# io-level tests (the `fault` and `atomic` modules) run first. Label probes
# show the manifest and retention ops are in the swept range. Then all six
# algorithms resume from an intermediate generation, and a run keeps exactly
# its newest two generations, the older a usable fallback. The serve
# snapshot tests are the other reader of a generation manifest: a pin reads
# the manifest and each listed file once, and damage (a flipped frame, a
# valid frame of other bytes, a malformed `file:` entry) falls back one
# generation. Commits run on a commit thread behind the next iteration:
# label_probes_fire_at_commit_thread_ops fails its fsync, rename, fsync-dir
# and retire-remove ops (the run returns the error, nothing later is
# staged, resume is exact), a_failing_run_joins_the_commit_in_flight shows
# an error return joins it, and the unit test and the CLI test below check
# the handle's join rules and the `--verbose` checkpoint line.
cargo test -q --offline -p graphz-io --lib -- fault atomic
cargo test -q --offline -p graphz-bench --test chaos_checkpoint --test checkpoint_algos
cargo test -q --offline -p graphz-core --lib in_flight_commit_lands_by_drop_and_wait_returns_its_error
cargo test -q --offline -p graphz-cli --lib verbose_checkpoint_line_only_with_a_checkpoint_dir
cargo test -q --offline -p graphz-serve --lib snapshot
step_done

step "clippy (warnings are errors)"
cargo clippy --offline --all-targets -- -D warnings
step_done

step "rustdoc (warnings are errors)"
# Broken and private intra-doc links, and redundant link targets, fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
step_done

step "static analysis (lint, audit, flow, ipa, stale-suppression; DESIGN.md §6e/§6f/§6j/§6k)"
# One pass over the tree, crates/check included: the repo invariants, token
# dataflow, per-function CFG paths (path-complete must-consume, determinism
# taint) and call chains (the Worker hot path stays allocation-, lock- and
# IO-free, the compute phase panic-free, every file-creating sink
# fault-gated on all call paths, fs errors carry .ctx where they leave a
# crate or a storage root). One findings document, clean or not.
analyzer analysis_findings.json
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
