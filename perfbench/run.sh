#!/usr/bin/env bash
# Build the benchmark from source and run one workload.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result. The build lands in
# $CARGO_TARGET_DIR (default: .bench_build at the repository root).
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/Cargo.toml" ]]; then
    echo "run.sh: run from the repository root" >&2
    exit 2
fi
if [[ ! -d "$root/crates" ]]; then
    echo "run.sh: the repository's crates/ directory is missing; nothing to benchmark" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2

# Run metadata recorded with every result, so two results can be diffed.
# Outside a git checkout the commit is "none" and the source digest (a
# hash over every Rust source and manifest) identifies the tree instead.
PERFBENCH_RUSTC="$(rustc --version 2>/dev/null)" || PERFBENCH_RUSTC=unknown
PERFBENCH_COMMIT=none
if [[ -e "$root/.git" ]]; then
    PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null)" || PERFBENCH_COMMIT=none
fi
PERFBENCH_SOURCE_DIGEST="$(cd "$root" && find Cargo.toml Cargo.lock crates compat perfbench \
    -path perfbench/target -prune -o -type f \( -name '*.rs' -o -name '*.toml' -o -name '*.lock' \) -print \
    | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)" || PERFBENCH_SOURCE_DIGEST=unknown
export PERFBENCH_RUSTC PERFBENCH_COMMIT PERFBENCH_SOURCE_DIGEST

exec "$CARGO_TARGET_DIR/release/dvelm-perfbench" "$@"
