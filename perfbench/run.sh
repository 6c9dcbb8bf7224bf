#!/usr/bin/env bash
# Builds the benchmark and the engine's shard-worker binary from source, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fresh_exact --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the benchmark's report goes to stdout, whose
# last line is the JSON result. Run it from the root of the repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
manifest=perfbench/Cargo.toml
target="${CARGO_TARGET_DIR:-perfbench/target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$manifest" 1>&2
cargo build --release --offline --quiet --manifest-path "$manifest" \
  -p cgselect-engine --bin cgselect-shard-worker 1>&2

# The SocketMp leg spawns this binary; the benchmark fails rather than skip
# the leg when it is missing.
export CGSELECT_WORKER_BIN="$target/release/cgselect-shard-worker"
# SocketMp puts its Unix sockets under the temporary directory. A relative
# one keeps them inside the checkout and their paths short (a socket path
# must fit in 108 bytes, however deep the checkout is).
mkdir -p .bench_tmp
export TMPDIR=.bench_tmp
exec "$target/release/cgselect-perfbench" "$@"
