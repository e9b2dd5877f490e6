#!/usr/bin/env bash
# The one command: builds sysbench (offline, release) and runs it.
#
#   sysbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   sysbench/run.sh [--workload all] [--trace 1] [--smoke]    # the suite
#   sysbench/run.sh compare a.json b.json
#
# Run from anywhere; everything it writes stays under the build's target
# directory (CARGO_TARGET_DIR, or sysbench/target).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
case "${CARGO_TARGET_DIR:-}" in
  "") target="$here/target" ;;
  /*) target="$CARGO_TARGET_DIR" ;;
  # Cargo resolves a relative CARGO_TARGET_DIR against the directory it
  # is started in; pin it so the binary is where we look for it.
  *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR="$target"

# The layer crates live beside this directory. Without them there is
# nothing to measure: fail before printing anything.
if [ ! -f "$root/crates/server/Cargo.toml" ]; then
  echo "sysbench: $root/crates is missing; run from a checkout of the repository" >&2
  exit 3
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

if [ "${1:-}" = "compare" ]; then
  exec "$target/release/sysbench" "$@"
fi
mkdir -p "$target/sysbench-tmp"
exec "$target/release/sysbench" --tmp-root "$target/sysbench-tmp" "$@"
