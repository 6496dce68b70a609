#!/usr/bin/env bash
# The repo benchmark: builds the release `hoyan` binary and the benchmark
# itself from source, then hands every argument to the benchmark binary.
#
#   benchmark/run.sh                      every workload, untraced + traced,
#                                         one line per metric, out/results.json
#   benchmark/run.sh --seed 7             the same on another seed
#   benchmark/run.sh repeat               two untraced sets, compared to the bounds
#   benchmark/run.sh --quick              small fixtures, a few seconds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run, as the driver invokes it
#                                         (BENCHMARK.json); last stdout line is
#                                         the result object
#
# Builds go to $CARGO_TARGET_DIR (default: benchmark/target); fixtures, traces
# and results go to benchmark/out/. Nothing outside the checkout is read or
# written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative $CARGO_TARGET_DIR is taken from the repository root, where the
# driver runs the command.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Both builds print to stderr only: stdout belongs to the benchmark.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin hoyan >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/hoyan-benchmark" --hoyan "$target/release/hoyan" --out "$here/out" "$@"
