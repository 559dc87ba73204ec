#!/usr/bin/env bash
# Builds the release nvpg-serve daemon and the perfbench package from this
# checkout, then runs perfbench with the given arguments. Run it from the
# root of the checkout. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build) and to standard error.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path Cargo.toml -p nvpg-serve --bin nvpg-serve >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
