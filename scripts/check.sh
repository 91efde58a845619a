#!/usr/bin/env bash
# Fast gate: style, lints, and the test suite (which must leave its temp
# directory empty) — no release build, no benches. CI's quick job runs
# exactly this; see scripts/verify.sh for the full gate.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TERM_COLOR=always
# Every dependency resolves from this repository (see [patch.crates-io]
# in Cargo.toml), so the build never needs the network and the committed
# Cargo.lock must already be current.
LOCKED=(--offline --locked)

cargo fmt --all -- --check
cargo clippy --workspace --all-targets "${LOCKED[@]}" -- -D warnings
# The tests must clean up after themselves: they run against a fresh
# temp directory, and anything left in it fails the gate.
test_tmp=$(mktemp -d)
trap 'rm -rf "$test_tmp"' EXIT
TMPDIR="$test_tmp" cargo test -q --workspace "${LOCKED[@]}"
if [ -n "$(ls -A "$test_tmp")" ]; then
  echo "tests left files in their temp directory:" >&2
  ls -A "$test_tmp" >&2
  exit 1
fi
