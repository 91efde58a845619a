#!/usr/bin/env bash
# Full local verification, in order of increasing cost. CI's verify job
# runs exactly this; a clean exit here means the tree is mergeable.
# scripts/check.sh is the fast subset (fmt + clippy + tests).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TERM_COLOR=always
LOCKED=(--offline --locked)

# Every bench invocation goes through bench(): its output is teed to
# target/bench-logs/<bin>.log (uploaded by CI as an artifact) and its
# wall time printed, so a slow phase is attributable from the job
# summary alone. Each bench asserts its own invariants and exits
# non-zero when one fails; performance is measured by perf/, not here.
LOG_DIR=target/bench-logs
mkdir -p "$LOG_DIR"

bench() {
  local bin="$1"
  shift
  local t0 t1
  t0=$(date +%s)
  cargo run --release "${LOCKED[@]}" -p cats-bench --bin "$bin" -- "$@" \
    2>&1 | tee "$LOG_DIR/$bin.log"
  t1=$(date +%s)
  echo "verify: $bin wall time $((t1 - t0))s"
}

scripts/check.sh
cargo build --release "${LOCKED[@]}"
# Paper results must not move: Table I (seed expansion) and Table VI
# (D0 -> D1 transfer) print only what the trained models compute, so
# their stdout must equal the committed results/ byte for byte (also on
# one core). A speed-up that changes a trained model fails here.
for bin in exp_table1 exp_table6; do
  cargo run --release "${LOCKED[@]}" -p cats-bench --bin "$bin" >"$LOG_DIR/$bin.log"
  if ! cmp "$LOG_DIR/$bin.log" "results/$bin.txt"; then
    echo "verify: $bin output differs from results/$bin.txt" >&2
    exit 1
  fi
done
# A checkpoint store adds resumability, never a different model: train
# with and without one on a corpus below word2vec's sharding size
# (4,096 sentences; scale 0.002) and one above it (scale 0.03), and
# require byte-identical snapshots.
MODEL_DIR=target/verify-models
rm -rf "$MODEL_DIR"
mkdir -p "$MODEL_DIR"
cli() { cargo run --release "${LOCKED[@]}" -q -p cats-cli -- "$@"; }
for scale in 0.002 0.03; do
  data="$MODEL_DIR/labeled-$scale.jsonl"
  cli generate --scale "$scale" --seed 7 >"$data"
  cli train --input "$data" --model "$MODEL_DIR/plain-$scale.cats"
  cli train --input "$data" --model "$MODEL_DIR/store-$scale.cats" \
    --checkpoint-dir "$MODEL_DIR/checkpoints-$scale"
  if ! cmp "$MODEL_DIR/plain-$scale.cats" "$MODEL_DIR/store-$scale.cats"; then
    echo "verify: a checkpoint store changed the model at scale $scale" >&2
    exit 1
  fi
done
# perf/ is a package of its own (own Cargo.lock, built --locked): build
# it and run its self-tests, so a change to the API it uses or to a
# manifest it depends on fails here, not only in CI's perf job.
(cd perf && cargo build --release --offline --locked && cargo test --offline)
# Smoke-run the full-pipeline scaling sweep at a tiny scale; exercises
# every parallel stage end-to-end and writes the per-run profile
# PROFILE_scaling.json (rendered by `cats-cli metrics`).
bench exp_scaling --scale 0.002
# Serving benchmark: sustained load, hot-swap under load, overload
# probe; asserts zero drops and 429s (not broken sockets) under
# overload.
bench exp_serve --scale 0.01
# Robustness soak: deterministic chaos injection (slow-loris clients,
# torn snapshot rewrites under the hot-swap watcher, worker panics,
# kill/resume training, kill-and-restart from the last-good mirror);
# asserts the DESIGN.md §10 invariants (zero lost/torn responses,
# bounded respawns, bit-identical resume).
bench exp_soak --scale 0.004
# Sharded cluster: 4 shard child processes behind the consistent-hash
# router; asserts 1->4 shard scaling against a machine-aware floor,
# then SIGKILLs a shard mid-load and asserts ejection -> respawn ->
# re-admission and a rolling swap with zero lost responses and zero
# version-skewed merges.
bench exp_cluster --scale 0.004
# Streaming velocity lane (DESIGN.md §13): replays the platform as a
# temporal comment stream through the cats-stream sliding windows and
# asserts zero in-skew drops, a bit-identical verdict stream on a rerun,
# a bounded peak footprint on a 2x trace, the catch rate vs the batch
# oracle and the virtual-ms detection p95 ceiling.
bench exp_stream --scale 0.004
# Adversarial drift survival (DESIGN.md §15): sweeps the epoch-indexed
# drift process against a frozen and an adaptive lane and asserts that
# the monitor fires before the frozen lane decays, the closed
# label-lag -> retrain -> validate -> hot-swap loop recovers (margin and
# tail-F1 floor, at the default seed), a poisoned retrain is rejected,
# and drift-triggered rewrites hot-swap under live HTTP load with zero
# lost responses.
bench exp_drift --scale 0.004
