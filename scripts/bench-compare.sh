#!/usr/bin/env bash
# Perf-trajectory gate: takes a fresh `BENCH_*.json` snapshot and compares
# it against the committed baseline in bench-trajectory/, failing on any
# regression beyond the noise thresholds (see crates/g10-bench/src/
# trajectory.rs for exactly what is gated and how strictly).
#
# Usage: scripts/bench-compare.sh
#
#   G10_BLESS=1 scripts/bench-compare.sh   # re-bless: copy the fresh
#                                          # snapshot over the baseline
#   G10_MAX_WALL_RATIO overrides the grid wall-time ceiling ratio.
#
# CI runs this in the bench-trajectory job on every push; the fresh
# snapshot and the grid's CSVs land in bench-out/ and are uploaded as
# workflow artifacts either way.
set -euo pipefail

cd "$(dirname "$0")/.."

BASELINE="bench-trajectory/BENCH_0.json"
OUT_DIR="${G10_BENCH_OUT:-bench-out}"

step() { printf '\n==> %s\n' "$*"; }

step "cargo build --release -p g10-bench"
cargo build --release -p g10-bench --bin experiments

step "taking a fresh snapshot into $OUT_DIR"
rm -rf "$OUT_DIR"
./target/release/experiments bench snapshot --out "$OUT_DIR"

FRESH="$(ls "$OUT_DIR"/BENCH_*.json | sort -V | tail -n 1)"

if [[ "${G10_BLESS:-0}" == "1" ]]; then
    step "blessing $FRESH as the new baseline $BASELINE"
    mkdir -p "$(dirname "$BASELINE")"
    cp "$FRESH" "$BASELINE"
    echo "baseline updated; commit $BASELINE to make it stick"
    exit 0
fi

test -s "$BASELINE" || {
    echo "error: no committed baseline at $BASELINE" >&2
    echo "hint: G10_BLESS=1 scripts/bench-compare.sh creates one" >&2
    exit 1
}

COMPARE_FLAGS=()
[[ -n "${G10_MAX_WALL_RATIO:-}" ]] &&
    COMPARE_FLAGS+=(--max-wall-ratio "$G10_MAX_WALL_RATIO")

step "comparing $FRESH against $BASELINE"
./target/release/experiments bench compare "$BASELINE" "$FRESH" \
    ${COMPARE_FLAGS[@]+"${COMPARE_FLAGS[@]}"}

printf '\nbench-compare: no regression.\n'
