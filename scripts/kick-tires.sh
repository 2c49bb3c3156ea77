#!/usr/bin/env bash
# Kick-the-tires reproducibility gate (in the spirit of artifact-evaluation
# smoke scripts): builds the workspace, runs the quick-start example, and
# regenerates one small piece of the paper's evaluation end-to-end.
#
# Usage: scripts/kick-tires.sh [--release]
#
# Exits non-zero if any step fails.  CI runs this on every push; a fresh
# checkout plus `scripts/kick-tires.sh` is the fastest way to confirm the
# simulator works on your machine.
set -euo pipefail

cd "$(dirname "$0")/.."

PROFILE_FLAG="${1:---release}"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

step() { printf '\n==> %s\n' "$*"; }

step "cargo build --workspace $PROFILE_FLAG"
cargo build --workspace "$PROFILE_FLAG"

step "quickstart example"
cargo run "$PROFILE_FLAG" --example quickstart

step "tiny experiments run (table2 -> $OUT_DIR)"
cargo run "$PROFILE_FLAG" -p g10-bench --bin experiments -- table2 --out "$OUT_DIR"

step "verifying experiment output"
test -s "$OUT_DIR/table2.csv" || {
    echo "error: experiments did not write table2.csv" >&2
    exit 1
}
head -n 3 "$OUT_DIR/table2.csv"

# Persistent run cache: a cold pass populates the on-disk store, then a
# second, fresh process must serve every cell from disk — no replays —
# with byte-identical CSV output.
CACHE_DIR="$OUT_DIR/cache"
RUN_ARGS=(run --model tinycnn --batch 16 --policy base-uvm,deepum+,g10)

step "persistent cache: cold pass (populates $CACHE_DIR)"
cargo run "$PROFILE_FLAG" -p g10-bench --bin experiments -- \
    "${RUN_ARGS[@]}" --cache-dir "$CACHE_DIR" --out "$OUT_DIR/pass1" \
    | tee "$OUT_DIR/pass1.log"

step "persistent cache: warm pass (fresh process, same store)"
cargo run "$PROFILE_FLAG" -p g10-bench --bin experiments -- \
    "${RUN_ARGS[@]}" --cache-dir "$CACHE_DIR" --out "$OUT_DIR/pass2" \
    | tee "$OUT_DIR/pass2.log"

step "verifying disk-cache hits and byte-identical output"
grep -q 'simulation cells: 0 replayed' "$OUT_DIR/pass2.log" || {
    echo "error: warm pass replayed cells instead of hitting the store" >&2
    exit 1
}
grep 'simulation cells:' "$OUT_DIR/pass2.log" | grep -vq ' 0 disk hits' || {
    echo "error: warm pass reported zero disk hits" >&2
    exit 1
}
cmp "$OUT_DIR/pass1/run_TinyCNN_16.csv" "$OUT_DIR/pass2/run_TinyCNN_16.csv" || {
    echo "error: disk-served CSV differs from the replayed one" >&2
    exit 1
}

# Untrusted-policy hardening: bad inputs and faulting policies must fail
# with one-line typed errors and a clean nonzero exit — never a panic
# backtrace.  (`cargo run -q` keeps cargo's own output out of the log.)
step "hardening: unknown policy fails clean"
if cargo run "$PROFILE_FLAG" -q -p g10-bench --bin experiments -- \
    run --model tinycnn --policy no-such-design --no-cache --out "$OUT_DIR/hard" \
    >"$OUT_DIR/unknown.log" 2>&1; then
    echo "error: unknown --policy must exit non-zero" >&2
    exit 1
fi
grep -q 'unknown policy `no-such-design`' "$OUT_DIR/unknown.log" || {
    echo "error: unknown-policy failure must print the typed error" >&2
    cat "$OUT_DIR/unknown.log" >&2
    exit 1
}

step "hardening: injected policy fault fails clean"
if cargo run "$PROFILE_FLAG" -q -p g10-bench --bin experiments -- \
    run --model tinycnn --batch 16 --policy base-uvm --inject-fault 2:step-panic \
    --no-cache --out "$OUT_DIR/hard" >"$OUT_DIR/fault.log" 2>&1; then
    echo "error: injected fault must exit non-zero" >&2
    exit 1
fi
grep -q 'policy fault in `Base UVM` at step 2' "$OUT_DIR/fault.log" || {
    echo "error: injected fault must print the typed policy-fault error" >&2
    cat "$OUT_DIR/fault.log" >&2
    exit 1
}
if grep -qi 'stack backtrace\|panicked at' "$OUT_DIR/unknown.log" "$OUT_DIR/fault.log"; then
    echo "error: hardened failure paths must not print panic backtraces" >&2
    exit 1
fi

step "hardening: a bookkeeping fault kind is not injectable"
if cargo run "$PROFILE_FLAG" -q -p g10-bench --bin experiments -- \
    run --model tinycnn --batch 16 --policy base-uvm --inject-fault 2:ledger-corrupt \
    --no-cache --out "$OUT_DIR/hard" >"$OUT_DIR/retired.log" 2>&1; then
    echo "error: --inject-fault 2:ledger-corrupt must exit non-zero" >&2
    exit 1
fi
if [ "$(wc -l <"$OUT_DIR/retired.log")" -ne 1 ] ||
    ! grep -q -- '--inject-fault: unknown fault kind `ledger-corrupt`' "$OUT_DIR/retired.log" ||
    grep -qi 'stack backtrace\|panicked at' "$OUT_DIR/retired.log"; then
    echo "error: a retired fault kind must print one typed line" >&2
    cat "$OUT_DIR/retired.log" >&2
    exit 1
fi
for kind in build-panic step-panic tensor-out-of-range evict-non-resident prefetch-resident; do
    grep -q -- "$kind" "$OUT_DIR/retired.log" || {
        echo "error: the unknown-kind error must list $kind" >&2
        cat "$OUT_DIR/retired.log" >&2
        exit 1
    }
done

step "hardening: fallback degradation completes with the fault recorded"
cargo run "$PROFILE_FLAG" -q -p g10-bench --bin experiments -- \
    run --model tinycnn --batch 16 --policy deepum+ --inject-fault 2:step-panic \
    --on-fault base-uvm --no-cache --out "$OUT_DIR/hard" | tee "$OUT_DIR/fallback.log"
grep -q 'step-panic@2 in `DeepUM+`' "$OUT_DIR/fallback.log" || {
    echo "error: fallback run must record the quarantined fault" >&2
    exit 1
}

step "hardening: out-of-range --jobs quota fails clean"
if cargo run "$PROFILE_FLAG" -q -p g10-bench --bin experiments -- \
    multi --jobs tinycnn:32:1:0 --policy g10 --no-cache --out "$OUT_DIR/hard" \
    >"$OUT_DIR/quota.log" 2>&1; then
    echo "error: a 0 MiB --jobs quota must exit non-zero" >&2
    exit 1
fi
if [ "$(wc -l <"$OUT_DIR/quota.log")" -ne 1 ] ||
    ! grep -q 'quota_mib out of range' "$OUT_DIR/quota.log" ||
    grep -qi 'stack backtrace\|panicked at' "$OUT_DIR/quota.log"; then
    echo "error: a bad --jobs quota must print one typed line, as the daemon does" >&2
    cat "$OUT_DIR/quota.log" >&2
    exit 1
fi

step "hardening: a misspelled flag fails clean"
if cargo run "$PROFILE_FLAG" -q -p g10-bench --bin experiments -- \
    table2 --no-cahce --out "$OUT_DIR/hard" >"$OUT_DIR/flag.log" 2>&1; then
    echo "error: a misspelled flag must exit non-zero" >&2
    exit 1
fi
if [ "$(wc -l <"$OUT_DIR/flag.log")" -ne 1 ] ||
    ! grep -q 'unknown flag: --no-cahce' "$OUT_DIR/flag.log" ||
    grep -qi 'stack backtrace\|panicked at' "$OUT_DIR/flag.log"; then
    echo "error: a misspelled flag must print one typed line" >&2
    cat "$OUT_DIR/flag.log" >&2
    exit 1
fi

step "hardening: a flag the command does not read fails clean"
if cargo run "$PROFILE_FLAG" -q -p g10-bench --bin experiments -- \
    multi --deadline-ms 0 --inject-fault 0:build-panic --no-cache --out "$OUT_DIR/hard" \
    >"$OUT_DIR/unread.log" 2>&1; then
    echo "error: a flag the command does not read must exit non-zero" >&2
    exit 1
fi
if [ "$(wc -l <"$OUT_DIR/unread.log")" -ne 1 ] ||
    ! grep -q 'multi does not take --deadline-ms' "$OUT_DIR/unread.log" ||
    grep -qi 'stack backtrace\|panicked at' "$OUT_DIR/unread.log"; then
    echo "error: a flag the command does not read must print one typed line" >&2
    cat "$OUT_DIR/unread.log" >&2
    exit 1
fi

# Multi-tenant replay: a two-job mix sharing one simulated GPU must
# produce physical per-job slowdowns (>= 1.0) and byte-identical CSVs
# across two fresh processes — the tenant scheduler is deterministic.
MULTI_ARGS=(multi --jobs tinycnn:16:4:40,tinytransformer:16:1:8:20
    --policy base-uvm,tensile --gpu-mib 64 --no-cache)

step "multi-tenant: two-job mix (pass 1)"
cargo run "$PROFILE_FLAG" -q -p g10-bench --bin experiments -- \
    "${MULTI_ARGS[@]}" --out "$OUT_DIR/multi1" | tee "$OUT_DIR/multi1.log"

step "multi-tenant: two-job mix (pass 2, fresh process)"
cargo run "$PROFILE_FLAG" -q -p g10-bench --bin experiments -- \
    "${MULTI_ARGS[@]}" --out "$OUT_DIR/multi2" >/dev/null

step "multi-tenant: verifying determinism and physical slowdowns"
for csv in multi_throughput.csv multi_slowdown.csv; do
    test -s "$OUT_DIR/multi1/$csv" || {
        echo "error: experiments multi did not write $csv" >&2
        exit 1
    }
    cmp "$OUT_DIR/multi1/$csv" "$OUT_DIR/multi2/$csv" || {
        echo "error: $csv differs between two identical multi runs" >&2
        exit 1
    }
done
awk -F, 'NR > 1 && $10 + 0 < 1.0 {
    printf "error: job %s under %s has slowdown %s < 1.0\n", $2, $1, $10
    bad = 1
} END { exit bad }' "$OUT_DIR/multi1/multi_slowdown.csv" || {
    echo "error: multi-tenant slowdowns must stay >= 1.0" >&2
    exit 1
}

# Experiment service: start the daemon on an ephemeral port against the
# store the cache passes populated, and drive it through `experiments
# submit` — the same wire client the integration tests use.  A duplicate
# request must be a cache hit, a fault-injected request must fail typed
# while the daemon stays healthy, and shutdown must drain cleanly.
SERVE_LOG="$OUT_DIR/serve.log"
step "experiment service: starting daemon (ephemeral port)"
cargo run "$PROFILE_FLAG" -q -p g10-bench --bin experiments -- \
    serve --addr 127.0.0.1:0 --cache-dir "$CACHE_DIR" >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$OUT_DIR"' EXIT
for _ in $(seq 1 100); do
    grep -q 'listening on' "$SERVE_LOG" && break
    sleep 0.1
done
ADDR="$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$SERVE_LOG" | head -n 1)"
test -n "$ADDR" || {
    echo "error: daemon never printed its listening address" >&2
    cat "$SERVE_LOG" >&2
    exit 1
}
submit() {
    cargo run "$PROFILE_FLAG" -q -p g10-bench --bin experiments -- \
        submit --addr "$ADDR" "$@"
}

step "experiment service: /healthz"
# Capture-then-grep: `grep -q` closes the pipe as soon as it matches,
# which under `pipefail` would count the SIGPIPE'd client as a failure.
submit --health >"$OUT_DIR/health1.log"
grep -q '"status": "ok"' "$OUT_DIR/health1.log" || {
    echo "error: daemon failed its health probe" >&2
    exit 1
}

step "experiment service: duplicate request is a cache hit"
submit --model tinycnn --batch 16 --policy g10 | tee "$OUT_DIR/serve1.log"
submit --model tinycnn --batch 16 --policy g10 | tee "$OUT_DIR/serve2.log"
grep -Eq 'source=(memory|disk)' "$OUT_DIR/serve2.log" || {
    echo "error: repeated request must be served from a cache" >&2
    exit 1
}

step "experiment service: fault-injected request fails typed, daemon stays healthy"
if submit --model tinycnn --batch 16 --policy base-uvm --inject-fault 2:step-panic \
    >"$OUT_DIR/serve_fault.log" 2>&1; then
    echo "error: fault-injected submit must exit non-zero" >&2
    exit 1
fi
grep -q 'policy-fault (500): policy fault in `Base UVM` at step 2' "$OUT_DIR/serve_fault.log" || {
    echo "error: fault-injected submit must print the typed service error" >&2
    cat "$OUT_DIR/serve_fault.log" >&2
    exit 1
}
submit --health >"$OUT_DIR/health2.log"
grep -q '"status": "ok"' "$OUT_DIR/health2.log" || {
    echo "error: daemon must stay healthy after a contained policy fault" >&2
    exit 1
}

# A body of 65,000 `[` bytes fits under the body-size cap; a JSON parser
# without a nesting limit overflows its stack on it and kills the daemon.
# Sent as raw HTTP over bash's /dev/tcp, since it is not valid JSON.
step "experiment service: deeply nested body gets a typed 400, daemon stays healthy"
DEEP_BODY="$(printf '%65000s' '' | tr ' ' '[')"
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
printf 'POST /run HTTP/1.1\r\nhost: %s\r\ncontent-type: application/json\r\ncontent-length: %d\r\nconnection: close\r\n\r\n%s' \
    "$ADDR" "${#DEEP_BODY}" "$DEEP_BODY" >&3
cat <&3 >"$OUT_DIR/serve_deep.log"
exec 3<&-
head -n 1 "$OUT_DIR/serve_deep.log" | grep -q '^HTTP/1.1 400 ' || {
    echo "error: deeply nested body must get a 400" >&2
    head -c 400 "$OUT_DIR/serve_deep.log" >&2
    exit 1
}
grep -q '"kind": "bad-request"' "$OUT_DIR/serve_deep.log" || {
    echo "error: deeply nested body must get the typed bad-request error" >&2
    exit 1
}
submit --health >"$OUT_DIR/health3.log"
grep -q '"status": "ok"' "$OUT_DIR/health3.log" || {
    echo "error: daemon must stay healthy after a deeply nested body" >&2
    exit 1
}

step "experiment service: graceful shutdown"
submit --shutdown >/dev/null
if ! wait "$SERVE_PID"; then
    echo "error: daemon must drain and exit zero on shutdown" >&2
    cat "$SERVE_LOG" >&2
    exit 1
fi
grep -q 'drained and stopped' "$SERVE_LOG" || {
    echo "error: daemon log must record the completed drain" >&2
    cat "$SERVE_LOG" >&2
    exit 1
}

# SIGTERM takes the same drain path as POST /shutdown.  `cargo run` execs
# the daemon in its own place, so $SERVE_PID is the daemon itself.
SERVE_LOG="$OUT_DIR/serve_sigterm.log"
step "experiment service: SIGTERM drains and exits zero"
cargo run "$PROFILE_FLAG" -q -p g10-bench --bin experiments -- \
    serve --addr 127.0.0.1:0 --cache-dir "$CACHE_DIR" >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$SERVE_LOG" && break
    sleep 0.1
done
grep -q 'listening on' "$SERVE_LOG" || {
    echo "error: second daemon never printed its listening address" >&2
    cat "$SERVE_LOG" >&2
    exit 1
}
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "error: daemon must drain and exit zero on SIGTERM" >&2
    cat "$SERVE_LOG" >&2
    exit 1
fi
grep -q 'drained and stopped' "$SERVE_LOG" || {
    echo "error: daemon log must record the drain after SIGTERM" >&2
    cat "$SERVE_LOG" >&2
    exit 1
}
trap 'rm -rf "$OUT_DIR"' EXIT

printf '\nkick-tires: all steps passed.\n'
