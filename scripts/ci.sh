#!/usr/bin/env bash
# Local CI gate: formatting, lint hygiene, and the tier-1 test suite.
#
#   scripts/ci.sh
#
# Mirrors what the repository expects before a merge:
#   1. `cargo fmt --check`        — no unformatted code;
#   2. `cargo clippy` twice       — libraries *and binaries* with
#      `unwrap`/`expect` denied (fallible paths must return
#      `DeptreeError`, not abort), then every target (tests, examples,
#      benches) with `-D warnings`; both passes cover every workspace
#      member, the dev-only `deptree-reference` crate included;
#   3. tier-1: release build + the root test binaries, run twice — once
#      serial (DEPTREE_THREADS=1) and once on an 8-worker pool
#      (DEPTREE_THREADS=8) — so the thread-count-independence contract of
#      the parallel miners is exercised on every gate; then the serial
#      suite once more back-to-back, so a test that only passes on a
#      fresh process (ordering or leftover-state luck) is caught here
#      and not on a busy CI box;
#   4. examples — every program under `examples/` runs in release and
#      must exit 0 (two of them run OD discovery on the paper's r7);
#   5. pairwise_scaling --smoke (a `deptree-reference` bin) — tiny-size
#      run of the blocking/index benchmark that asserts indexed candidate
#      generation reproduces the reference pair scans exactly (MD
#      discovery, DC evidence, dedup);
#   6. columnar_scaling --smoke (a `deptree-reference` bin) + the
#      columnar_equivalence suite at DEPTREE_THREADS=1 and =8 — every
#      code-native kernel must equal its row-major reference in
#      `deptree-reference` on every attribute subset, every task must be
#      byte-identical across thread counts, and the interning CSV parse
#      must allocate less than a row-materializing one;
#   7. the end-to-end benchmark's own tests and its `run --smoke` — tiny
#      inputs through the real CLI and `deptree serve`, every output
#      checked (CLI ≡ library ≡ served bytes on generated tables);
#   8. serve_loadgen --smoke — boot the three-phase keep-alive benchmark
#      at a reduced size and require that connection reuse beats
#      close-per-request, the response cache actually hits, and a cached
#      replay is byte-identical to the reply that populated it;
#   9. serve smoke — boot `deptree serve` on an ephemeral port with two
#      datasets, round-trip `deptree query` calls (the `hotels` discover
#      reply must be byte-identical to the pre-columnar recorded
#      snapshot, and the discover reply of the adversarial `ledger`
#      table to the CLI profile recorded before FASTDC ran on its
#      pair-evidence kernel and bitset cover search; the detect reply
#      and the repaired CSV must be byte-identical to the local
#      `deptree detect` stdout and `deptree repair --out` file, and to
#      the snapshots recorded before detect and repair ran from
#      partitions), scrape /metrics and require every load-bearing
#      series (including the response-cache counters), SIGTERM it, and
#      require a graceful exit 0;
#  10. gateway smoke — boot `deptree gateway` with two workers holding
#      `hotels` whole, require its discover reply to be byte-identical
#      to the same recorded snapshot, `kill -9` the home worker of
#      `hotels` and require the very next discover to fail over to the
#      other holder with the same bytes before the supervisor's respawn,
#      require the supervision and proxy series in the aggregated
#      /metrics, then the respawn, then SIGTERM-drain the whole fleet to
#      exit 0;
#  11. rolling-restart smoke — boot a three-worker gateway, keep a
#      continuous `deptree query` loop running, trigger
#      `deptree query reload`, and require zero dropped requests while
#      every worker restarts exactly once;
#  12. dependency policy — `cargo tree -p deptree -e normal --offline`
#      must not list the dev-only `deptree-reference` crate: oracles and
#      baselines never ship.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --check

echo "== clippy (libraries + binaries; unwrap/expect denied) =="
cargo clippy --workspace --lib --bins --quiet -- \
    -D warnings \
    -D clippy::unwrap_used \
    -D clippy::expect_used

echo "== clippy (all targets) =="
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "== tier-1: build =="
cargo build --release --quiet

echo "== tier-1: tests (serial, DEPTREE_THREADS=1) =="
DEPTREE_THREADS=1 cargo test -q

echo "== tier-1: tests (parallel, DEPTREE_THREADS=8) =="
DEPTREE_THREADS=8 cargo test -q

echo "== tier-1: tests (repeat run, flake gate) =="
DEPTREE_THREADS=1 cargo test -q

echo "== examples (each runs to exit 0) =="
for example in examples/*.rs; do
    cargo run --release --quiet --example "$(basename "$example" .rs)" >/dev/null
done

echo "== pairwise_scaling smoke (indexed ≡ reference pair scans) =="
cargo run --release --quiet -p deptree-reference --bin pairwise_scaling -- --smoke

echo "== columnar_scaling smoke (columnar ≡ reference kernels, interned parse allocates less) =="
cargo run --release --quiet -p deptree-reference --bin columnar_scaling -- --smoke

echo "== columnar equivalence suite (serial + 8-thread pools) =="
DEPTREE_THREADS=1 cargo test -q --test columnar_equivalence
DEPTREE_THREADS=8 cargo test -q --test columnar_equivalence

echo "== benchmark tests + smoke run (CLI ≡ library ≡ served bytes) =="
cargo test -q --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- run --smoke

echo "== serve_loadgen smoke (keep-alive beats close, cache hits, byte-identical replay) =="
cargo run --release --quiet --bin serve_loadgen -- --smoke

echo "== serve smoke (boot, query round trip, drain to exit 0) =="
serve_log="$(mktemp)"
trap 'rm -f "$serve_log"' EXIT
target/release/deptree serve --data hotels=data/hotels.csv:t,t,t,n,n \
    --data ledger=tests/snapshots/ledger_adversarial.csv:c,c,c,n,n,n \
    --addr 127.0.0.1:0 >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$serve_log")"
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$serve_log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve never reported its address"; cat "$serve_log"; exit 1; }
target/release/deptree query datasets --addr "$addr"
# Detect and repair replies: CLI ≡ serve, and both byte-identical to the
# snapshots recorded before detection and repair ran from partitions.
detect_reply="$(target/release/deptree query detect --addr "$addr" --dataset hotels \
    --rule "address -> region")"
detect_cli="$(target/release/deptree detect data/hotels.csv --types t,t,t,n,n \
    --rule "address -> region")"
if ! diff <(printf '%s\n' "$detect_reply") <(printf '%s\n' "$detect_cli") ||
    ! diff <(printf '%s\n' "$detect_reply") tests/snapshots/detect_hotels_address_region.txt; then
    echo "detect reply drifted from the CLI or the recorded snapshot"
    exit 1
fi
repair_dir="$(mktemp -d)"
trap 'rm -f "$serve_log"; rm -rf "$repair_dir"' EXIT
target/release/deptree query repair --addr "$addr" --dataset hotels \
    --rule "address -> region" --out "$repair_dir/served.csv" >/dev/null
target/release/deptree repair data/hotels.csv --types t,t,t,n,n \
    --rule "address -> region" --out "$repair_dir/cli.csv" >/dev/null
if ! diff "$repair_dir/served.csv" "$repair_dir/cli.csv" ||
    ! diff "$repair_dir/served.csv" tests/snapshots/repair_hotels_address_region.csv; then
    echo "repaired CSV drifted from the CLI or the recorded snapshot"
    exit 1
fi
# A discover round trip moves the engine counters (TANE's partition
# reads and computations), so the scrape below checks real numbers, not
# zeros.
# Its reply is also the columnar regression gate: byte-identical to the
# reply recorded before the columnar relation core landed.
discover_reply="$(target/release/deptree query discover --addr "$addr" \
    --dataset hotels --max-lhs 2)"
if ! diff <(printf '%s\n' "$discover_reply") \
        tests/snapshots/discover_hotels_maxlhs2.txt; then
    echo "discover reply drifted from the pre-columnar snapshot"
    exit 1
fi
# FASTDC's gate: the served discover of the adversarial ledger table
# (empty cells, NaN, -0.0, 2 beside 2.0) is byte-identical to the CLI
# profile recorded before FASTDC ran on its pair-evidence kernel.
ledger_reply="$(target/release/deptree query discover --addr "$addr" \
    --dataset ledger --max-lhs 2)"
if ! diff <(printf '%s\n' "$ledger_reply") \
        tests/snapshots/profile_ledger_adversarial_maxlhs2.txt; then
    echo "ledger discover reply drifted from the recorded FASTDC snapshot"
    exit 1
fi

echo "== metrics scrape (required series present) =="
metrics="$(target/release/deptree query metrics --addr "$addr")"
for series in \
    'deptree_requests_total{route="/v1/discover",status="200"}' \
    deptree_shed_total \
    deptree_request_duration_seconds_bucket \
    deptree_inflight_requests \
    'deptree_dataset_bytes{dataset="hotels"}' \
    deptree_cache_hits_total \
    deptree_response_cache_hits_total \
    deptree_response_cache_misses_total \
    deptree_response_cache_evictions_total \
    deptree_partition_product_radix_total \
    deptree_partition_product_hash_total \
    deptree_pairgen_distinct_gram_hits_total; do
    if ! grep -qF "$series" <<<"$metrics"; then
        echo "missing required metrics series: $series"
        echo "$metrics"
        exit 1
    fi
done

kill -TERM "$serve_pid"
wait "$serve_pid"   # set -e: non-zero (ungraceful) drain fails the gate

echo "== gateway smoke (whole-dataset proxy, home worker kill → failover, respawn, drain) =="
gw_log="$(mktemp)"
trap 'rm -f "$serve_log" "$gw_log"; rm -rf "$repair_dir"' EXIT
# A wide respawn window, so the answer right after the kill is provably
# the work of failover to the other holder, not of the respawn.
target/release/deptree gateway --data hotels=data/hotels.csv:t,t,t,n,n \
    --workers 2 --respawn-base-ms 3000 \
    --addr 127.0.0.1:0 >"$gw_log" 2>&1 &
gw_pid=$!
gw_addr=""
for _ in $(seq 1 100); do
    gw_addr="$(sed -n 's/^listening on //p' "$gw_log")"
    [ -n "$gw_addr" ] && break
    kill -0 "$gw_pid" 2>/dev/null || { cat "$gw_log"; exit 1; }
    sleep 0.1
done
[ -n "$gw_addr" ] || { echo "gateway never reported its address"; cat "$gw_log"; exit 1; }
for _ in $(seq 1 100); do
    [ "$(grep -c ') up at ' "$gw_log")" -ge 2 ] && break
    sleep 0.1
done
[ "$(grep -c ') up at ' "$gw_log")" -ge 2 ] || {
    echo "gateway workers never came up"; cat "$gw_log"; exit 1; }

# The gateway's answer is the worker's, which is the CLI's: the same
# recorded snapshot the serve smoke checks.
gw_reply="$(target/release/deptree query discover --addr "$gw_addr" \
    --dataset hotels --max-lhs 2)"
if ! diff <(printf '%s\n' "$gw_reply") tests/snapshots/discover_hotels_maxlhs2.txt; then
    echo "gateway discover reply drifted from the recorded snapshot"
    exit 1
fi

# kill -9 the home worker of `hotels`: the very next discover must exit
# 0 with the same bytes, served by the other holder while the killed
# worker's restart counter still reads 0.
home="$(sed -n 's/^gateway: dataset `hotels` on worker(s) \([0-9]*\).*/\1/p' "$gw_log")"
[ -n "$home" ] || { echo "no home worker for hotels in gateway log"; cat "$gw_log"; exit 1; }
victim="$(sed -n "s/^gateway: worker $home (pid \([0-9]*\)) up at.*/\1/p" "$gw_log" | head -n 1)"
[ -n "$victim" ] || { echo "no worker $home pid in gateway log"; cat "$gw_log"; exit 1; }
kill -9 "$victim"
if ! failover_reply="$(target/release/deptree query discover --addr "$gw_addr" \
    --dataset hotels --max-lhs 2)"; then
    echo "discover failed right after the home worker was killed"; cat "$gw_log"; exit 1
fi
[ "$failover_reply" = "$gw_reply" ] || {
    echo "failover reply drifted from the healthy one:"
    diff <(printf '%s\n' "$gw_reply") <(printf '%s\n' "$failover_reply") || true
    exit 1; }
gw_metrics="$(target/release/deptree query metrics --addr "$gw_addr")"
grep -Fq "deptree_gateway_worker_restarts_total{worker=\"$home\"} 0" <<<"$gw_metrics" || {
    echo "the failover answer arrived only after the respawn"
    echo "$gw_metrics"; cat "$gw_log"; exit 1; }

echo "== gateway metrics scrape (supervision and proxy series present) =="
for series in \
    deptree_worker_slot_state \
    deptree_gateway_proxied_total \
    deptree_worker_force_kill_total; do
    if ! grep -qF "$series" <<<"$gw_metrics"; then
        echo "missing required gateway metrics series: $series"
        echo "$gw_metrics"
        exit 1
    fi
done

# The supervisor still respawns the killed worker, visible in the
# aggregated scrape.
restarted=""
for _ in $(seq 1 150); do
    if target/release/deptree query metrics --addr "$gw_addr" \
        | grep -Eq "deptree_gateway_worker_restarts_total\{worker=\"$home\"\} [1-9]"; then
        restarted=yes
        break
    fi
    sleep 0.2
done
[ -n "$restarted" ] || { echo "worker $home never respawned"; cat "$gw_log"; exit 1; }

kill -TERM "$gw_pid"
wait "$gw_pid"   # set -e: a fleet that does not drain to 0 fails the gate

echo "== gateway rolling-restart smoke (3 workers, zero dropped requests) =="
gw2_log="$(mktemp)"
reload_fail_log="$(mktemp)"
reload_keep="$(mktemp)"
trap 'rm -f "$serve_log" "$gw_log" "$gw2_log" "$reload_fail_log" "$reload_keep"; rm -rf "$repair_dir"' EXIT
target/release/deptree gateway --data hotels=data/hotels.csv:t,t,t,n,n \
    --workers 3 --addr 127.0.0.1:0 >"$gw2_log" 2>&1 &
gw2_pid=$!
gw2_addr=""
for _ in $(seq 1 100); do
    gw2_addr="$(sed -n 's/^listening on //p' "$gw2_log")"
    [ -n "$gw2_addr" ] && break
    kill -0 "$gw2_pid" 2>/dev/null || { cat "$gw2_log"; exit 1; }
    sleep 0.1
done
[ -n "$gw2_addr" ] || { echo "gateway never reported its address"; cat "$gw2_log"; exit 1; }
for _ in $(seq 1 100); do
    [ "$(grep -c ') up at ' "$gw2_log")" -ge 3 ] && break
    sleep 0.1
done
[ "$(grep -c ') up at ' "$gw2_log")" -ge 3 ] || {
    echo "gateway workers never came up"; cat "$gw2_log"; exit 1; }

# Continuous query pressure across the whole rolling restart. Every
# request must land a full exit-0 answer: a degraded partial (6) or a
# transport failure both count as dropped and fail the gate.
(
    while [ -f "$reload_keep" ]; do
        target/release/deptree query discover --addr "$gw2_addr" \
            --dataset hotels --max-lhs 2 >/dev/null 2>&1 \
            || echo "dropped request during rolling restart" >>"$reload_fail_log"
        sleep 0.05
    done
) &
reload_loop_pid=$!

target/release/deptree query reload --addr "$gw2_addr"
rolled=""
reload_metrics=""
for _ in $(seq 1 300); do
    reload_metrics="$(target/release/deptree query metrics --addr "$gw2_addr")"
    if grep -Fq 'deptree_gateway_worker_restarts_total{worker="0"} 1' <<<"$reload_metrics" \
        && grep -Fq 'deptree_gateway_worker_restarts_total{worker="1"} 1' <<<"$reload_metrics" \
        && grep -Fq 'deptree_gateway_worker_restarts_total{worker="2"} 1' <<<"$reload_metrics"; then
        rolled=yes
        break
    fi
    sleep 0.2
done
[ -n "$rolled" ] || {
    echo "rolling restart never cycled every worker"; echo "$reload_metrics"
    cat "$gw2_log"; exit 1; }
# Let the loop observe the settled fleet once more, then stop it.
sleep 0.5
rm -f "$reload_keep"
wait "$reload_loop_pid"
if [ -s "$reload_fail_log" ]; then
    echo "dropped requests during the rolling restart:"
    cat "$reload_fail_log"; cat "$gw2_log"; exit 1
fi
# Exactly once each — a second restart would mean a crash mid-reload.
reload_metrics="$(target/release/deptree query metrics --addr "$gw2_addr")"
for w in 0 1 2; do
    grep -Fq "deptree_gateway_worker_restarts_total{worker=\"$w\"} 1" <<<"$reload_metrics" || {
        echo "worker $w did not restart exactly once"; echo "$reload_metrics"; exit 1; }
done

kill -TERM "$gw2_pid"
wait "$gw2_pid"   # set -e: a fleet that does not drain to 0 fails the gate

echo "== dependency policy (shipped crates never depend on deptree-reference) =="
shipped_tree="$(cargo tree -p deptree -e normal --offline)"
if grep -qF deptree-reference <<<"$shipped_tree"; then
    echo "a shipped crate depends on the dev-only deptree-reference crate:"
    echo "$shipped_tree"
    exit 1
fi

echo "ci: all green"
