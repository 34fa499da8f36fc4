#!/usr/bin/env bash
# Repository gate: formatting, lints and the full test suite.
#
#   scripts/check.sh            run everything
#   scripts/check.sh --fast     skip the test suite (fmt, clippy and rustdoc only)
#
# The build is fully offline: every third-party dependency is vendored
# under vendor/ (see Cargo.toml), so no registry access is needed.

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
    --fast) fast=1 ;;
    *)
        echo "usage: scripts/check.sh [--fast]" >&2
        exit 2
        ;;
    esac
done

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings are errors, so no intra-doc link dangles) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

if [ "$fast" -eq 0 ]; then
    echo "== cargo test =="
    cargo test --offline --workspace -q

    # The test always compares widths 2, 3 and 8 with 1; SCAP_THREADS
    # adds one more width to that list.
    echo "== determinism at a width outside the test's own list (SCAP_THREADS=5) =="
    SCAP_THREADS=5 cargo test --offline -q -p scap --test determinism

    echo "== scap lint (design-rule check, warnings are errors) =="
    cargo build --offline --release -q -p scap-cli
    ./target/release/scap lint --scale 0.005 --deny warn
    ./target/release/scap lint --scale 0.01 --format json --deny warn | python3 -m json.tool >/dev/null
    ./target/release/scap lint --scale 0.005 --only TIM --deny warn
    if ./target/release/scap lint --scale 0.005 --only ZZZ 2>/dev/null; then
        echo "expected --only with an unknown rule prefix to fail" >&2
        exit 1
    fi
    echo "lint clean at scales 0.005 and 0.01; JSON output parses; --only filter works."

    echo "== CLI usage errors (bad flow option, scale below the generator floor, bad budget, value flag without its value) =="
    for bad in "atpg --scale 0.004 --flow bogus" "generate --scale 0.0001" \
        "schedule --scale 0.004 --budget abc" "schedule --scale 0.004 --budget -1" \
        "generate --scale" "atpg --scale 0.004 --stil"; do
        code=0
        # shellcheck disable=SC2086  # word-split the argument list on purpose
        ./target/release/scap $bad >/dev/null 2>&1 || code=$?
        if [ "$code" -ne 2 ]; then
            echo "expected 'scap $bad' to exit 2, got $code" >&2
            exit 1
        fi
    done
    echo "bad --flow, sub-floor --scale, bad --budget and valueless --scale / --stil exit 2."

    echo "== sta smoke (derated slack analysis, sta.* counters engaged) =="
    sta_out=$(./target/release/scap sta --scale 0.004 --derate --metrics)
    for counter in sta.runs sta.derated_runs sta.endpoints; do
        val=$(printf '%s\n' "$sta_out" | awk -v c="$counter" '$1 == c { print $2 }')
        if [ -z "${val:-}" ] || [ "$val" -eq 0 ]; then
            echo "expected $counter > 0 in scap sta --metrics output" >&2
            exit 1
        fi
        echo "  $counter = $val"
    done
    derated_lines=$(printf '%s\n' "$sta_out" | grep -c "derated" || true)
    if [ "$derated_lines" -eq 0 ]; then
        echo "expected at least one derated-slack line in scap sta --derate output" >&2
        exit 1
    fi
    printf '%s\n' "$sta_out" | grep -q "fault risk tiers:" || {
        echo "expected a fault risk tier histogram in scap sta --derate output" >&2
        exit 1
    }
    echo "sta smoke passed."

    echo "== fault-sim kernel smoke (pruning/collapsing/sharding/block kernel engaged) =="
    prof=$(./target/release/scap profile --scale 0.004 --metrics)
    for counter in sim.faults_skipped_unobservable sim.faults_collapsed grade.fault_shards \
        sim.block_evals sim.patterns_per_block; do
        val=$(printf '%s\n' "$prof" | awk -v c="$counter" '$1 == c { print $2 }')
        if [ -z "${val:-}" ] || [ "$val" -eq 0 ]; then
            echo "expected $counter > 0 in scap profile --metrics output" >&2
            exit 1
        fi
        echo "  $counter = $val"
    done
    printf '%s\n' "$prof" | grep -q "block kernel utilization:" || {
        echo "expected a block kernel utilization line in scap profile --metrics output" >&2
        exit 1
    }
    echo "fault-sim kernel smoke passed."

    echo "== hybrid engine smoke (SAT settles PODEM aborts) =="
    hprof=$(./target/release/scap profile --scale 0.008 --flow conventional --engine hybrid --metrics)
    recl=$(printf '%s\n' "$hprof" | awk '$1 == "atpg.reclassified_untestable" { print $2 }')
    solves=$(printf '%s\n' "$hprof" | awk '$1 == "sat.solves" { print $2 }')
    if [ -z "${recl:-}" ] || [ "$recl" -eq 0 ]; then
        echo "expected >= 1 abort reclassified Untestable (atpg.reclassified_untestable) under --engine hybrid" >&2
        exit 1
    fi
    echo "  atpg.reclassified_untestable = $recl (sat.solves = ${solves:-0})"
    # Encoding strength: with complete gate clauses and D-chains the
    # solver settles a fault in a handful of conflicts. At two or more
    # threads sat.* also counts speculated solves the targeting loop
    # never used, so the counts vary from run to run; each of those is
    # the solve a serial run makes for its fault, so the bound holds.
    conflicts=$(printf '%s\n' "$hprof" | awk '$1 == "sat.conflicts" { print $2 }')
    if [ -z "${conflicts:-}" ] || [ -z "${solves:-}" ] || [ "$conflicts" -gt $((20 * solves)) ]; then
        echo "expected sat.conflicts (${conflicts:-missing}) <= 20 x sat.solves (${solves:-missing})" >&2
        exit 1
    fi
    echo "  sat.conflicts = $conflicts (<= 20 x sat.solves)"
    echo "hybrid engine smoke passed: aborts are proven untestable, not left hanging."

    echo "== scap serve smoke (ephemeral port, loadgen burst, clean drain) =="
    cargo build --offline --release -q -p scap-serve
    serve_log=$(mktemp)
    ./target/release/scap serve --addr 127.0.0.1:0 --workers 2 --queue-depth 8 \
        >"$serve_log" 2>&1 &
    serve_pid=$!
    trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_log"' EXIT
    serve_addr=""
    for _ in $(seq 1 100); do
        serve_addr=$(sed -n 's#^scap serve listening on http://##p' "$serve_log")
        [ -n "$serve_addr" ] && break
        sleep 0.1
    done
    [ -n "$serve_addr" ] || { echo "server never printed its address" >&2; cat "$serve_log" >&2; exit 1; }
    ./target/release/scap-loadgen --addr "$serve_addr" --path /healthz --concurrency 4 --requests 2
    ./target/release/scap-loadgen --addr "$serve_addr" --path /v1/design \
        --query "scale=0.004" --concurrency 4 --requests 2
    # A request line that is not UTF-8 and a scale below the generator's
    # floor are each a 400 and leave the server answering valid
    # requests; then strict-JSON validation of both inline and pooled
    # endpoint bodies.
    python3 - "$serve_addr" <<'PY'
import json, socket, sys, urllib.error, urllib.request
addr = sys.argv[1]
host, port = addr.rsplit(":", 1)
with socket.create_connection((host, int(port)), timeout=10) as s:
    s.sendall(b"GET /\xff HTTP/1.1\r\n\r\n")
    status = s.makefile("rb").readline()
assert status.startswith(b"HTTP/1.1 400"), f"non-UTF-8 request line answered {status!r}"
for _ in range(2):
    try:
        urllib.request.urlopen(f"http://{addr}/v1/design?scale=0.0001&deadline_ms=2000")
        raise SystemExit("scale=0.0001 must answer 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400, f"scale=0.0001 answered {e.code}, expected 400"
with urllib.request.urlopen(f"http://{addr}/v1/design?scale=0.004&deadline_ms=2000") as r:
    assert r.status == 200, r.status
for path in ("/healthz", "/metrics", "/v1/design?scale=0.004"):
    with urllib.request.urlopen(f"http://{addr}{path}") as r:
        json.loads(r.read())
req = urllib.request.Request(f"http://{addr}/v1/shutdown", data=b"", method="POST")
with urllib.request.urlopen(req) as r:
    assert json.loads(r.read())["shutting_down"] is True
PY
    wait "$serve_pid"   # graceful drain must exit 0
    trap - EXIT
    rm -f "$serve_log"
    echo "serve smoke passed: bursts answered, JSON strict, drained cleanly."

    echo "== scap cluster smoke (2 workers, SIGKILL mid-burst, aggregated metrics, clean drain) =="
    cluster_log=$(mktemp)
    ./target/release/scap cluster --port 0 --workers 2 --probe-ms 2000 \
        >"$cluster_log" 2>&1 &
    cluster_pid=$!
    trap 'kill "$cluster_pid" 2>/dev/null || true; rm -f "$cluster_log"' EXIT
    cluster_addr=""
    for _ in $(seq 1 100); do
        cluster_addr=$(sed -n 's#^scap cluster listening on http://\([^ ]*\).*#\1#p' "$cluster_log")
        [ -n "$cluster_addr" ] && break
        sleep 0.1
    done
    [ -n "$cluster_addr" ] || { echo "coordinator never printed its address" >&2; cat "$cluster_log" >&2; exit 1; }
    mapfile -t worker_pids < <(sed -n 's#^scap cluster worker [0-9]* pid \([0-9]*\) .*#\1#p' "$cluster_log")
    [ "${#worker_pids[@]}" -eq 2 ] || { echo "expected 2 worker pid lines" >&2; cat "$cluster_log" >&2; exit 1; }
    # Warm every shard, then SIGKILL one worker while a burst is in
    # flight: the coordinator must fail over and every client request
    # must still answer 200 (that's what --require-200 enforces).
    # 16 seeds so rendezvous routing spreads the key set over both
    # workers — killing either one cuts into the burst.
    ./target/release/scap-loadgen --addr "$cluster_addr" --method POST --path /v1/profile \
        --body "scale=0.004" --seeds 16 --concurrency 16 --requests 1 --require-200
    ./target/release/scap-loadgen --addr "$cluster_addr" --method POST --path /v1/profile \
        --body "scale=0.004" --seeds 16 --concurrency 4 --requests 200 --require-200 &
    burst_pid=$!
    sleep 0.15
    kill -9 "${worker_pids[0]}"
    wait "$burst_pid" || { echo "burst through the worker kill lost requests" >&2; cat "$cluster_log" >&2; exit 1; }
    # One more full rotation over every shard key: even if the big
    # burst finished before the kill landed, these requests must hit
    # the dead worker's range and fail over — the reroute counters
    # below are asserted deterministically, not on a race.
    ./target/release/scap-loadgen --addr "$cluster_addr" --method POST --path /v1/profile \
        --body "scale=0.004" --seeds 16 --concurrency 16 --requests 1 --require-200
    # The aggregated /metrics must be strict JSON, carry the fleet
    # object, and prove the failover path actually ran.
    python3 - "$cluster_addr" <<'PY'
import json, sys, urllib.request
addr = sys.argv[1]
with urllib.request.urlopen(f"http://{addr}/metrics") as r:
    doc = json.loads(r.read())
counters = doc["counters"]
assert counters["cluster.route.requests"] > 0, "no routed requests"
assert counters["cluster.failover.reroutes"] > 0, "the killed worker was never failed over"
assert counters["serve.requests"] > 0, "worker counters missing from the aggregate"
cluster = doc["cluster"]
assert cluster["workers_total"] == 2, cluster
assert len(cluster["per_worker"]) == 2, cluster
req = urllib.request.Request(f"http://{addr}/v1/shutdown", data=b"", method="POST")
with urllib.request.urlopen(req) as r:
    assert json.loads(r.read())["shutting_down"] is True
PY
    wait "$cluster_pid"   # fleet drain must exit 0
    trap - EXIT
    rm -f "$cluster_log"
    echo "cluster smoke passed: failover covered the kill, metrics aggregated, drained cleanly."

    echo "== BENCH_evaluation.json is strict JSON =="
    if [ -f BENCH_evaluation.json ]; then
        python3 - <<'PY'
import json
doc = json.load(open("BENCH_evaluation.json"))
stages = [s for s in doc["stages"] if "fault_sim_checks_per_sec" in s]
assert stages, "no stage carries fault_sim_checks_per_sec"
for s in stages:
    assert s["fault_sim_checks_per_sec"] > 0, f"zero throughput in {s['name']}"
totals = doc["totals"]
for c in ("sat.solves", "sat.conflicts", "atpg.reclassified_untestable",
          "sta.runs", "sta.derated_runs", "sta.screen.patterns", "sta.screen.invalidated",
          "cg.solves", "sim.event_runs", "sim.toggle_events"):
    assert totals.get(c, 0) > 0, f"expected {c} > 0 in totals"
by_name = {s["name"]: s for s in doc["stages"]}
# The stages account for the whole run: what no stage times (fleet
# boot and drain, printing) is at most 5 % of it.
stage_ms = sum(s["ms"] for s in doc["stages"])
assert stage_ms >= 0.95 * doc["total_ms"], \
    f"stages sum to {stage_ms:.0f} ms of {doc['total_ms']:.0f} ms total_ms (< 95 %)"
print(f"stages account for {100 * stage_ms / doc['total_ms']:.2f} % of total_ms")
# Each flow stage attributes its PODEM search time.
for name in ("flow_conventional", "flow_noise_aware"):
    spans = by_name[name]["spans"]
    assert spans.get("atpg.podem_primary", {}).get("count", 0) > 0, \
        f"{name} carries no atpg.podem_primary span"
# Both flows rerun at two threads (speculated primary searches) must
# equal the evaluation's runs. The speedup is reported, not gated.
scaling = by_name["thread_scaling"]["thread_scaling"]
assert scaling["identical"] is True, "thread_scaling: reruns differ from the flows"
for flow in ("conventional", "noise_aware"):
    f = scaling["flows"][flow]
    print(f"thread scaling {flow}: {f['base_ms']:.0f} ms -> {f['ms']:.0f} ms "
          f"at {scaling['threads']} threads ({f['speedup']:.2f}x)")
# The fleets buy crash isolation, not throughput: gate what the
# isolation costs against one process holding every key in cache.
FLOOR = 0.15
solo = by_name["serve_profile_1p"]["requests_per_sec"]
for w in (2, 4):
    rps = by_name[f"cluster_profile_{w}w"]["requests_per_sec"]
    assert rps >= FLOOR * solo, \
        f"{w}-worker fleet at {rps:.1f} req/s is below {FLOOR}x one process ({solo:.1f})"
    print(f"cluster {w}w: {rps:.1f} req/s = {rps / solo:.2f}x one process ({solo:.1f} req/s)")
PY
        echo "BENCH_evaluation.json parses; stages cover the run; fault-sim, SAT, STA, event-sim, grid-solve, span, thread-scaling and serving-tier numbers carried."
    else
        echo "BENCH_evaluation.json not present; skipping."
    fi
fi

echo "All checks passed."
