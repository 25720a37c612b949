#!/usr/bin/env bash
# Repo verification: the tier-1 build + full test suite (repeated with
# DMIS_KERNEL=naive for the conv reference backend), then an
# AddressSanitizer pass over the kernel-heavy suites (SGEMM/im2col, conv
# parity and gradchecks — where indexing bugs would scribble) and the
# knob parser (common_test, also run under UBSan), a
# ThreadSanitizer pass over the concurrency-heavy suites (raylite tasks/
# tune retries, comm collectives + async comm workers — repeated
# under DMIS_COMM_ALGO=tree and =hier so every schedule's rendezvous
# choreography is raced — the gradient bucketer and mirrored strategy,
# the fault injector, the telemetry registry/tracer, the segmentation
# server, and the chaos integration sweeps — including chaos_serve, the
# serving robustness gate, and chaos_grow, the elastic scale-up gate),
# where data races would live, plus an until-fail flake screen over the
# comm suites, a kill-and-restart sweep-resume smoke, then traced example
# smokes that
# check the telemetry exports are valid, non-empty JSON — including
# that the bucketed gradient sync genuinely overlaps allreduce with
# backward — and benchmark runs that regenerate BENCH_conv3d.json /
# BENCH_allreduce.json / BENCH_serve.json and assert the floors the
# optimization PRs promised (gemm vs naive conv; bucketed vs per-tensor
# gradient sync; serve worker-pool scaling and zero shed at nominal
# load).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

echo "== tier-1 again under the naive conv backend =="
DMIS_KERNEL=naive ./build/tests/nn_test --gtest_brief=1

echo "== flake screen: comm suites repeated until-fail 3x =="
# The collective schedules are lockstep thread choreography; a race or
# an order-dependent rendezvous tends to show up as a rare flake, not a
# deterministic failure. Repeat the comm-heavy suites until-fail.
(cd build && ctest --repeat until-fail:3 -j"${JOBS}" \
  -R '^(comm_test|chaos_dp_test|chaos_grow_test)\.' | tail -3)

echo "== asan: gemm/im2col + conv parity suites, knob parser =="
cmake -B build-asan -S . -DDMIS_SANITIZE=address >/dev/null
cmake --build build-asan -j"${JOBS}" --target tensor_test nn_test common_test
./build-asan/tests/tensor_test --gtest_filter='Shapes/*:Sgemm*:Geometries/*:Im2col*'
./build-asan/tests/common_test
for backend in gemm naive; do
  echo "-- asan: nn_test conv suites (DMIS_KERNEL=${backend})"
  DMIS_KERNEL="${backend}" ./build-asan/tests/nn_test \
    --gtest_filter='ConvParity*:Grid/*:Conv3d*:ConvTranspose3d*:Sweep/*'
done

echo "== tsan: raylite + comm + train + obs suites =="
cmake -B build-tsan -S . -DDMIS_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"${JOBS}" \
  --target raylite_test comm_test train_test common_test obs_test \
           serve_test chaos_test chaos_dp_test chaos_grow_test \
           chaos_serve_test
for t in raylite_test comm_test train_test common_test obs_test \
         serve_test chaos_test; do
  echo "-- tsan: ${t}"
  ./build-tsan/tests/"${t}"
done

echo "== tsan: comm + chaos_dp under the tree and hier algorithms =="
# DMIS_COMM_ALGO swaps the all-reduce schedule under every existing
# comm/chaos scenario (a set knob wins over GroupOptions, and each
# suite's references run under the same setting), so
# rank loss, timeouts and aborts are exercised under the tree and
# hierarchical schedules — race-free under TSan.
for algo_env in "DMIS_COMM_ALGO=tree" \
                "DMIS_COMM_ALGO=hier DMIS_COMM_RANKS_PER_NODE=2"; do
  for t in comm_test chaos_dp_test; do
    echo "-- tsan: ${t} under ${algo_env}"
    env ${algo_env} ./build-tsan/tests/"${t}" --gtest_brief=1
  done
done

echo "== tsan: gradient compression parity (fp16 / topk) =="
# DMIS_COMPRESS swaps the gradient-sync wire codec under the same
# scenarios: the fp16 wire and the top-k error-feedback path must keep
# every elastic-recovery gate green — including the exact-equivalence
# chaos tests, which only pass if an aborted step's residual mutations
# are rolled back before the retry — across the ring, tree and
# hierarchical schedules, race-free under TSan. comm_test rides along
# once per mode (codec kernels + env resolution under the override).
for compress_env in "DMIS_COMPRESS=fp16" \
                    "DMIS_COMPRESS=topk DMIS_TOPK_RATIO=0.25"; do
  echo "-- tsan: comm_test under ${compress_env}"
  env ${compress_env} ./build-tsan/tests/comm_test --gtest_brief=1
  for algo_env in "" "DMIS_COMM_ALGO=tree" \
                  "DMIS_COMM_ALGO=hier DMIS_COMM_RANKS_PER_NODE=2"; do
    echo "-- tsan: chaos_dp_test under ${compress_env} ${algo_env:-ring}"
    env ${compress_env} ${algo_env} ./build-tsan/tests/chaos_dp_test \
      --gtest_brief=1
  done
done

echo "== tsan chaos: elastic data-parallel recovery under rank loss =="
# The acceptance gate of the failure-semantics PR: a 4-rank mirrored run
# loses one rank mid-step (crashed and hung variants) and must either
# abort with a typed CommError within the deadline or shrink to the
# survivors, restore the step-consistent checkpoint, and match the
# fault-free smaller run — deadlock- and race-free under TSan.
./build-tsan/tests/chaos_dp_test

echo "== tsan chaos: elastic scale-up under kill + rejoin =="
# The acceptance gate of the elastic scale-up PR: a 4-rank mirrored run
# loses rank 3 mid-epoch with its rejoin pre-scheduled (the FaultInjector
# restart action), continues shrunk to 3, re-admits the rank at the next
# epoch boundary through the lease-based membership protocol, and must
# finish at world 4 matching the fault-free 4-rank run — across every
# all-reduce schedule and wire codec, including the kill-rejoin-kill
# double fault and the shape-mismatched joiner (typed rejection, no
# deadlock) — race-free under TSan. The join/admit/commit handshake is
# real cross-thread choreography (parked joiner agents vs the driver's
# epoch boundary), exactly where TSan earns its keep.
./build-tsan/tests/chaos_grow_test

echo "== tsan chaos: segmentation serving under crashes, hangs, delays =="
# The acceptance gate of the robust-serving PR: a 4-worker server is
# driven through a request mix while workers crash on pickup, one worker
# hangs (with auto-release) and inference stalls; every request must
# resolve to a result or a typed ServeError within its deadline, the
# survivors' masks must be bitwise identical to the fault-free run, and
# the server must keep serving once the faults stop — all TSan-clean.
./build-tsan/tests/chaos_serve_test

echo "== tsan chaos: flight recorder on an injected collective fault =="
# The acceptance gate of the observability PR: a rank hit by an injected
# comm.collective fault aborts the group, and the crash dump written to
# DMIS_FLIGHT_DIR must contain the failing collective's span and the
# per-rank health table with the dead rank — race-free under TSan.
./build-tsan/tests/obs_test --gtest_filter='FlightRecorder*'

cmake -B build-ubsan -S . -DDMIS_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"${JOBS}" \
  --target comm_test train_test common_test chaos_dp_test
for t in comm_test train_test common_test chaos_dp_test; do
  echo "-- ubsan: ${t}"
  ./build-ubsan/tests/"${t}"
done

echo "== telemetry: traced example smokes =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
DMIS_TRACE="${SMOKE_DIR}/tune_trace.json" \
  DMIS_METRICS="${SMOKE_DIR}/tune_metrics.jsonl" \
  ./build/examples/tune_search 2 >/dev/null
# A small bucket cap makes the smoke's toy model span several buckets,
# so allreduces genuinely launch mid-backward (the overlap assertion
# below); the default 1 MiB cap would fit the whole model in one.
DMIS_TRACE="${SMOKE_DIR}/dp_trace.json" \
  DMIS_BUCKET_BYTES=16384 \
  ./build/examples/data_parallel 2 >/dev/null
python3 - "${SMOKE_DIR}" <<'EOF'
import json, sys

smoke_dir = sys.argv[1]

def load_events(path):
    with open(path) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    assert events, f"{path}: trace has no events"
    return events

def span_names(path):
    events = load_events(path)
    return len(events), {e["name"] for e in events}

n_tune, tune = span_names(f"{smoke_dir}/tune_trace.json")
for required in ("tune.trial", "tune.queue_wait", "train.step",
                 "train.forward", "data.load"):
    assert required in tune, f"tune trace missing {required!r}: {sorted(tune)}"

dp_events = load_events(f"{smoke_dir}/dp_trace.json")
n_dp, dp = len(dp_events), {e["name"] for e in dp_events}
# The DP arm emits the same step-phase spans as the single-device
# Trainer: both run the shared loop and per-model step.
for required in ("comm.allreduce", "comm.allreduce.reduce_scatter",
                 "comm.allreduce.all_gather", "train.backward",
                 "train.grad_sync.overlap", "train.grad_sync.wait",
                 "train.epoch", "train.step", "train.forward", "train.loss",
                 "train.optim", "train.validate"):
    assert required in dp, f"dp trace missing {required!r}: {sorted(dp)}"

# The point of the bucketed path: gradient allreduce overlaps backward.
# (a) the bucketer's own overlap span must cover real time — the first
# bucket launched before backward finished;
overlaps = [e for e in dp_events if e["name"] == "train.grad_sync.overlap"]
assert any(e["dur"] > 0 for e in overlaps), \
    f"no overlap between allreduce launch and backward: {overlaps}"
# (b) some ring allreduce span must intersect a backward span in wall
# time (the rings run on comm workers while replicas back-propagate).
backwards = [(e["ts"], e["ts"] + e["dur"]) for e in dp_events
             if e["name"] == "train.backward"]
rings = [(e["ts"], e["ts"] + e["dur"]) for e in dp_events
         if e["name"] == "comm.allreduce"]
assert any(r0 < b1 and b0 < r1
           for (r0, r1) in rings for (b0, b1) in backwards), \
    "no comm.allreduce span overlaps any train.backward span"

with open(f"{smoke_dir}/tune_metrics.jsonl") as f:
    lines = [json.loads(line) for line in f if line.strip()]
assert lines, "metrics dump is empty"
counters = {m["name"]: m["value"] for m in lines if m["type"] == "counter"}
assert counters.get("tune.trials_completed", 0) > 0, counters

print(f"tune trace OK ({n_tune} events), dp trace OK ({n_dp} events), "
      f"metrics OK ({len(lines)} instruments)")
EOF

echo "== telemetry: live /metrics scrape during a tune sweep =="
# The observability PR's acceptance gate: a sweep runs with the embedded
# exporter up; a scraper polls /metrics and /healthz mid-run, validates
# the Prometheus exposition (TYPE lines, histogram bucket cumulativity,
# +Inf == _count), and the *last* scrape — taken in the DMIS_OBS_LINGER_MS
# window after all counters settled — must reconcile exactly with the
# tune.trials.* counters in the final JSONL dump. dmis_top must also be
# able to render a live table from the same endpoint.
OBS_PORT="$(( (RANDOM % 20000) + 20000 ))"
# DMIS_FLIGHT_DIR is armed through the environment on purpose: the env
# bootstrap at static-init time is a distinct code path from the
# configure() calls the unit tests use, and it once recursed into a
# still-initializing instance().
DMIS_OBS_PORT="${OBS_PORT}" DMIS_OBS_LINGER_MS=4000 \
  DMIS_METRICS="${SMOKE_DIR}/live_metrics.jsonl" \
  DMIS_FLIGHT_DIR="${SMOKE_DIR}/flight" \
  ./build/examples/tune_search 2 >/dev/null &
TUNE_PID=$!
for _ in $(seq 1 100); do  # wait for the exporter to come up
  if ./build/tools/dmis_top --port "${OBS_PORT}" --once >"${SMOKE_DIR}/top.txt" 2>/dev/null; then
    break
  fi
  sleep 0.1
done
grep -q "trials" "${SMOKE_DIR}/top.txt" \
  || { echo "dmis_top produced no live table"; cat "${SMOKE_DIR}/top.txt"; exit 1; }
kill -USR1 "${TUNE_PID}"  # on-demand flight dump from the live sweep
python3 - "${OBS_PORT}" "${SMOKE_DIR}" <<'EOF'
import json, sys, time, urllib.error, urllib.request

port, smoke_dir = sys.argv[1], sys.argv[2]
last_scrape = None
health_ok = False
deadline = time.time() + 180
while time.time() < deadline:
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=2) as r:
            last_scrape = r.read().decode()
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=2) as r:
            body = json.loads(r.read().decode())
            assert body["status"] in ("ok", "degraded"), body
            health_ok = True
    except (urllib.error.URLError, ConnectionError, OSError):
        if last_scrape is not None:
            break  # exporter gone after the linger window: run finished
    time.sleep(0.1)
else:
    sys.exit("tune_search did not finish within the scrape deadline")
assert last_scrape, "never managed to scrape /metrics"
assert health_ok, "never managed to scrape /healthz"
with open(f"{smoke_dir}/final_scrape.prom", "w") as f:
    f.write(last_scrape)

# Prometheus text-format validation on the final scrape.
families = {}
samples = []
for line in last_scrape.splitlines():
    if not line:
        continue
    if line.startswith("# TYPE "):
        _, _, fam, kind = line.split(" ")
        assert fam not in families, f"duplicate TYPE for {fam}"
        families[fam] = kind
        continue
    assert not line.startswith("#"), f"unexpected comment: {line}"
    name = line.split("{")[0].split(" ")[0]
    value = line.rsplit(" ", 1)[1]
    float(value.replace("+Inf", "inf"))  # every sample value parses
    samples.append((name, line))
assert families, "no TYPE lines in scrape"
for name, line in samples:
    base = name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in families:
            base = name[: -len(suffix)]
    assert base in families, f"sample without TYPE: {line}"

# Histogram conformance: buckets cumulative and +Inf == _count,
# per label set.
hist_fams = [f for f, kind in families.items() if kind == "histogram"]
assert hist_fams, "no histogram families in scrape"
for fam in hist_fams:
    series = {}
    counts = {}
    for name, line in samples:
        if name == f"{fam}_bucket":
            labels = line[line.index("{") + 1:line.rindex("}")]
            le = [kv for kv in labels.split(",") if kv.startswith('le="')][0]
            rank = ",".join(kv for kv in labels.split(",")
                            if not kv.startswith('le="'))
            series.setdefault(rank, []).append(
                (le[4:-1], int(line.rsplit(" ", 1)[1])))
        elif name == f"{fam}_count":
            rank = (line[line.index("{") + 1:line.rindex("}")]
                    if "{" in line.split(" ")[0] else "")
            counts[rank] = int(line.rsplit(" ", 1)[1])
    for rank, buckets in series.items():
        values = [v for _, v in buckets]  # rendered in ascending-le order
        assert values == sorted(values), f"{fam}{{{rank}}} not cumulative"
        assert buckets[-1][0] == "+Inf", f"{fam}{{{rank}}} missing +Inf"
        assert buckets[-1][1] == counts[rank], \
            f"{fam}{{{rank}}}: +Inf {buckets[-1][1]} != _count {counts[rank]}"

# Exact reconciliation: the live scrape's tune counters against the
# final JSONL dump (both written after the sweep settled).
scraped = {name: int(line.rsplit(" ", 1)[1]) for name, line in samples
           if name.startswith("dmis_tune_")}
with open(f"{smoke_dir}/live_metrics.jsonl") as f:
    dumped = {m["name"]: m["value"] for m in map(json.loads, f)
              if m["type"] == "counter" and m["name"].startswith("tune.")}
assert dumped, "JSONL dump has no tune counters"
for name, value in dumped.items():
    prom = "dmis_" + name.replace(".", "_")
    assert prom in scraped, f"scrape missing {prom}"
    assert scraped[prom] == value, \
        f"{prom}: scrape {scraped[prom]} != JSONL {value}"
completed = dumped.get("tune.trials_completed", 0)
assert completed == 6, \
    f"tune_search runs a 3x2 grid; completed {completed} trials"

print(f"live scrape OK ({len(samples)} samples, {len(families)} families, "
      f"{len(hist_fams)} histograms conformant, "
      f"{len(dumped)} tune counters reconciled, {completed} trials)")
EOF
wait "${TUNE_PID}"
grep -q '"trigger":"signal.SIGUSR1"' "${SMOKE_DIR}"/flight/flight_*.json \
  || { echo "SIGUSR1 produced no flight dump"; ls -l "${SMOKE_DIR}/flight" || true; exit 1; }

echo "== sweep resume: kill mid-sweep, restart, same best trial =="
# The sweep-ledger gate: a 6-trial sweep is killed (rc 42) once 3 trials
# have reached the durable ledger; the restarted sweep must adopt every
# ledgered trial without re-running it (>= 3 — the fast sequential
# trials can land one more line in the instant between the ledger poll
# and the _exit), finish the rest, and land on the same best trial and
# metric as an uninterrupted sweep over the same grid.
SWEEP_DIR="${SMOKE_DIR}/sweep_resume"
rc=0
./build/examples/sweep_resume "${SWEEP_DIR}" 3 >/dev/null || rc=$?
[ "${rc}" -eq 42 ] || { echo "first run: expected crash rc 42, got ${rc}"; exit 1; }
resumed="$(./build/examples/sweep_resume "${SWEEP_DIR}" | tail -1)"
uninterrupted="$(./build/examples/sweep_resume "${SWEEP_DIR}_ref" | tail -1)"
echo "resumed:       ${resumed}"
echo "uninterrupted: ${uninterrupted}"
adopted="$(printf '%s\n' "${resumed}" | sed 's/.*adopted=\([0-9]*\).*/\1/')"
[ "${adopted:-0}" -ge 3 ] \
  || { echo "restart adopted only ${adopted} of the >= 3 ledgered trials"; exit 1; }
# Same completed count, best trial and best metric as the clean run
# (the adopted= field legitimately differs: >= 3 vs 0).
strip_adopted() { printf '%s\n' "$1" | sed 's/adopted=[0-9]* //'; }
[ "$(strip_adopted "${resumed}")" = "$(strip_adopted "${uninterrupted}")" ] \
  || { echo "resumed sweep diverged from the uninterrupted run"; exit 1; }

echo "== bench: conv kernels, gemm vs naive =="
./build/bench/bench_conv3d --benchmark_filter='Conv' \
  --benchmark_min_time=0.1 \
  --benchmark_out=BENCH_conv3d.json --benchmark_out_format=json \
  >/dev/null
python3 - BENCH_conv3d.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    bench = json.load(f)
times = {b["name"]: b["real_time"] for b in bench["benchmarks"]}

# Benchmark names are <case>/<channels>/<backend> with backend 0=naive,
# 1=gemm. The gemm path must hold a conservative floor of its measured
# (5-30x) advantage; 3x catches a real regression without flaking.
checked = 0
for name, naive in sorted(times.items()):
    if not name.endswith("/0"):
        continue
    gemm = times[name[:-2] + "/1"]
    ratio = naive / gemm
    status = "OK" if ratio >= 3.0 else "TOO SLOW"
    print(f"{name[:-2]}: naive {naive:.3f}ms / gemm {gemm:.3f}ms "
          f"= {ratio:.1f}x [{status}]")
    assert ratio >= 3.0, f"{name[:-2]}: gemm only {ratio:.1f}x vs naive"
    checked += 1
assert checked >= 8, f"expected >= 8 naive/gemm pairs, saw {checked}"
print(f"conv bench OK ({checked} pairs, gemm >= 3x naive on all)")
EOF

echo "== bench: gradient sync + collective algorithms =="
# Nine randomly interleaved repetitions, median-of-reps in the parser:
# the auto-vs-best-fixed gate below compares nearly identical workloads
# on a timesliced single-core host whose per-rep times scatter with
# scheduler noise in both directions (a whole repetition can run 20%
# fast or slow), so a mean, a minimum, or few repetitions all flake;
# interleaving spreads every benchmark's repetitions across the whole
# run and the median is robust to wild single repetitions.
./build/bench/bench_allreduce \
  --benchmark_filter='GradSync|RingAllreduce|NaiveReduceBroadcast|AllReduceAlgo' \
  --benchmark_min_time=0.1 \
  --benchmark_repetitions=9 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_out=BENCH_allreduce.json --benchmark_out_format=json \
  >/dev/null
python3 - BENCH_allreduce.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    bench = json.load(f)
reps = {}
wire = {}
for b in bench["benchmarks"]:
    if b.get("run_type") != "aggregate":
        reps.setdefault(b["name"], []).append(b["real_time"])
        if "wire_reduction" in b:
            wire.setdefault(b["name"], []).append(b["wire_reduction"])
times = {name: sorted(values)[len(values) // 2]
         for name, values in reps.items()}
wire = {name: sorted(values)[len(values) // 2]
        for name, values in wire.items()}

# The bucketed overlapped gradient sync must beat the legacy blocking
# per-tensor path by >= 1.5x on the U-Net gradient payload (measured
# 1.7-2.4x; the floor catches a real regression without flaking).
for ranks in (2, 4):
    per_tensor = times[f"BM_GradSyncPerTensor/{ranks}"]
    bucketed = times[f"BM_GradSyncBucketed/{ranks}"]
    ratio = per_tensor / bucketed
    status = "OK" if ratio >= 1.5 else "TOO SLOW"
    print(f"ranks={ranks}: per-tensor {per_tensor:.3f}ms / bucketed "
          f"{bucketed:.3f}ms = {ratio:.2f}x [{status}]")
    assert ratio >= 1.5, \
        f"ranks={ranks}: bucketed only {ratio:.2f}x vs per-tensor"
print("gradient sync bench OK (bucketed >= 1.5x per-tensor at 2 and 4 ranks)")

# The tuner gate: `auto` (algorithm 3) must land within 15% of the
# best fixed algorithm at every measured payload. A genuinely wrong
# pick costs >= 25% here (hier anywhere, ring-vs-tree at small sizes;
# where ring and tree are within noise of each other, either pick is
# right), while medians of *identical* schedules still wander ~10% on
# this single-core host — 15% separates mispick from measurement. The
# committed BENCH_allreduce.json additionally demonstrates auto within
# 5% of best on a representative quiet run.
algos = {0: "ring", 1: "tree", 2: "hier", 3: "auto"}
for payload in (1 << 12, 1 << 16, 1 << 20):
    fixed = {algos[a]:
             times[f"BM_AllReduceAlgo/{a}/{payload}/real_time/threads:4"]
             for a in (0, 1, 2)}
    auto = times[f"BM_AllReduceAlgo/3/{payload}/real_time/threads:4"]
    best_name = min(fixed, key=fixed.get)
    best = fixed[best_name]
    ratio = auto / best
    status = "OK" if ratio <= 1.15 else "TOO SLOW"
    detail = " ".join(f"{n} {t:.3f}ms" for n, t in fixed.items())
    print(f"payload={payload}: {detail} | auto {auto:.3f}ms = "
          f"{ratio:.3f}x of best ({best_name}) [{status}]")
    assert ratio <= 1.15, \
        f"payload={payload}: auto {ratio:.3f}x of best fixed ({best_name})"
print("collective algorithm bench OK (auto within 15% of best at all sizes)")

# The compression gate: on the packed-bucket gradient payload (many
# 32 KiB tensors, 4 ranks) the fp16 wire must (a) measurably halve the
# bytes peers pull off each rank's registered buffer — wire_reduction
# is computed from the comm.allreduce_bytes delta, floor 1.8x against
# an exact 2x — and (b) be no slower end-to-end than the uncompressed
# path (measured ~1.4x faster: the codec rides the pack/unpack passes
# the bucketed path already pays while the collective moves half the
# bytes; 1.0 is a regression floor, not the expectation). Top-k is
# reported but not floor-gated on time: its win is bytes, not latency,
# at these payloads.
for payload in (1 << 18, 1 << 20):  # floats/rank: 1 MiB and 4 MiB
    none_t = times[f"BM_GradSyncCompress/0/{payload}"]
    fp16_t = times[f"BM_GradSyncCompress/1/{payload}"]
    fp16_w = wire[f"BM_GradSyncCompress/1/{payload}"]
    topk_w = wire[f"BM_GradSyncCompress/2/{payload}"]
    speed = none_t / fp16_t
    status = "OK" if fp16_w >= 1.8 and speed >= 1.0 else "FAIL"
    print(f"payload={payload}: none {none_t:.3f}ms fp16 {fp16_t:.3f}ms "
          f"({speed:.2f}x) wire fp16 {fp16_w:.2f}x topk {topk_w:.2f}x "
          f"[{status}]")
    assert fp16_w >= 1.8, \
        f"payload={payload}: fp16 wire reduction only {fp16_w:.2f}x"
    assert speed >= 1.0, \
        f"payload={payload}: fp16 sync {speed:.2f}x of uncompressed"
print("compression bench OK (fp16 >= 1.8x fewer wire bytes, not slower)")
EOF

echo "== bench: serving throughput across worker-pool sizes =="
./build/bench/bench_serve \
  --benchmark_min_time=0.2 \
  --benchmark_out=BENCH_serve.json --benchmark_out_format=json \
  >/dev/null
CORES="$(nproc)" python3 - BENCH_serve.json <<'EOF'
import json, os, sys

with open(sys.argv[1]) as f:
    bench = json.load(f)
by_name = {b["name"]: b for b in bench["benchmarks"]}

def row(workers):
    return by_name[f"BM_ServeThroughput/{workers}/real_time"]

# Nominal load (queue sized for the whole batch, no deadlines) must
# never shed: shedding here means admission control is broken.
for workers in (1, 2, 4):
    shed = row(workers)["shed"]
    assert shed == 0, f"{workers}-worker nominal load shed {shed} requests"

# Worker-pool scaling floor for 4 workers vs 1. The 2.5x SLO assumes
# >= 4 real cores; on the smaller CI hosts the pool cannot scale past
# the core count, so the floor degrades to "does not collapse":
#   >= 4 cores: 2.5x    2-3 cores: 1.3x    1 core: 0.7x
cores = int(os.environ.get("CORES", "1"))
floor = 2.5 if cores >= 4 else (1.3 if cores >= 2 else 0.7)
one = row(1)["items_per_second"]
four = row(4)["items_per_second"]
ratio = four / one
status = "OK" if ratio >= floor else "TOO SLOW"
print(f"serve throughput: 1w {one:.0f}/s, 4w {four:.0f}/s = {ratio:.2f}x "
      f"(floor {floor}x on {cores} cores) [{status}]")
assert ratio >= floor, \
    f"4-worker throughput only {ratio:.2f}x of 1-worker (floor {floor}x)"
for workers in (1, 2, 4):
    r = row(workers)
    print(f"  {workers}w: {r['items_per_second']:.0f} vol/s, "
          f"p50 {r['p50_ms']:.2f}ms, p99 {r['p99_ms']:.2f}ms")
print("serve bench OK (zero shed at nominal load, scaling floor held)")
EOF

echo "verify OK"
