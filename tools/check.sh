#!/usr/bin/env bash
# Sanitizer gate: configure a dedicated build tree with the requested
# sanitizers, build everything, and run the test suite.
#
#   $ tools/check.sh                 # ASan+UBSan (default)
#   $ tools/check.sh tsan            # ThreadSanitizer on the threaded tests
#   $ tools/check.sh perf            # Release micro-bench: Q-network kernels, costing, engine
#   $ tools/check.sh serve           # TSan serving tests + loadgen smoke
#   $ tools/check.sh fleet           # TSan fleet tests + 100-tenant smoke
#   $ tools/check.sh autopilot       # TSan autopilot tests + bench smoke
#   $ tools/check.sh storage         # ASan+UBSan storage/engine + compression smoke
#   $ tools/check.sh train           # TSan nn kernels, training + quantized-serving tests
#   $ tools/check.sh search          # ASan+UBSan search/pruning tests + DP bench smoke
#   $ LPA_SANITIZE=undefined tools/check.sh
#   $ BUILD_DIR=build-asan tools/check.sh
#   $ CTEST_FILTER=advisor tools/check.sh tsan
#
# The tsan preset builds with -DLPA_SANITIZE=thread into build-tsan and, by
# default, runs only the tests that exercise the parallel evaluation engine
# (including incremental_cost_test: the offline env's pooled cost-cache miss
# fan-out, which writes disjoint slots and inserts into the cache
# concurrently) and the serving subsystem (TSan slows everything ~10x; the
# serial tests gain nothing from it).
#
# The serve preset builds serving_test and lpa_loadgen under TSan, runs the
# serving tests, then drives a ~5-second loadgen smoke (1/2/8 workers with a
# halftime hot swap). The loadgen asserts its correctness counters — every
# request completed, rejected, or shed; zero dropped — and exits non-zero on
# violation; BENCH_serving.json lands in $LPA_METRICS_DIR (or build-tsan).
#
# The fleet preset builds the multi-tenant fleet tests and lpa_loadgen under
# TSan, runs the fleet + serving tests, then drives a 100-tenant loadgen
# smoke (Zipf tenant popularity, 4 shards, per-tenant quotas, halftime hot
# swap of the hottest tenants). The loadgen exits non-zero on any dropped
# request, counter inconsistency, or token-bucket quota violation. Note on
# few-core hosts the worker sweep cannot show throughput scaling — the smoke
# asserts the correctness counters instead (waiver recorded in
# BENCH_serving.json metadata as scaling_waiver).
#
# The autopilot preset builds autopilot_test + serving_test + bench_autopilot
# under TSan (the closed loop hot-swaps models while servers serve, and the
# async retrain trains on a background thread — exactly the interleavings
# TSan exists for), runs both test suites, then drives the bench_autopilot
# scenario sweep at LPA_BENCH_SCALE=4. The bench enforces its own acceptance
# gates (zero false swaps on stable, detection + recovery on every drift
# event, >= 1 automatic rollback in the forced-regression drill) and exits
# non-zero on violation; BENCH_autopilot.json lands in $LPA_METRICS_DIR (or
# build-tsan). Same few-core waiver as the fleet preset: correctness
# counters and recovery ratios are asserted, never wall-clock throughput.
#
# The storage preset builds the compressed-storage surface under ASan+UBSan
# and runs storage_test + engine_exec_test — together they are the
# compression smoke: every encoding round-trips property-tested inputs, the
# testbeds compress >= 2x, and EncodedExecTest compares the encoded engine
# against an uncompressed cluster with exact equality on every QueryRunStats
# field at 1/2/8 threads (plus the encoded-pricing and BulkAppend re-seal
# paths). Bit-packing is exactly the kind of code UBSan exists for.
#
# The train preset builds nn_test (the Q-network GEMM kernel and its
# thread-local pack buffers on 2- and 4-thread pools, checked bit for bit
# against the scalar loop), rl_test (the serial training loop, replay buffer
# and online environment) and quantized_test (int8/int16 quantization, the
# serving calibration gate and the batcher's wait-for-window mode) under TSan
# and runs them.
#
# The search preset builds the design-search subsystem (src/search/) under
# ASan+UBSan and runs search_test (DP (1+ε) certificate vs exhaustive
# enumeration, admissible floors, pruned-Suggest bit-identity at 1/2/8
# threads) plus parallel_eval_test, then drives the bench_exp1_offline
# verification sections (--baseline dp): the micro exhaustive gate and the
# pruned-vs-unpruned Suggest counter checks, exiting non-zero on violation.
# Same 1-CPU waiver as the other presets: wall-clock columns are
# informational, the gates assert digests and counters only.
#
# The perf preset builds Release into build-perf and runs the post-benchmark
# kernels of bench_micro_components (google benchmarks filtered out): the
# Q-network kernel (GMAC/s of every GEMM shape of the TPC-CH train step and
# DqnAgent::TrainStep us, serial and at 2 threads), the workload-cost kernel
# (OfflineEnv::WorkloadCost per step, serial and with the cache misses fanned
# out on 2 threads) and the engine kernel
# (pool-parallel ExecuteWorkload at 1/2/8 threads with bit-identity digest
# checks). BENCH_qnetwork.json, BENCH_micro_components.json and
# BENCH_engine.json land in $LPA_METRICS_DIR (or build-perf).
set -euo pipefail

cd "$(dirname "$0")/.."

PRESET="${1:-}"
if [[ "${PRESET}" == "perf" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-perf}"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "== configure (${BUILD_DIR}, Release) =="
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  echo "== build bench_micro_components =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_micro_components
  echo "== perf kernels: Q-network GEMMs + train step, workload-cost (serial vs 2-thread miss fan-out), engine (pool-parallel) =="
  LPA_METRICS_DIR="${LPA_METRICS_DIR:-${BUILD_DIR}}" \
    "${BUILD_DIR}/bench/bench_micro_components" --benchmark_filter='^$'
  echo "== OK: matching digests above = bit-identical results; see BENCH_engine.json =="
  exit 0
fi
if [[ "${PRESET}" == "serve" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "== configure (${BUILD_DIR}, -fsanitize=thread) =="
  cmake -B "${BUILD_DIR}" -S . -DLPA_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "== build serving_test + lpa_loadgen =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target serving_test lpa_loadgen
  echo "== serving tests (TSan) =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -R serving_test
  echo "== loadgen smoke: 1/2/8 workers, hot swap at halftime =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  LPA_METRICS_DIR="${LPA_METRICS_DIR:-${BUILD_DIR}}" \
  LPA_BENCH_SCALE="${LPA_BENCH_SCALE:-4}" \
    "${BUILD_DIR}/tools/lpa_loadgen" --schema micro --episodes 16 \
      --workers 1,2,8 --duration 1.5 --hotswap
  echo "== OK: serving tests TSan-clean, loadgen counters consistent =="
  exit 0
fi
if [[ "${PRESET}" == "fleet" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "== configure (${BUILD_DIR}, -fsanitize=thread) =="
  cmake -B "${BUILD_DIR}" -S . -DLPA_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "== build fleet_test + serving_test + lpa_loadgen =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target fleet_test serving_test \
    lpa_loadgen
  echo "== fleet + serving tests (TSan) =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure \
      -R 'fleet_test|serving_test'
  echo "== fleet smoke: 100 tenants, 4 shards, quotas, halftime hot swap =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  LPA_METRICS_DIR="${LPA_METRICS_DIR:-${BUILD_DIR}}" \
  LPA_BENCH_SCALE="${LPA_BENCH_SCALE:-4}" \
    "${BUILD_DIR}/tools/lpa_loadgen" --schema micro --episodes 16 \
      --tenants 100 --shards 4 --workers 2 --clients 3 --duration 2 \
      --hotswap --quota-rate 200 --quota-burst 50
  echo "== OK: fleet TSan-clean; zero drops, zero quota violations =="
  exit 0
fi
if [[ "${PRESET}" == "autopilot" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "== configure (${BUILD_DIR}, -fsanitize=thread) =="
  cmake -B "${BUILD_DIR}" -S . -DLPA_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "== build autopilot_test + serving_test + bench_autopilot =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target autopilot_test \
    serving_test bench_autopilot
  echo "== autopilot + serving tests (TSan) =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure \
      -R 'autopilot_test|serving_test'
  echo "== autopilot smoke: scenario sweep with acceptance gates =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  LPA_METRICS_DIR="${LPA_METRICS_DIR:-${BUILD_DIR}}" \
  LPA_BENCH_SCALE="${LPA_BENCH_SCALE:-4}" \
    "${BUILD_DIR}/bench/bench_autopilot" --schema micro
  echo "== OK: autopilot TSan-clean; zero false swaps, recovery + rollback verified =="
  exit 0
fi
if [[ "${PRESET}" == "storage" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-sanitize}"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "== configure (${BUILD_DIR}, -fsanitize=address,undefined) =="
  cmake -B "${BUILD_DIR}" -S . -DLPA_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "== build storage_test + engine_exec_test =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target storage_test \
    engine_exec_test
  echo "== storage + engine tests (ASan+UBSan), incl. compression smoke =="
  ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure \
      -R 'storage_test|engine_exec_test'
  echo "== OK: encodings round-trip, >=2x compression, encoded engine bit-identical =="
  exit 0
fi
if [[ "${PRESET}" == "train" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "== configure (${BUILD_DIR}, -fsanitize=thread) =="
  cmake -B "${BUILD_DIR}" -S . -DLPA_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "== build nn_test + rl_test + quantized_test =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target nn_test rl_test \
    quantized_test
  echo "== nn + rl + quantized tests (TSan) =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure \
      -R 'nn_test|rl_test|quantized_test'
  echo "== OK: nn kernels, training and quantized serving TSan-clean =="
  exit 0
fi
if [[ "${PRESET}" == "search" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-sanitize}"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "== configure (${BUILD_DIR}, -fsanitize=address,undefined) =="
  cmake -B "${BUILD_DIR}" -S . -DLPA_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "== build search_test + parallel_eval_test + bench_exp1_offline =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target search_test \
    parallel_eval_test bench_exp1_offline
  echo "== search + pruning tests (ASan+UBSan) =="
  ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure \
      -R 'search_test|parallel_eval_test'
  echo "== bench smoke: DP (1+eps) certificate + pruned-Suggest bit-identity =="
  ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  LPA_METRICS_DIR="${LPA_METRICS_DIR:-${BUILD_DIR}}" \
  LPA_BENCH_SCALE="${LPA_BENCH_SCALE:-4}" \
    "${BUILD_DIR}/bench/bench_exp1_offline" --baseline dp --epsilon 0.1
  echo "== OK: DP within (1+eps) of exhaustive, pruned Suggest bit-identical at 1/2/8 threads =="
  echo "   (scaling_waiver: 1-CPU container; wall-clock informational, digests asserted)"
  exit 0
fi
if [[ "${PRESET}" == "tsan" ]]; then
  SANITIZE="${LPA_SANITIZE:-thread}"
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  CTEST_FILTER="${CTEST_FILTER:-parallel_eval_test|incremental_cost_test|serving_test|fleet_test}"
else
  SANITIZE="${LPA_SANITIZE:-address,undefined}"
  BUILD_DIR="${BUILD_DIR:-build-sanitize}"
  CTEST_FILTER="${CTEST_FILTER:-}"
fi
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure (${BUILD_DIR}, -fsanitize=${SANITIZE}) =="
cmake -B "${BUILD_DIR}" -S . -DLPA_SANITIZE="${SANITIZE}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null

echo "== build =="
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== test =="
CTEST_ARGS=(--test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}")
if [[ -n "${CTEST_FILTER}" ]]; then
  CTEST_ARGS+=(-R "${CTEST_FILTER}")
fi
# halt_on_error makes sanitizer failures fail the test run, not just log.
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest "${CTEST_ARGS[@]}"

echo "== OK: build and tests are clean under ${SANITIZE} =="
