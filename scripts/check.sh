#!/usr/bin/env bash
# Tier-1 gate in one command: configure + build + ctest, with every
# warning in every target (library, reference/, tests, benches,
# examples) promoted to an error (PGTI_WERROR), plus named stages: a
# multi-process smoke proving the socket transport reproduces
# in-process losses byte for byte across forked rank processes, an
# oracle gate proving libpgti.a carries no `_reference` kernel and no
# `gru_fusion` switch (those live in the test-and-bench-only
# pgti_reference library), the alloc-free, serving and cache residency
# gates re-run by test name (the residency gate: the SnapshotCache
# cases, the store-level cache and schedule-aware eviction cases, the
# store counters repeating across runs, the priced ledger at every
# prefetch depth, and the serving hot window), the kernel parity suite
# re-run at 1 and 3 pool threads and in a baseline-ISA build
# (<build-dir>-portable, -DPGTI_NATIVE=OFF, kernel_fusion_test and
# tensor_ops_test only), and a benchmark smoke
# proving the benchmark/ harness still builds against the library and
# passes every gate at smoke scale (benchmark/run.sh --smoke, built in
# build-bench/).
#
#   scripts/check.sh [build-dir]
#
# Environment:
#   JOBS           parallelism (default: nproc)
#   CTEST_ARGS     extra ctest arguments (default: -L tier1)
#   PGTI_SANITIZE  set to "thread" or "address" to ALSO build
#                  <build-dir>-tsan / <build-dir>-asan with
#                  -DPGTI_SANITIZE=<mode> and run tier-1 suites under
#                  it.  The address build carries ASan and UBSan (every
#                  UB report fatal) and runs every tier-1 suite; under
#                  it the arena poisons recycled blocks between leases,
#                  so stale reads of pooled memory fault instead of
#                  silently reusing bits.  The thread build runs the
#                  concurrency-heavy suites — runtime_test (the
#                  kernel pool's concurrent callers and per-thread
#                  PoolShare caps), dist_test,
#                  dist_determinism_test, dist_prefetch_test
#                  (worker-announced staging, reader ranks under
#                  concurrent traffic, PrefetchLoader abort/restart
#                  stress), dist_transport_test (socket-vs-in-process
#                  bit identity, the TCP fault sweeps, and the SimClock
#                  concurrent-charge hammer), epoch_engine_test (the
#                  shared Trainer/DistTrainer pipeline at depth N),
#                  grad_overlap_test (per-rank comm threads firing
#                  ready-bucket all-reduces under backward, including
#                  the mid-backward fault-injection sweep),
#                  kernel_fusion_test (the threaded blocked/fused
#                  kernels and their parallel_for partitioning),
#                  arena_test (step-scoped pool recycling under the
#                  prefetch pipeline), and serve_test (client threads
#                  submitting against the coalescing worker while a
#                  training thread publishes copy-on-publish
#                  snapshots).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
jobs="${JOBS:-$(nproc)}"

cmake -B "${build_dir}" -S "${repo_root}" -DPGTI_WERROR=ON
cmake --build "${build_dir}" -j "${jobs}"
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" ${CTEST_ARGS:--L tier1}

echo
echo "== multi-process smoke: socket transport (forked ranks, world=4) vs in-process =="
# Forked ranks compute at a pool share of 1 (DESIGN.md §18), so the
# world=1 cases also compare a width-1 process with a full-width
# in-process rank, bit for bit.
"${build_dir}/examples/socket_ddp" --smoke

echo
echo "== oracle gate: libpgti.a must list no _reference or gru_fusion symbol =="
# The seed kernels and the unfused DCGRU cell are test and bench oracles
# (reference/, DESIGN.md §14).  A match here means an oracle or a parity
# switch drifted back into src/.
symbols="$(nm -C "${build_dir}/libpgti.a")"
if grep -E '_reference|gru_fusion' <<<"${symbols}"; then
  echo "libpgti.a carries the symbols above; oracles belong in reference/" >&2
  exit 1
fi
echo "none"

echo
echo "== alloc-free steady state gate: train step heap allocs must be 0 =="
# Re-runs the arena suite's alloc-free assertions standalone so a
# regression that reintroduces per-step heap traffic (kernel scratch
# that no longer recycles through the step arena, a tensor allocated
# outside the step scope) fails the gate by name even if someone trims
# the ctest label.
"${build_dir}/arena_test" \
  --gtest_filter='ArenaTrainer.SteadyStateTrainStepIsAllocFree:TensorArena.KernelScratchRecyclesAcross100ScopedSteps'

echo
echo "== serving gate: micro-batch bit-parity + snapshot isolation =="
# The two serving invariants everything else leans on, re-run by name:
# a coalesced micro-batch must be byte-identical to sequential
# single-request forwards, and a mid-flight publish from a concurrent
# training thread must never bleed into a captured snapshot.
"${build_dir}/serve_test" \
  --gtest_filter='ServeBitParity.CoalescedBatchMatchesSequentialForwards:ServeSnapshot.PublishFromTrainingThreadIsolatesVersions'

echo
echo "== cache residency gate: SnapshotCache, store cache, eviction order, hot window =="
# Residency has one owner, dist::SnapshotCache under DistStore (DESIGN.md
# §9).  Re-run by name: the cache driven directly, the store-level
# pinning, byte-bound and schedule-aware eviction cases, the store's
# counters across runs and prefetch depths, and the serving hot window
# held by the cache's retained range.
"${build_dir}/dist_prefetch_test" \
  --gtest_filter='SnapshotCache.*:StoreCache.*:ScheduleAwareEviction.*:DistPrefetch.StoreCountersRepeatAcrossRuns:DepthNPrefetch.PricedLedgerIndependentOfDepth'
"${build_dir}/serve_test" --gtest_filter='ServeHotWindow.*'

echo
echo "== kernel parity across partitions: kernel_fusion_test at 1 and 3 pool threads =="
# The GEMM micro-kernel's bits must not depend on how parallel_for cuts
# the rows (DESIGN.md §14): a ragged chunk repeats its last row in spare
# tile rows, so a different thread count moves every chunk boundary.
PGTI_NUM_THREADS=1 "${build_dir}/kernel_fusion_test"
PGTI_NUM_THREADS=3 "${build_dir}/kernel_fusion_test"

echo
echo "== portable kernels: -DPGTI_NATIVE=OFF build in ${build_dir}-portable =="
# The micro-kernel's vector width is the target's own (16 lanes with
# AVX-512, 4 with the SSE2 baseline), so the baseline-ISA build runs
# different tiles; the parity suites must still pass there.
portable_dir="${build_dir}-portable"
cmake -B "${portable_dir}" -S "${repo_root}" -DPGTI_NATIVE=OFF -DPGTI_WERROR=ON
cmake --build "${portable_dir}" -j "${jobs}" --target kernel_fusion_test tensor_ops_test
"${portable_dir}/kernel_fusion_test"
"${portable_dir}/tensor_ops_test"

echo
echo "== benchmark smoke: the benchmark/ harness builds and every gate passes =="
# The harness calls the library's public API (DistStore's
# constructors, BatchPipeline, DistTrainer); a change to it that breaks
# the harness build, or a workload that fails a gate, fails here rather
# than only in a full benchmark run.  run.sh exits non-zero on either.
"${repo_root}/benchmark/run.sh" --smoke

sanitize="${PGTI_SANITIZE:-}"
if [ -n "${sanitize}" ]; then
  case "${sanitize}" in
    thread)  san_dir="${build_dir}-tsan"
             suites='^(runtime_|dist_|epoch_engine|grad_overlap|kernel_fusion|arena|serve_)'
             what="runtime + dist_* + epoch_engine + grad_overlap + kernel_fusion + arena + serve suites" ;;
    address) san_dir="${build_dir}-asan"
             suites='.'
             what="every tier-1 suite under ASan + UBSan" ;;
    *) echo "PGTI_SANITIZE must be 'thread' or 'address', got '${sanitize}'" >&2
       exit 1 ;;
  esac
  echo
  echo "== ${sanitize} sanitizer pass (${what}) in ${san_dir} =="
  cmake -B "${san_dir}" -S "${repo_root}" -DPGTI_SANITIZE="${sanitize}" -DPGTI_WERROR=ON
  cmake --build "${san_dir}" -j "${jobs}"
  ctest --test-dir "${san_dir}" --output-on-failure -j "${jobs}" -L tier1 -R "${suites}"
fi
