#!/usr/bin/env bash
# Builds and runs the PGT-I benchmark.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--smoke] [--out FILE] [--trace-out DIR]
#
# With --workload, runs that workload once: --trace 0 (default) is the
# measured run and reports the end-to-end metrics, --trace 1 the traced
# run and reports the per-layer metrics.  The last line of standard
# output is then the run's JSON result.
#
# Without --workload, runs every workload measured and then traced,
# prints every metric as `workload metric value unit kind axis`, and
# exits non-zero if any gate failed.  --out FILE writes the full
# reports (one per run) as JSON.  --smoke shrinks every workload so the
# whole set, every gate included, finishes in seconds.  --trace-out DIR
# writes one Chrome-trace JSON file per traced workload.
#
# The harness is configured and built in build-bench/ at the repository
# root; build output goes to build-bench/build.log.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: the PGT-I library sources are not next to benchmark/ (looked in $root)" >&2
  exit 2
fi

workload="" seed=1 seconds="" trace=0 smoke=0 out="" trace_out=""
while (($#)); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --out) out="$2"; shift 2 ;;
    --trace-out) trace_out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# Compiler scratch files stay inside the checkout too.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
log="$build/build.log"
if ! { [[ -f "$build/CMakeCache.txt" ]] ||
       cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } >"$log" 2>&1 ||
   ! cmake --build "$build" --target pgti_bench -j "$(nproc)" >>"$log" 2>&1; then
  cat "$log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi
bin="$build/pgti_bench"

args=(--seed "$seed")
if ((smoke)); then
  args+=(--smoke --seconds "${seconds:-1}")
elif [[ -n "$seconds" ]]; then
  args+=(--seconds "$seconds")
fi
if [[ -n "$trace_out" ]]; then
  mkdir -p "$trace_out"
  args+=(--trace-out "$trace_out")
fi

if [[ -n "$workload" ]]; then
  exec "$bin" --workload "$workload" --trace "$trace" "${args[@]}" ${out:+--out "$out"}
fi

reports="$build/reports"
rm -rf "$reports"
mkdir -p "$reports"
status=0
for w in train-index ddp-baseline ddp-index serve-stream serve-uniform; do
  for t in 0 1; do
    if ! "$bin" --workload "$w" --trace "$t" "${args[@]}" --out "$reports/$w.$t.json" \
         >"$reports/$w.$t.txt"; then
      status=1
    fi
    grep -v '^{' "$reports/$w.$t.txt" || true
  done
done
if [[ -n "$out" ]]; then
  {
    echo "["
    sep=""
    for f in "$reports"/*.json; do
      printf '%s' "$sep"
      cat "$f"
      sep=","
    done
    echo "]"
  } >"$out"
fi
if ((status)); then
  echo "run.sh: at least one run failed a gate (see the FAIL lines above)" >&2
fi
exit "$status"
