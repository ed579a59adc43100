#!/usr/bin/env bash
# Runs every experiment-reproduction bench and summarizes the
# [REPRODUCED]/[DIVERGED] verdicts.  Exits non-zero if any bench fails
# to run or any claim diverges.  Verdict lines count whatever a bench's
# exit status (some benches exit non-zero when a claim diverges); a
# bench that exits non-zero without a [DIVERGED] line is reported as
# FAILED.  The set is discovered by globbing
# <build-dir>/bench/*, so newly added bench programs (e.g.
# bench_cache_locality, the §5.4 cache-hit-rate / prefetch-overlap
# experiment) are picked up automatically.
#
# Benches are sharded across a pool of JOBS workers — each bench runs
# in its own background job writing to a private log, and the summary
# is printed afterwards in stable (alphabetical glob) order, so the
# output format is identical to a serial run.
#
#   scripts/run_benches.sh [build-dir]
#
# Environment:
#   JOBS  worker-pool size.  Defaults to nproc/2 (min 1) because some
#         benches time real compute and spawn their own worker threads;
#         oversubscription can flip wall-clock-sensitive claims.  Use
#         JOBS=1 for a fully serial, contention-free run.
set -uo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
default_jobs="$(( $(nproc) / 2 ))"
[ "${default_jobs}" -ge 1 ] || default_jobs=1
jobs="${JOBS:-${default_jobs}}"

if [ ! -d "${build_dir}/bench" ]; then
  echo "error: ${build_dir}/bench not found — build first (scripts/check.sh)" >&2
  exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

benches=()
for bench in "${build_dir}"/bench/*; do
  [ -x "${bench}" ] || continue
  benches+=("${bench}")
done

run_one() {
  local bench="$1" name
  name="$(basename "${bench}")"
  "${bench}" > "${tmp}/${name}.log" 2>&1
  echo $? > "${tmp}/${name}.status"
}

# Worker pool: keep at most ${jobs} benches in flight.
active=0
for bench in "${benches[@]}"; do
  run_one "${bench}" &
  active=$((active + 1))
  if [ "${active}" -ge "${jobs}" ]; then
    wait -n || true
    active=$((active - 1))
  fi
done
wait

failures=0
diverged=0
reproduced=0
for bench in "${benches[@]}"; do
  name="$(basename "${bench}")"
  status="$(cat "${tmp}/${name}.status" 2>/dev/null || echo 127)"
  log="$(cat "${tmp}/${name}.log" 2>/dev/null || true)"
  n_repro=$(printf '%s\n' "${log}" | grep -c '^\[REPRODUCED\]')
  n_div=$(printf '%s\n' "${log}" | grep -c '^\[DIVERGED\]')
  reproduced=$((reproduced + n_repro))
  diverged=$((diverged + n_div))
  if [ "${n_div}" -gt 0 ]; then
    echo "[DIVERGED  ] ${name} (${n_repro} claims reproduced, exit ${status})"
    printf '%s\n' "${log}" | grep '^\[DIVERGED\]' | sed 's/^/    /'
  elif [ "${status}" -ne 0 ]; then
    echo "[FAILED    ] ${name} (exit ${status}, ${n_repro} claims reproduced)"
    failures=$((failures + 1))
  else
    echo "[OK        ] ${name} (${n_repro} claims reproduced)"
  fi
done

echo
echo "claims reproduced: ${reproduced}, diverged: ${diverged}, benches failed: ${failures}"
[ $((failures + diverged)) -eq 0 ]
