#!/usr/bin/env bash
# Developer check driver.
#
#   tools/check.sh            configure + build + full ctest (build/)
#   tools/check.sh --tsan     the full suite in a ThreadSanitizer build
#                             (build-tsan/), bar one test (see run_sanitized).
#   tools/check.sh --asan     the same in an AddressSanitizer build
#                             (build-asan/).
#   tools/check.sh --ubsan    the same in an UndefinedBehaviorSanitizer build
#                             (build-ubsan/); a report fails its test.
#   tools/check.sh --trace-smoke
#                             build sophonctl, run a small traced simulation
#                             and schema-check the emitted Chrome trace JSON
#                             with the in-repo parser (validate-trace); fails
#                             on malformed traces or missing span coverage.
#   tools/check.sh --docs     doc-drift linter: diff the flag/command
#                             vocabulary of `sophonctl help` against
#                             docs/CLI.md and README.md — fails when the docs
#                             mention a flag the binary no longer has, or the
#                             binary grows a flag/command the docs omit. Also
#                             runs as part of the default check.
#   tools/check.sh --ledger-smoke
#                             build sophonctl, run a short adaptive simulation
#                             with the traffic ledger enabled, render the
#                             export with traffic-report, and traffic-diff it
#                             against itself with --expect-zero — the
#                             round-trip proof that export → parse → diff is
#                             lossless and a run diffs clean against itself.
#   tools/check.sh --critpath-smoke
#                             build sophonctl, run `whatif` (every ranked
#                             projection validated against a real simulator
#                             re-run — the command exits non-zero on any
#                             out-of-tolerance scenario) and a traced
#                             simulate with --critpath-out, then check the
#                             analysis JSON and the flow-annotated trace.
#                             Also runs as part of the default check.
#   tools/check.sh --bench-regress
#                             re-run the benches that commit BENCH_*.json
#                             artifacts (prefetch, adapt, materialize,
#                             critpath) in a scratch directory and compare
#                             every numeric field against the committed
#                             artifact with `sophonctl bench-compare` at zero
#                             tolerance. The runs are deterministic DES
#                             output, so any mismatch means the substrate
#                             drifted, not the machine. Opt-in like the
#                             sanitizer modes: four full bench runs are too
#                             slow for every edit.
#
# Each sanitizer needs its own build directory: objects built with
# -fsanitize=thread or -fsanitize=address are not link-compatible with a
# plain build (or with each other).
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

# Doc-drift linter: `sophonctl help` is generated from the same command
# table that validates flags at runtime, so it is the ground truth. Docs may
# additionally mention flags of *other* tools (check.sh's own modes, cmake/
# ctest switches, generic placeholders) — those live on the allowlist.
check_docs() {
  local help flags_help flags_docs commands missing stale ok=0
  local allowlist='^--(tsan|asan|ubsan|trace-smoke|docs|bench-regress|ledger-smoke|critpath-smoke|build|target|test-dir|output-on-failure|key)$'
  help=$(build/tools/sophonctl help)

  flags_help=$(printf '%s\n' "$help" | grep -oE '^\s*--[a-z][a-z0-9-]*' | tr -d ' ' | sort -u)
  flags_docs=$(grep -ohE '[-][-][a-z][a-z0-9-]*' docs/CLI.md README.md | sort -u |
    grep -vE "$allowlist" || true)
  commands=$(printf '%s\n' "$help" | sed -nE 's/^sophonctl ([a-z-]+) .*/\1/p' | sort -u)

  # Docs must not reference flags the binary no longer has.
  stale=$(comm -23 <(printf '%s\n' "$flags_docs") <(printf '%s\n' "$flags_help"))
  if [[ -n "$stale" ]]; then
    echo "doc-drift: docs/CLI.md or README.md reference flags sophonctl does not have:" >&2
    printf '  %s\n' $stale >&2
    ok=1
  fi
  # Every binary flag must be documented in the CLI reference.
  missing=$(comm -23 <(printf '%s\n' "$flags_help") \
    <(grep -ohE '[-][-][a-z][a-z0-9-]*' docs/CLI.md | sort -u))
  if [[ -n "$missing" ]]; then
    echo "doc-drift: sophonctl flags missing from docs/CLI.md:" >&2
    printf '  %s\n' $missing >&2
    ok=1
  fi
  # Every command must be documented in the CLI reference.
  for cmd in $commands; do
    if ! grep -q "### $cmd" docs/CLI.md && ! grep -qE "^\| \[?\`$cmd\`" docs/CLI.md; then
      echo "doc-drift: sophonctl command '$cmd' undocumented in docs/CLI.md" >&2
      ok=1
    fi
  done
  if [[ $ok -eq 0 ]]; then
    echo "docs OK: $(printf '%s\n' "$flags_help" | wc -l) flags, $(printf '%s\n' "$commands" | wc -l) commands in sync with docs/CLI.md"
  fi
  return $ok
}

# One sanitizer mode: configure build-<name>/ with -DSOPHON_SANITIZE=<sanitizer>,
# build everything there and run the full suite, with UBSan reports fatal.
# bench_trace_overhead_smoke is left out: it bounds wall-clock overhead
# shares, and instrumentation inflates the timed code unevenly, so those
# bounds say nothing about the code under a sanitizer.
run_sanitized() {
  local dir="build-$1"
  cmake -B "$dir" -S . -DSOPHON_SANITIZE="$2"
  cmake --build "$dir" -j "$jobs"
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    ctest --test-dir "$dir" --output-on-failure -j "$jobs" -E '^bench_trace_overhead_smoke$'
}

# Critical-path smoke: the whatif command validates every ranked projection
# against a real simulator re-run (it exits non-zero if any scenario misses
# tolerance), and a traced simulate must produce both the analysis JSON and
# a flow-annotated trace that validate-trace accepts.
check_critpath() {
  local tmp
  tmp=$(mktemp -d)
  # shellcheck disable=SC2064
  trap "rm -rf '$tmp'" RETURN
  build/tools/sophonctl whatif --dataset openimages --samples 1000 --mbps 100 \
    --storage-cores 4 --replay 1 --prefetch-depth 8 --out "$tmp/whatif.json"
  build/tools/sophonctl simulate --dataset openimages --samples 500 --mbps 100 \
    --prefetch-depth 8 --workers 4 --trace-out="$tmp/trace.json" \
    --critpath-out="$tmp/cp.json"
  grep -q 'sophon.critpath' "$tmp/cp.json"
  grep -q 'sophon.whatif' "$tmp/whatif.json"
  build/tools/sophonctl validate-trace --in "$tmp/trace.json"
  echo "critpath-smoke OK: projections validated and the critical-path trace is well-formed"
}

if [[ "${1:-}" == "--tsan" ]]; then
  run_sanitized tsan thread
elif [[ "${1:-}" == "--asan" ]]; then
  run_sanitized asan address
elif [[ "${1:-}" == "--ubsan" ]]; then
  run_sanitized ubsan undefined
elif [[ "${1:-}" == "--trace-smoke" ]]; then
  cmake -B build -S .
  cmake --build build -j "$jobs" --target sophonctl
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  build/tools/sophonctl simulate --dataset openimages --samples 500 --mbps 100 \
    --prefetch-depth 8 --workers 4 --trace-out="$tmp/trace.json" --report
  build/tools/sophonctl validate-trace --in "$tmp/trace.json"
elif [[ "${1:-}" == "--ledger-smoke" ]]; then
  cmake -B build -S .
  cmake --build build -j "$jobs" --target sophonctl
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  build/tools/sophonctl simulate --dataset openimages --samples 500 --mbps 100 \
    --adapt --epochs 4 --bw-drop-factor 4 --bw-drop-epoch 2 \
    --ledger-out "$tmp/ledger.json"
  build/tools/sophonctl traffic-report --in "$tmp/ledger.json"
  build/tools/sophonctl traffic-diff --a "$tmp/ledger.json" --b "$tmp/ledger.json" \
    --expect-zero
  echo "ledger-smoke OK: export round-trips and diffs clean against itself"
elif [[ "${1:-}" == "--critpath-smoke" ]]; then
  cmake -B build -S .
  cmake --build build -j "$jobs" --target sophonctl
  check_critpath
elif [[ "${1:-}" == "--docs" ]]; then
  cmake -B build -S .
  cmake --build build -j "$jobs" --target sophonctl
  check_docs
elif [[ "${1:-}" == "--bench-regress" ]]; then
  cmake -B build -S .
  cmake --build build -j "$jobs" --target sophonctl ablation_prefetch ablation_adapt \
    ablation_materialize critpath_accuracy
  repo=$(pwd)
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  for bench in prefetch adapt materialize critpath; do
    case "$bench" in
      critpath) bin=critpath_accuracy ;;
      *) bin=ablation_$bench ;;
    esac
    echo "bench-regress: re-running $bin"
    (cd "$tmp" && "$repo/build/bench/$bin" > /dev/null)
    "$repo/build/tools/sophonctl" bench-compare \
      --baseline "$repo/BENCH_$bench.json" \
      --candidate "$tmp/BENCH_$bench.json" \
      --tolerance 0
  done
  echo "bench-regress OK: prefetch, adapt, materialize, critpath match the committed artifacts"
elif [[ $# -gt 0 ]]; then
  echo "usage: tools/check.sh [--tsan|--asan|--ubsan|--trace-smoke|--docs|--ledger-smoke|--critpath-smoke|--bench-regress]" >&2
  exit 2
else
  cmake -B build -S .
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"
  check_docs
  check_critpath
fi
