#!/usr/bin/env bash
# Developer check driver.
#
#   tools/check.sh            configure + build + full ctest (build/), then
#                             the doc-drift linter. The CLI smokes (traced
#                             simulation, what-if, critical-path trace,
#                             ledger round trip) are ctests (cli_*).
#   tools/check.sh --tsan     the full suite in a ThreadSanitizer build
#                             (build-tsan/), bar one test (see run_sanitized).
#   tools/check.sh --asan     the same in an AddressSanitizer build
#                             (build-asan/).
#   tools/check.sh --ubsan    the same in an UndefinedBehaviorSanitizer build
#                             (build-ubsan/); a report fails its test.
#   tools/check.sh --docs     doc-drift linter: diff the flag/command
#                             vocabulary of `sophonctl help` against
#                             docs/CLI.md and README.md — fails when the docs
#                             mention a flag the binary no longer has, or the
#                             binary grows a flag/command the docs omit — and
#                             fail when README.md, DESIGN.md, EXPERIMENTS.md
#                             or docs/*.md name a src/, bench/ or examples/
#                             path that does not exist. Also runs as part of
#                             the default check.
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
  local allowlist='^--(tsan|asan|ubsan|docs|bench-regress|build|target|test-dir|output-on-failure|key)$'
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
  # Every src/, bench/ or examples/ path the docs name must exist, as named
  # or with an extension (`bench/fig3_ample_cpu` names fig3_ample_cpu.cc).
  # Brace lists such as src/obs/{a,b} are skipped.
  local ref file path
  while IFS= read -r ref; do
    file=${ref%%:*}
    path=$(sed 's/[.]*$//' <<< "${ref##*:}")
    if [[ ! -e "$path" ]] && ! compgen -G "$path.*" > /dev/null; then
      echo "doc-drift: $file names $path, which does not exist" >&2
      ok=1
    fi
  done < <(grep -oHP '(?<![\w./-])(?:src|bench|examples)/[\w./-]*+(?!\{)' \
             README.md DESIGN.md EXPERIMENTS.md docs/*.md | sort -u)
  if [[ $ok -eq 0 ]]; then
    echo "docs OK: $(printf '%s\n' "$flags_help" | wc -l) flags, $(printf '%s\n' "$commands" | wc -l) commands in sync with docs/CLI.md; every named path exists"
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

if [[ "${1:-}" == "--tsan" ]]; then
  run_sanitized tsan thread
elif [[ "${1:-}" == "--asan" ]]; then
  run_sanitized asan address
elif [[ "${1:-}" == "--ubsan" ]]; then
  run_sanitized ubsan undefined
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
  echo "usage: tools/check.sh [--tsan|--asan|--ubsan|--docs|--bench-regress]" >&2
  exit 2
else
  cmake -B build -S .
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"
  check_docs
fi
