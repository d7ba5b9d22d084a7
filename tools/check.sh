#!/usr/bin/env bash
# Developer check driver.
#
#   tools/check.sh            configure + build + full ctest (build/)
#   tools/check.sh --tsan     same, in a ThreadSanitizer build (build-tsan/),
#                             restricted to the concurrency-sensitive suites
#                             (loader, prefetch, resilience, net, storage
#                             server, traffic ledger), the
#                             scheduling core's (sim, critpath), the adaptive
#                             run loop's, the decision engines', the policies'
#                             and the real-byte-path integration suite — TSan
#                             slows the rest down ~10x for no extra signal.
#   tools/check.sh --asan     AddressSanitizer build (build-asan/), same suite
#                             restriction — heap abuse hides in the same
#                             concurrent code TSan watches for races.
#   tools/check.sh --ubsan    UndefinedBehaviorSanitizer build (build-ubsan/),
#                             same restricted suite — the shard reader, wire
#                             parsers and SJPG decoder do byte-level decoding
#                             of untrusted input, exactly where misaligned
#                             loads, wild shifts and integer overflow hide.
#                             The image kernels and pipeline ops that walk
#                             raw row pointers run in all three modes too.
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

sanitized_targets=(
  loader_test loader_degradation_test loader_prefetch_test
  prefetch_staging_test prefetch_replay_test prefetch_waste_test
  obs_ledger_test obs_ledger_reconcile_test storage_test
  net_resilience_test net_rpc_test net_link_test net_wire_test
  obs_concurrency_test util_telemetry_test
  obs_critpath_test obs_replay_trace_test obs_report_test
  sim_resources_test sim_trainer_test sim_sharded_test sim_multijob_test
  sim_golden_test sim_schedule_test sim_metamorphic_test core_decision_test
  core_adapt_test core_sharded_decision_test core_replicated_decision_test
  core_policy_test core_runner_test integration_test
  shard_format_test storage_shard_serving_test storage_disk_test
  codec_bitio_test codec_huffman_test codec_sjpg_test codec_fuzz_test image_ops_test
  image_test image_color_test pipeline_ops_test pipeline_test
)
sanitized_regex='Adapt|ShardedDecision|ReplicatedDecision|ReplicaMap|PolicyNames|PolicyKinds|Policies\.|PlanContext|NoOff\.|AllOff\.|ResizeOff\.|FastFlow\.|Sophon\.|Runner\.|Integration\.|Loader|Prefetch|StagingBuffer|Ledger|TrafficCause|StorageServer|DatasetStore|Admission|Resilience|Backoff|FaultInjector|FaultyService|LinkFaults|MeteringStorageService|OffloadDirective|Tracer|SpanRing|Telemetry|ObsConcurrency|Wire|Crc32|Shard|DiskStore|CritPath|WhatIf|Monitor|CpuPool|Gpu\.|Trainer|MultiJob|Trace\.|EpochReport|GoldenPins|SimSchedule|SimMetamorphic|Decision|BitIo|Huffman|CodeLength|Sjpg|CodecFuzz|JsonFuzz|Resize|Image\.|Plane\.|Tensor\.|Color\.|Op(KindName|Costs)?\.|Pipeline\.'

# One sanitizer mode: configure build-<name>/ with -DSOPHON_SANITIZE=<sanitizer>,
# build the sanitized targets there and run the suites they hold.
run_sanitized() {
  local dir="build-$1"
  cmake -B "$dir" -S . -DSOPHON_SANITIZE="$2"
  cmake --build "$dir" -j "$jobs" --target "${sanitized_targets[@]}"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -R "$sanitized_regex"
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
