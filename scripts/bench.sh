#!/usr/bin/env bash
# Run the key benchmarks (annealing move throughput, global routing,
# the end-to-end matrix, Table 1 die area) and emit one machine-readable
# trajectory point for the BENCH_*.json perf history, then print a
# delta table against the most recent committed trajectory point.
#
# Usage: scripts/bench.sh out.json
#   BENCH_PATTERN  override the -bench regexp
#   BENCH_TIME     override -benchtime (default 1s)
#
# The output path is required, so a run never overwrites a committed
# BENCH_*.json point by accident. The end-to-end benchmark of the flow,
# the service and the coordinator is perf/ (bash perf/run.sh, see
# perf/README.md); this script covers the Go micro-benchmarks only.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/bench.sh out.json" >&2
  exit 2
fi
out="$1"
pattern="${BENCH_PATTERN:-AnnealMoves|GlobalRouting|MatrixParallel|Table1DieArea}"
benchtime="${BENCH_TIME:-1s}"

raw=$(go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count 1 .)
printf '%s\n' "$raw" >&2

{
  echo "{"
  echo "  \"schema\": 1,"
  echo "  \"generated\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"git_rev\": \"$(git rev-parse --short HEAD 2>/dev/null || echo unknown)\","
  echo "  \"go\": \"$(go env GOVERSION)\","
  # Host provenance: a trajectory point is only comparable to points
  # measured on like hardware, so record where this one came from.
  echo "  \"host\": {"
  echo "    \"hostname\": \"$(hostname 2>/dev/null || echo unknown)\","
  echo "    \"os\": \"$(uname -sr 2>/dev/null || echo unknown)\","
  echo "    \"arch\": \"$(uname -m 2>/dev/null || echo unknown)\","
  echo "    \"cpus\": $(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0),"
  cpu_model=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)
  if [[ -z "$cpu_model" ]] && command -v sysctl >/dev/null 2>&1; then
    cpu_model=$(sysctl -n machdep.cpu.brand_string 2>/dev/null || true)
  fi
  echo "    \"cpu_model\": \"${cpu_model:-unknown}\""
  echo "  },"
  echo "  \"benchtime\": \"$benchtime\","
  echo "  \"benchmarks\": ["
  printf '%s\n' "$raw" | awk '
    BEGIN { sep = "" }
    /^Benchmark/ {
      printf "%s", sep
      printf "    {\"name\":\"%s\",\"iterations\":%s", $1, $2
      for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub("/", "_per_", unit)
        gsub("%", "pct_", unit)
        gsub(/[^A-Za-z0-9_]/, "_", unit)
        gsub(/_+/, "_", unit)
        sub(/_$/, "", unit)
        printf ",\"%s\":%s", unit, $i
      }
      printf "}"
      sep = ",\n"
    }
    END { print "" }'
  echo "  ]"
  echo "}"
} > "$out"

if command -v jq >/dev/null 2>&1; then
  jq -e '.benchmarks | length > 0' "$out" >/dev/null
fi
echo "wrote $out" >&2

# Delta table: the fresh point against the newest committed BENCH_*.json
# (the out file itself excluded, so regenerating a committed point still
# compares against its predecessor).
base=$(git ls-files 'BENCH_*.json' | grep -Fxv "$out" | sort -V | tail -1 || true)
if [[ -n "$base" && -f "$base" ]]; then
  python3 - "$base" "$out" <<'PY' >&2
import json, sys
basePath, newPath = sys.argv[1], sys.argv[2]
base, new = (json.load(open(p)) for p in (basePath, newPath))
byName = {b["name"]: b for b in base["benchmarks"]}
print(f"\ndelta vs {basePath} (rev {base.get('git_rev', '?')}):")
print(f"  {'benchmark':<30} {'metric':<16} {'old':>14} {'new':>14} {'delta':>9}")
for nb in new["benchmarks"]:
    ob = byName.get(nb["name"])
    if ob is None:
        print(f"  {nb['name']:<30} (no baseline entry)")
        continue
    for metric, val in nb.items():
        if metric in ("name", "iterations") or metric not in ob:
            continue
        old = ob[metric]
        pct = f"{100.0 * (val - old) / old:+8.1f}%" if old else "      n/a"
        print(f"  {nb['name']:<30} {metric:<16} {old:>14.6g} {val:>14.6g} {pct}")
PY
else
  echo "no committed BENCH_*.json to diff against" >&2
fi
