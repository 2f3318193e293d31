#!/usr/bin/env bash
# Alternated A/B pairs of the benchmark (BENCHMARK.json) between a base and
# a change.
#
#   scripts/bench-pairs.sh [--base <rev> | --base-bin <path>] [--new-bin <path>]
#                          [--workloads <a,b,..>] [--pairs <n>] [--seed <n>]
#                          [--seconds <s>] [--smoke] [--trace <0|1>] [--out <dir>]
#
# The base side is either a git revision, built once through a temporary
# `git worktree` into its own CARGO_TARGET_DIR (default: HEAD), or a
# prebuilt bio-benchmark binary. The new side is the working tree, built
# once into another CARGO_TARGET_DIR, or a prebuilt binary. Passing the same
# binary to both sides is an A/A run.
#
# Each workload (default: all of BENCHMARK.json's) runs <pairs> pairs
# (default 5) at one seed (default 42) and --seconds (default
# BENCHMARK.json's run_seconds), at 1/16 size with --smoke; even pairs run
# the base first, odd pairs the change first. The script prints every
# run's ops_per_ref_s, setup_s and peak_rss_mb (with --trace 1: every
# per-layer host-time probe, in ns), each side's median and quartiles, and
# the change's wins (pairs where it is better by the metric's own
# direction). Every result line is kept under --out (default: a temporary
# directory, printed).
#
# Exit status: 0 when every run on both sides reads the same model metrics
# (BENCHMARK.json's end-to-end metrics in simulated units) and, traced,
# the same per-layer counts as the first base run, and no run reports a
# failed operation; 1 otherwise; 2 on a usage or build error. Nothing
# under benchmark/ is edited.
set -euo pipefail

die() { echo "bench-pairs: $*" >&2; exit 2; }

root=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel) || die "not inside the repository"
spec="$root/BENCHMARK.json"

base_rev="" base_bin="" new_bin="" workloads="" pairs=5 seed=42
seconds="" smoke=0 trace=0 out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --base) base_rev=${2:?--base takes a revision}; shift 2 ;;
    --base-bin) base_bin=${2:?--base-bin takes a path}; shift 2 ;;
    --new-bin) new_bin=${2:?--new-bin takes a path}; shift 2 ;;
    --workloads) workloads=${2:?--workloads takes a list}; shift 2 ;;
    --pairs) pairs=${2:?--pairs takes a number}; shift 2 ;;
    --seed) seed=${2:?--seed takes a number}; shift 2 ;;
    --seconds) seconds=${2:?--seconds takes a number}; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --trace) trace=${2:?--trace takes 0 or 1}; shift 2 ;;
    --out) out=${2:?--out takes a directory}; shift 2 ;;
    -h | --help) sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'; exit 0 ;;
    *) die "unknown argument $1 (see --help)" ;;
  esac
done
[ -n "$base_rev" ] && [ -n "$base_bin" ] && die "--base and --base-bin exclude each other"
case "$pairs" in '' | *[!0-9]* | 0) die "--pairs takes a whole number above 0" ;; esac
case "$trace" in 0 | 1) ;; *) die "--trace takes 0 or 1" ;; esac
[ -n "$seconds" ] || seconds=$(jq -r '.run_seconds' "$spec")
[ -n "$workloads" ] || workloads=$(jq -r '[.workloads[].name] | join(",")' "$spec")
# Exact: the model metrics (end-to-end, in simulated units) and, in a
# traced run, every per-layer count. Timed: the host metrics of a timed
# run, or the per-layer host-time probes of a traced one, each with +1
# where higher is better and -1 where lower is.
exact=$(jq -c '[(.end_to_end[] | select(.unit | test("sim"))),
                (.per_layer[] | select(.unit == "count")) | .name]' "$spec")
timed=$(jq -c --arg trace "$trace" '
  if $trace == "1" then [.per_layer[] | select(.unit == "ns")]
  else [.end_to_end[] | select(.unit | test("sim") | not)] end
  | map({key: .name, value: (if .better == "higher" then 1 else -1 end)}) | from_entries' "$spec")

if [ -z "$out" ]; then out=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX"); fi
mkdir -p "$out"
out=$(cd "$out" && pwd)
echo "bench-pairs: results in $out" >&2

build() { # <source dir> <target dir>
  CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml" >&2 || die "build of $1 failed"
  echo "$2/release/bio-benchmark"
}

if [ -z "$base_bin" ]; then
  rev=$(git -C "$root" rev-parse --verify "${base_rev:-HEAD}^{commit}") || die "unknown revision ${base_rev:-HEAD}"
  tree="$out/base-src"
  git -C "$root" worktree add --detach --force "$tree" "$rev" >/dev/null 2>&1 || die "git worktree add failed"
  trap 'git -C "$root" worktree remove --force "$tree" >/dev/null 2>&1 || true' EXIT
  base_bin=$(build "$tree" "$out/target-base")
fi
[ -n "$new_bin" ] || new_bin=$(build "$root" "$out/target-new")
[ -x "$base_bin" ] || die "no executable at $base_bin"
[ -x "$new_bin" ] || die "no executable at $new_bin"

size_args=(--seconds "$seconds")
[ "$smoke" = 1 ] && size_args+=(--smoke)

run() { # <side> <binary> <workload> <pair>
  local file="$out/$3-$1-$4.json" trace_args=()
  [ "$trace" = 1 ] && trace_args=(--trace-out "$out/$3-$1-$4.trace.json")
  "$2" --workload "$3" --seed "$seed" "${size_args[@]}" --trace "$trace" "${trace_args[@]}" \
    2>"$out/$3-$1-$4.stderr" | tail -n 1 >"$file" || die "$1 run of $3 (pair $4) failed"
  jq -e '.metrics' "$file" >/dev/null || die "$1 run of $3 (pair $4) printed no result"
}

# One workload's summary. Input: {base: [result], new: [result]} in pair
# order; quartiles are the medians of the lower and upper halves.
summary='
  def med: sort | length as $n
    | if $n % 2 == 1 then .[($n - 1) / 2] else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
  def quart: sort | length as $n
    | {med: med, q1: (.[0:($n / 2 | floor)] | if length > 0 then med else null end),
       q3: (.[($n / 2 | ceil):] | if length > 0 then med else null end)}
    | .q1 //= .med | .q3 //= .med;
  def pct: . * 10000 | round / 100;
  def m($k): .metrics[$k].value;
  .base as $base | .new as $new
  | "== \($w): \($base | length) pairs (base / new, in pair order)",
    ($timed | to_entries[]
     | .key as $k | .value as $better
     | select($base[0].metrics[$k] != null)
     | [$base[] | m($k)] as $b | [$new[] | m($k)] as $n
     | ($b | quart) as $sb | ($n | quart) as $sn
     | ([range(0; $b | length) | select(($n[.] - $b[.]) * $better > 0)] | length) as $wins
     | "  \($k) base: \($b | map(tostring) | join(" "))",
       "  \($k) new:  \($n | map(tostring) | join(" "))",
       "  \($k): base median \($sb.med) [\($sb.q1), \($sb.q3)], new median \($sn.med) [\($sn.q1), \($sn.q3)], change \(if $sb.med == 0 then "n/a" else "\($sn.med / $sb.med - 1 | pct) %" end), new better in \($wins)/\($b | length) pairs, median shift \(if ($sn.med - $sb.med | fabs) > ($sb.q3 - $sb.q1) then "outside" else "inside" end) the base IQR"),
    ($base[0] as $ref
     | [$base[], $new[]] as $all
     | ($all | map(select([m($exact[])] != [$ref | m($exact[])])) | length) as $moved
     | "  model metrics and counts: \(if $moved == 0 then "identical in every run" else "\($moved) runs differ from the first base run" end); failed operations: \($all | map(.failed) | add)")'

status=0
for w in ${workloads//,/ }; do
  files_base=() files_new=()
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then run base "$base_bin" "$w" "$i"; run new "$new_bin" "$w" "$i"
    else run new "$new_bin" "$w" "$i"; run base "$base_bin" "$w" "$i"; fi
    files_base+=("$out/$w-base-$i.json") files_new+=("$out/$w-new-$i.json")
  done
  report=$(jq -n -r --arg w "$w" --argjson exact "$exact" --argjson timed "$timed" \
    --slurpfile base <(cat "${files_base[@]}") --slurpfile new <(cat "${files_new[@]}") \
    '{base: $base, new: $new} | '"$summary") || die "could not summarise $w"
  echo "$report"
  [[ $report == *"counts: identical in every run; failed operations: 0" ]] || status=1
done
[ "$status" = 0 ] || echo "bench-pairs: a model metric or count differs between runs, or an operation failed" >&2
exit "$status"
