#!/usr/bin/env bash
# The performance gate: runs the end-to-end benchmark (bench/run.sh) on a
# base revision and on the working tree in alternated pairs, and fails when
# the working tree is slower or bigger beyond the bounds of BENCHMARK.json.
#
#   bash .github/bench-gate.sh <base-rev>
#
# The base is checked out as a detached git worktree under .bench_gate/,
# removed on exit; each run's output stays in .bench_gate/runs/ until the
# next gate run. For every workload in BENCHMARK.json the gate runs
#
#   bash bench/run.sh --workload W --seed 1 --seconds 5 --trace 0
#
# in each tree, five pairs per workload, the order inside a pair swapped
# from one pair to the next. It fails when
#   - any run exits non-zero or reports "correct": false, or
#   - for some workload and end-to-end metric, the median over pairs of
#     change/base is worse than the metric's bound AND the change is worse
#     in at least 4 of the 5 pairs.
# Metric names, directions and bounds come from BENCHMARK.json; cells_per_s
# is held to 10 % instead of its bound.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: bash .github/bench-gate.sh <base-rev>" >&2
  exit 2
fi
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
cd "$root"
base="$(git rev-parse --verify --quiet "$1^{commit}")" || {
  echo "bench-gate: unknown base revision $1" >&2
  exit 2
}

pairs=5
min_worse=4
cells_bound=0.10
run_args=(--seed 1 --seconds 5 --trace 0)

gate="$root/.bench_gate"
remove_worktree() {
  git worktree remove --force "$gate/base" 2>/dev/null || true
  git worktree prune
}
remove_worktree
rm -rf "$gate"
trap remove_worktree EXIT
mkdir -p "$gate/runs"
git worktree add --quiet --detach "$gate/base" "$base"
echo "bench-gate: base $(git rev-parse --short "$base") against the working tree of $(git rev-parse --short HEAD)"

mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)

# run_one SIDE TREE WORKLOAD PAIR appends the run's JSON result, tagged
# with side, workload and pair, to $gate/runs/all.jsonl.
run_one() {
  local side=$1 tree=$2 w=$3 p=$4
  local out="$gate/runs/$side-$w-$p"
  local code=0
  (cd "$tree" && bash bench/run.sh --workload "$w" "${run_args[@]}") >"$out.out" 2>"$out.err" || code=$?
  local last
  last="$(tail -n 1 "$out.out")"
  if [ "$code" -ne 0 ] || ! jq -e '.correct == true' <<<"$last" >/dev/null 2>&1; then
    echo "bench-gate: FAIL: $side run of $w (pair $p) exited $code or was not correct" >&2
    tail -n 20 "$out.err" >&2
    exit 1
  fi
  jq -c --arg side "$side" --arg w "$w" --argjson p "$p" \
    '{side: $side, workload: $w, pair: $p, metrics: (.metrics | map_values(.value))}' \
    <<<"$last" >>"$gate/runs/all.jsonl"
}

for p in $(seq "$pairs"); do
  for w in "${workloads[@]}"; do
    if [ $((p % 2)) -eq 1 ]; then
      run_one base "$gate/base" "$w" "$p"
      run_one change "$root" "$w" "$p"
    else
      run_one change "$root" "$w" "$p"
      run_one base "$gate/base" "$w" "$p"
    fi
    jq -rs --arg w "$w" --argjson p "$p" '
      [.[] | select(.workload == $w and .pair == $p)] as $r
      | ($r[] | select(.side == "base") | .metrics.cells_per_s) as $b
      | ($r[] | select(.side == "change") | .metrics.cells_per_s) as $c
      | "bench-gate: pair \($p) \($w) cells_per_s base=\($b | round) change=\($c | round) ratio=\($c / $b * 1000 | round / 1000)"
    ' "$gate/runs/all.jsonl"
  done
done

# One row per workload and end-to-end metric: medians of each side, the
# median per-pair ratio change/base, the pairs where the change is worse,
# and the verdict. A metric the base reports and the change does not fails.
jq -rs --slurpfile bm BENCHMARK.json --argjson cells "$cells_bound" --argjson minw "$min_worse" '
  def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                     else (.[length / 2 - 1] + .[length / 2]) / 2 end;
  . as $runs
  | [ $bm[0].workloads[].name as $w
      | $bm[0].end_to_end[] as $m
      | ($m.name) as $k
      | ([$runs[] | select(.workload == $w and .side == "base")] | sort_by(.pair)) as $b
      | ([$runs[] | select(.workload == $w and .side == "change")] | sort_by(.pair)) as $c
      | select(any($b[]; .metrics[$k] != null))
      | (if $k == "cells_per_s" then $cells else $m.bound end) as $bound
      | if any($c[]; .metrics[$k] == null) then
          {w: $w, k: $k, fail: true, line: "\($w) \($k): missing from the change"}
        else
          ([range(0; $b | length) | $c[.].metrics[$k] / $b[.].metrics[$k]]) as $r
          | ($r | median) as $med
          | ([$r[] | select(if $m.better == "higher" then . < 1 else . > 1 end)] | length) as $worse
          | ((if $m.better == "higher" then $med < 1 - $bound else $med > 1 + $bound end) and $worse >= $minw) as $fail
          | {w: $w, k: $k, fail: $fail,
             line: "\($w) \($k) base=\([$b[].metrics[$k]] | median) change=\([$c[].metrics[$k]] | median) ratio=\($med * 1000 | round / 1000) worse=\($worse)/\($r | length) bound=\($bound) \(if $fail then "FAIL" else "ok" end)"}
        end ]
  | (.[] | .line), (if any(.[]; .fail) then "bench-gate: FAIL" else "bench-gate: pass" end)
' "$gate/runs/all.jsonl" | tee "$gate/report.txt"
tail -n 1 "$gate/report.txt" | grep -qx 'bench-gate: pass'
