#!/usr/bin/env bash
# Interleaved A/B of one benchmark workload between two trees, or a panel
# diff of their simulated metrics.
#
#   scripts/ab.sh [--from <seed>] <workload> <pairs> <A> [<dirB>]
#   scripts/ab.sh --panel <A> [<dirB>]
#
# <A> is a checked-out tree or a git revision of this repository; a revision
# is exported once (`git archive`) to target/ab/<commit> and built there.
# <dirB> defaults to this working tree, so `scripts/ab.sh publish_steady 10
# HEAD` is the no-regression run of uncommitted work against its parent.
#
# Each tree runs its *own* `benchmark` binary (built here if missing), one
# `--child --trace 0` repetition per side per pair, seeds 101, 102, … (or
# from `--from <seed>`, so an acceptance run can use seeds that tuned
# nothing), the side that goes first alternating. Prints every pair, then per metric the
# medians, quartiles (Python's exclusive method, as the acceptance rule is
# stated), how many pairs B won, and a verdict, for all nine end-to-end
# metrics. Each metric's direction and bound are read from BENCHMARK.json.
# Beside each verdict it prints A's IQR / A's median, the spread the
# `unresolved` rule weighs against the bound, so a verdict on a noisy host
# metric shows how much of it is A's own scatter.
# The verdict, first rule that applies:
#   tie         every pair reads the same (a simulated metric of a change
#               that moves nothing: the same seed gives the same number,
#               however far apart the seeds' numbers lie)
#   worse       B's median is worse than A's by more than the bound (checked
#               before `unresolved`, so a noisy metric still reports a
#               regression of its median)
#   unresolved  A's IQR / A's median exceeds the bound, and not every run of
#               B reads better than every run of A (the spread is too wide
#               to call the metric unchanged)
#   gain        B wins at least 9 in 10 pairs, ties counting for neither,
#               and the medians differ by more than A's IQR
#   ok          anything else: within the bound
# Below the nine it prints `cpu_s`, each child's user + system CPU seconds
# (bash's `time`), with medians, quartiles and wins but no verdict: it is
# informational, for telling host noise on `wall_s` from a cost the change
# adds (a noisy host moves wall time more than CPU time).
#
# `--panel` compares the simulated metrics — every end-to-end metric whose
# unit is simulated time, a count, bytes or a share — over seeds 101–190 of
# both NewsWire workloads (`--child --trace 0`, the panel ledger's runs).
# A simulated metric is a pure function of the tree and the seed, so each
# seed is one exact comparison and no pairing is needed: per workload and
# metric it prints on how many seeds B reads lower, equal and higher, both
# medians, A's IQR and a verdict — `tie` (every seed equal), `worse` (B's
# median worse by more than the metric's bound), `gain` (B better on at
# least 81 of the 90 seeds and the medians apart by more than A's IQR: the
# gain rule for a simulated metric) or `ok`. Host metrics are not read
# there: they take the interleaved pairs above.
set -euo pipefail
usage="usage: $0 [--from <seed>] <workload> <pairs> <dirA|rev> [<dirB>] | $0 --panel <dirA|rev> [<dirB>]"
first=101
panel=
if [ "${1:-}" = --panel ]; then
  panel=1
  shift
  [ $# -eq 1 ] || [ $# -eq 2 ] || { echo "$usage" >&2; exit 2; }
  set -- panel 90 "$@"
fi
if [ "${1:-}" = --from ]; then
  [[ ${2:-} =~ ^[0-9]+$ ]] || { echo "$usage" >&2; exit 2; }
  first=$2
  shift 2
fi
[ $# -eq 3 ] || [ $# -eq 4 ] || { echo "$usage" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
workload=$1 pairs=$2 dir_a=$3 dir_b=${4:-$root}
if [ ! -d "$dir_a" ]; then
  commit=$(git -C "$root" rev-parse --verify --quiet "$dir_a^{commit}") \
    || { echo "$0: $dir_a is neither a directory nor a revision" >&2; exit 2; }
  dir_a=$root/target/ab/$commit
  if [ ! -d "$dir_a" ]; then
    mkdir -p "$dir_a.tmp"
    git -C "$root" archive "$commit" | tar -x -C "$dir_a.tmp"
    mv "$dir_a.tmp" "$dir_a"
  fi
fi
# The nine end-to-end metrics of BENCHMARK.json (every workload reports all).
metrics="setup_s wall_s peak_rss_mb converged_sim_s deliver_p50_ms deliver_p99_ms deliver_p999_ms delivered_pct wire_bytes_per_delivery"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

bin() {
  local exe=$1/benchmark/target/release/benchmark
  [ -x "$exe" ] || cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml" >&2
  echo "$exe"
}
bin_a=$(bin "$dir_a") bin_b=$(bin "$dir_b")

if [ -n "$panel" ]; then
  simulated="converged_sim_s deliver_p50_ms deliver_p99_ms deliver_p999_ms delivered_pct wire_bytes_per_delivery"
  for w in publish_steady lossy_revisions; do
    for seed in $(seq 101 190); do
      "$bin_a" --child --workload "$w" --seed "$seed" --trace 0 > "$out/A.$w.$seed" &
      "$bin_b" --child --workload "$w" --seed "$seed" --trace 0 > "$out/B.$w.$seed"
      wait
    done
  done
  python3 - "$out" "$root/BENCHMARK.json" $simulated <<'PY'
import json, statistics, sys
out, spec, metrics = sys.argv[1], sys.argv[2], sys.argv[3:]
with open(spec) as f:
    rules = {m["name"]: (m["better"] == "lower", m["bound"]) for m in json.load(f)["end_to_end"]}
seeds = range(101, 191)
def read(side, w, seed):
    with open(f"{out}/{side}.{w}.{seed}") as f:
        return {k: float(v) for k, v in (line.split() for line in f)}
for w in ("publish_steady", "lossy_revisions"):
    runs = {s: [read(s, w, seed) for seed in seeds] for s in "AB"}
    print(f"\n{w}, seeds 101–190: B against A, seed by seed")
    print(f"{'metric':<26}{'B lower':>9}{'equal':>7}{'B higher':>10}{'A median':>14}{'B median':>14}"
          f"{'B/A':>8}{'A IQR':>12}  verdict")
    for m in metrics:
        a, b = ([r[m] for r in runs[s]] for s in "AB")
        lower, bound = rules[m]
        n = len(a)
        below = sum(y < x for x, y in zip(a, b))
        equal = sum(y == x for x, y in zip(a, b))
        above = n - below - equal
        ma, mb = statistics.median(a), statistics.median(b)
        q = statistics.quantiles(a, n=4)
        iqr = q[2] - q[0]
        better = below if lower else above
        if equal == n:
            verdict = "tie"
        elif (mb - ma if lower else ma - mb) > bound * abs(ma):
            verdict = "worse"
        elif better * 90 >= 81 * n and (mb < ma if lower else mb > ma) and abs(mb - ma) > iqr:
            verdict = "gain"
        else:
            verdict = "ok"
        ratio = mb / ma if ma else float("nan")
        print(f"{m:<26}{f'{below}/{n}':>9}{f'{equal}/{n}':>7}{f'{above}/{n}':>10}"
              f"{ma:>14.6g}{mb:>14.6g}{ratio:>8.4f}{iqr:>12.6g}  {verdict}")
PY
  exit 0
fi

run() { # side exe seed
  local TIMEFORMAT='%U %S'
  { time "$2" --child --workload "$workload" --seed "$3" --trace 0 > "$out/$1.$3" 2>&3; } \
    3>&2 2> "$out/$1.$3.cpu"
}

printf '%-5s %-4s' seed side; printf ' %24s' $metrics cpu_s; echo
for i in $(seq 1 "$pairs"); do
  seed=$((first + i - 1))
  if [ $((i % 2)) -eq 1 ]; then run A "$bin_a" $seed; run B "$bin_b" $seed
  else run B "$bin_b" $seed; run A "$bin_a" $seed; fi
  for side in A B; do
    printf '%-5s %-4s' $seed $side
    for m in $metrics; do printf ' %24s' "$(awk -v m="$m" '$1 == m { print $2 }' "$out/$side.$seed")"; done
    printf ' %24s\n' "$(awk '{ print $1 + $2 }' "$out/$side.$seed.cpu")"
  done
done

python3 - "$out" "$pairs" "$first" "$root/BENCHMARK.json" $metrics <<'PY'
import json, statistics, sys
out, pairs, first, spec, metrics = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4], sys.argv[5:]
with open(spec) as f:
    rules = {m["name"]: (m["better"] == "lower", m["bound"]) for m in json.load(f)["end_to_end"]}
def read(side, seed):
    with open(f"{out}/{side}.{seed}") as f:
        values = {k: float(v) for k, v in (line.split() for line in f)}
    with open(f"{out}/{side}.{seed}.cpu") as f:
        values["cpu_s"] = sum(float(v) for v in f.read().split())
    return values
runs = {s: [read(s, first + i) for i in range(pairs)] for s in "AB"}
def quartiles(v):
    return statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
def spread(v):
    q = quartiles(v)
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
print(f"\n{'metric':<26}{'A median [q1, q3]':>36} {'B median [q1, q3]':>36}{'B/A':>8}  {'B wins':<15}"
      f"{'A IQR/med':>10}{'bound':>7}  verdict")
for m in metrics:
    a, b = ([r[m] for r in runs[s]] for s in "AB")
    lower, bound = rules[m]
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    wins = sum(better(y, x) for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    ma, mb = statistics.median(a), statistics.median(b)
    qa = quartiles(a)
    iqr = qa[2] - qa[0]
    every = max(b) < min(a) if lower else min(b) > max(a)
    if ties == pairs:
        verdict = "tie"
    elif (mb - ma if lower else ma - mb) > bound * abs(ma):
        verdict = "worse"
    elif iqr > bound * abs(ma) and not every:
        verdict = "unresolved"
    elif wins * 10 >= 9 * pairs and better(mb, ma) and abs(mb - ma) > iqr:
        verdict = "gain"
    else:
        verdict = "ok"
    won = f"{wins}/{pairs}" + (f" ({ties} ties)" if ties else "")
    rel = iqr / abs(ma) if ma else float("nan")
    print(f"{m:<26}{spread(a):>36} {spread(b):>36}{mb / ma if ma else float('nan'):>8.3f}"
          f"  {won:<15}{rel:>10.4f}{bound:>7.3g}  {verdict}")
a, b = ([r["cpu_s"] for r in runs[s]] for s in "AB")
ma, mb = statistics.median(a), statistics.median(b)
qa = quartiles(a)
won = f"{sum(y < x for x, y in zip(a, b))}/{pairs}"
rel = (qa[2] - qa[0]) / ma if ma else float("nan")
print(f"{'cpu_s':<26}{spread(a):>36} {spread(b):>36}{mb / ma if ma else float('nan'):>8.3f}"
      f"  {won:<15}{rel:>10.4f}{'-':>7}  informational")
PY
