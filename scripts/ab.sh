#!/usr/bin/env bash
# Interleaved A/B of one benchmark workload between two trees.
#
#   scripts/ab.sh <workload> <pairs> <A> [<dirB>]
#
# <A> is a checked-out tree or a git revision of this repository; a revision
# is exported once (`git archive`) to target/ab/<commit> and built there.
# <dirB> defaults to this working tree, so `scripts/ab.sh publish_steady 10
# HEAD` is the no-regression run of uncommitted work against its parent.
#
# Each tree runs its *own* `benchmark` binary (built here if missing), one
# `--child --trace 0` repetition per side per pair, seeds 101, 102, …, the
# side that goes first alternating. Prints every pair, then per metric the
# medians, quartiles (Python's exclusive method, as the acceptance rule is
# stated) and how many pairs B won, for all nine end-to-end metrics. Lower is
# better except `delivered_pct`.
set -euo pipefail
[ $# -eq 3 ] || [ $# -eq 4 ] || { echo "usage: $0 <workload> <pairs> <dirA|rev> [<dirB>]" >&2; exit 2; }
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

run() { # side exe seed
  "$2" --child --workload "$workload" --seed "$3" --trace 0 > "$out/$1.$3"
}

printf '%-5s %-4s' seed side; printf ' %24s' $metrics; echo
for i in $(seq 1 "$pairs"); do
  seed=$((100 + i))
  if [ $((i % 2)) -eq 1 ]; then run A "$bin_a" $seed; run B "$bin_b" $seed
  else run B "$bin_b" $seed; run A "$bin_a" $seed; fi
  for side in A B; do
    printf '%-5s %-4s' $seed $side
    for m in $metrics; do printf ' %24s' "$(awk -v m="$m" '$1 == m { print $2 }' "$out/$side.$seed")"; done
    echo
  done
done

python3 - "$out" "$pairs" $metrics <<'PY'
import statistics, sys
out, pairs, metrics = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
def read(side, seed):
    with open(f"{out}/{side}.{seed}") as f:
        return {k: float(v) for k, v in (line.split() for line in f)}
runs = {s: [read(s, 100 + i) for i in range(1, pairs + 1)] for s in "AB"}
def spread(v):
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
print(f"\n{'metric':<26}{'A median [q1, q3]':>36}{'B median [q1, q3]':>36}{'B/A':>8}  B wins")
for m in metrics:
    a, b = ([r[m] for r in runs[s]] for s in "AB")
    better = (lambda x, y: x > y) if m == "delivered_pct" else (lambda x, y: x < y)
    wins = sum(better(y, x) for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    ma, mb = statistics.median(a), statistics.median(b)
    print(f"{m:<26}{spread(a):>36}{spread(b):>36}{mb / ma if ma else float('nan'):>8.3f}"
          f"  {wins}/{pairs}" + (f" ({ties} ties)" if ties else ""))
PY
