#!/usr/bin/env bash
# The seed-1 ledger: every simulated number the benchmark reports, committed.
#
#   scripts/ledger.sh write   # regenerate ledger/seed1.txt from this tree
#   scripts/ledger.sh check   # fail if any simulated number differs from it
#
# Builds this tree's `benchmark` package and runs one `--child --seed 1
# --trace 1` repetition of each workload (the interface `scripts/ab.sh`
# uses). Only the keys listed below are kept: simulated metrics and counts,
# which are deterministic for a seed. No `host.*` key, time or RSS is. A key a
# workload does not print is skipped. `check` is exact equality, with no
# tolerance: a change that moves a simulated number rewrites the file in its
# own diff.
set -euo pipefail
[ $# -eq 1 ] && { [ "$1" = write ] || [ "$1" = check ]; } || { echo "usage: $0 write|check" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
ledger=$root/ledger/seed1.txt
workloads="engine_ring gossip_cold_start publish_steady lossy_revisions"
keys="converged_sim_s deliver_p50_ms deliver_p99_ms deliver_p999_ms delivered_pct wire_bytes_per_delivery
  simnet.events simnet.msgs_sent simnet.msgs_lost simnet.timers_fired
  astrolabe.gossip_rounds astrolabe.rows_merged astrolabe.agg_recomputes astrolabe.refresh_rows
  amcast.forwards amcast.forward_bytes amcast.ack_retries
  newswire.repair_items_sent newswire.repair_bytes newswire.reconcile_requests newswire.delivered
  obs.trace_records obs.trace_dropped"

cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
exe=$root/benchmark/target/release/benchmark
current=$(mktemp)
trap 'rm -f "$current"' EXIT
for w in $workloads; do
  "$exe" --child --workload "$w" --seed 1 --trace 1 > "$current.$w"
  # One line per kept key, in the order of the list above.
  awk -v w="$w" -v keys="$keys" '
    BEGIN { n = split(keys, k); for (i = 1; i <= n; i++) at[k[i]] = i }
    $1 in at { line[at[$1]] = w " " $1 " " $2 }
    END { for (i = 1; i <= n; i++) if (i in line) print line[i] }' "$current.$w" >> "$current"
  rm -f "$current.$w"
done

if [ "$1" = write ]; then
  mkdir -p "$(dirname "$ledger")"
  cp "$current" "$ledger"
  echo "wrote $(wc -l < "$ledger") lines to $ledger"
elif diff -u "$ledger" "$current"; then
  echo "ledger: all $(wc -l < "$ledger") simulated numbers unchanged"
else
  echo "ledger: simulated numbers moved (- committed, + this tree); if intended, run '$0 write' and commit" >&2
  exit 1
fi
