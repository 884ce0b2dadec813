#!/usr/bin/env bash
# The seed-1 ledger: every simulated number the benchmark reports, committed.
#
#   scripts/ledger.sh write         # regenerate ledger/seed1.txt from this tree
#   scripts/ledger.sh check         # fail if any simulated number differs from it
#   scripts/ledger.sh table         # print ledger/seed1.txt as DESIGN §8's seed table
#   scripts/ledger.sh panel write   # regenerate ledger/panel.txt (seeds 101–190)
#   scripts/ledger.sh panel check   # fail if any panel number differs from it
#   scripts/ledger.sh examples write  # regenerate ledger/examples/<example>.<seed>.txt
#   scripts/ledger.sh examples check  # fail if any example's output differs from it
#   scripts/ledger.sh telemetry write # regenerate ledger/telemetry.42.txt
#   scripts/ledger.sh telemetry check # fail if `telemetry_dump 42` moved from it
#   scripts/ledger.sh experiments write  # regenerate ledger/experiments_quick.txt
#   scripts/ledger.sh experiments check  # fail if any quick-mode table cell moved
#   scripts/ledger.sh footprint write    # regenerate ledger/footprint.txt
#   scripts/ledger.sh footprint check    # fail if any structure's bytes moved
#
# Builds this tree's `benchmark` package and runs one `--child --seed 1
# --trace 1` repetition of each workload (the interface `scripts/ab.sh`
# uses). Only the keys listed below are kept: simulated metrics and counts,
# which are deterministic for a seed. No `host.*` key, time or RSS is. A key a
# workload does not print is skipped. `check` is exact equality, with no
# tolerance: a change that moves a simulated number rewrites the file in its
# own diff. `table` reads the committed file only: one row per key, one
# column per workload, non-integers to six significant digits.
#
# The panel is the same keys over seeds 101–190 of the two NewsWire
# workloads, from `--child --trace 0` runs (the seeds `scripts/ab.sh`
# starts at): one `<workload> <seed> <key> <value>` line per run and key,
# then `<workload> median|q1|q3 <key> <value>` per key (quartiles by
# Python's exclusive method, as `ab.sh` reads them). A tail metric such as
# `lossy_revisions` `deliver_p999_ms` moves seed by seed, so one seed says
# little about it; the panel commits its distribution. `panel check` is
# exact equality too (≈ 4 min on two cores).
#
# The examples ledger is the whole stdout of each determinism-matrix
# example (the CI matrix's list) at seeds 42 and 7. The examples print no
# wall-clock time, so their output is a pure function of the source: a
# change meant to move nothing must leave every file byte-identical.
#
# The telemetry ledger is `telemetry_dump 42`: the sha256 of its stdout
# (the registry JSON, ≈ 5 MB) and of its stderr (summary and trace CSV,
# ≈ 2 MB), then one `<counter> <total over nodes>` line per counter, by
# name. The hashes say whether anything moved; the totals say which
# counter did, including the many no seed-1 key reads.
#
# The experiments ledger is every table cell of the quick suite
# (`experiments --quick --ledger`): one `<id> <row> <column> <value>` line
# per cell, the table's own key cells naming the row (`bench::Table::ledger`),
# and one such line per verdict an experiment prints outside a table (E18's
# breaking points, E21's two verdicts: `bench::print_ledger_line`).
# Host columns (E19's wall s, events/s and peak RSS) print with a `~` mark
# and are neither kept nor compared, nor are the `[… took]` lines. The
# suite's report goes to stdout as it runs, so its own asserts still gate.
#
# The footprint ledger is `footprint_census 1`: the heap bytes each
# structure of `gossip_cold_start`'s deployment holds at the end of a seed-1
# run (agent records, tables, detectors, level records, caches, the rare
# state's boxes, contacts, the per-node telemetry columns and the trace
# ring), summed over nodes and per node. They are computed from lengths and
# capacities, so a change that grows or shrinks a structure shows as a
# diff naming it; one meant to move nothing leaves the file byte-identical.
set -euo pipefail
usage="usage: $0 write|check|table|panel write|panel check|examples write|examples check|telemetry write|telemetry check|experiments write|experiments check|footprint write|footprint check"
if [ $# -eq 2 ] && { [ "$1" = panel ] || [ "$1" = examples ] || [ "$1" = telemetry ] || [ "$1" = experiments ] || [ "$1" = footprint ]; } \
  && { [ "$2" = write ] || [ "$2" = check ]; }; then
  mode=$1-$2
elif [ $# -eq 1 ] && { [ "$1" = write ] || [ "$1" = check ] || [ "$1" = table ]; }; then
  mode=$1
else
  echo "$usage" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
ledger=$root/ledger/seed1.txt
panel=$root/ledger/panel.txt
workloads="engine_ring gossip_cold_start publish_steady lossy_revisions"
keys="converged_sim_s deliver_p50_ms deliver_p99_ms deliver_p999_ms delivered_pct wire_bytes_per_delivery
  simnet.events simnet.msgs_sent simnet.msgs_lost simnet.timers_fired
  astrolabe.gossip_rounds astrolabe.rows_merged astrolabe.agg_recomputes astrolabe.refresh_rows
  amcast.forwards amcast.forward_bytes amcast.dup_ratio amcast.ack_retries amcast.ack_failovers
  newswire.repair_items_sent newswire.repair_bytes newswire.repair_useful_ratio
  newswire.reconcile_requests newswire.delivered
  obs.trace_records obs.trace_dropped"

if [ "$mode" = examples-write ] || [ "$mode" = examples-check ]; then
  examples="partition_heal chaos_day global_news cold_restart adversary_day byzantine_day key_compromise_day"
  flags=""
  for ex in $examples; do flags="$flags --example $ex"; done
  # shellcheck disable=SC2086 # one word per flag
  cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" $flags
  bin=${CARGO_TARGET_DIR:-$root/target}/release/examples
  dir=$root/ledger/examples
  mkdir -p "$dir"
  failed=0
  for ex in $examples; do
    for seed in 42 7; do
      out=$dir/$ex.$seed.txt
      if [ "$mode" = examples-write ]; then
        "$bin/$ex" "$seed" > "$out"
      elif ! "$bin/$ex" "$seed" | diff -u "$out" -; then
        echo "examples: $ex $seed differs from $out (- committed, + this tree)" >&2
        failed=1
      fi
    done
  done
  if [ "$mode" = examples-write ]; then
    echo "wrote $(ls "$dir" | wc -l) example outputs to $dir"
  elif [ "$failed" = 0 ]; then
    echo "examples: all $(ls "$dir" | wc -l) example outputs unchanged"
  fi
  exit "$failed"
fi

if [ "$mode" = footprint-write ] || [ "$mode" = footprint-check ]; then
  cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --example footprint_census
  bin=${CARGO_TARGET_DIR:-$root/target}/release/examples/footprint_census
  file=$root/ledger/footprint.txt
  if [ "$mode" = footprint-write ]; then
    "$bin" 1 > "$file"
    echo "wrote $file"
    exit 0
  fi
  if ! "$bin" 1 | diff -u "$file" -; then
    echo "footprint: a structure's bytes differ from $file (- committed, + this tree)" >&2
    exit 1
  fi
  echo "footprint: every structure's bytes unchanged"
  exit 0
fi

if [ "$mode" = telemetry-write ] || [ "$mode" = telemetry-check ]; then
  cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --example telemetry_dump
  bin=${CARGO_TARGET_DIR:-$root/target}/release/examples/telemetry_dump
  file=$root/ledger/telemetry.42.txt
  run=$(mktemp -d)
  trap 'rm -rf "$run"' EXIT
  "$bin" 42 > "$run/stdout" 2> "$run/stderr"
  {
    echo "stdout sha256 $(sha256sum < "$run/stdout" | cut -d' ' -f1)"
    echo "stderr sha256 $(sha256sum < "$run/stderr" | cut -d' ' -f1)"
    python3 - "$run/stdout" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    dump = json.load(f)
totals = {}
for node in dump["nodes"] + [dump["global"]]:
    for name, value in node["counters"].items():
        totals[name] = totals.get(name, 0) + value
for name in sorted(totals):
    print(name, totals[name])
PY
  } > "$run/ledger"
  if [ "$mode" = telemetry-write ]; then
    cp "$run/ledger" "$file"
    echo "wrote $(wc -l < "$file") lines to $file"
  elif diff -u "$file" "$run/ledger"; then
    echo "telemetry: telemetry_dump 42 unchanged ($(wc -l < "$file") lines)"
  else
    echo "telemetry: telemetry_dump 42 moved (- committed, + this tree); if intended, run '$0 telemetry write' and commit" >&2
    exit 1
  fi
  exit 0
fi

if [ "$mode" = experiments-write ] || [ "$mode" = experiments-check ]; then
  file=$root/ledger/experiments_quick.txt
  run=$(mktemp)
  trap 'rm -f "$run" "$run.cells"' EXIT
  cargo run --release --offline --quiet --manifest-path "$root/Cargo.toml" -p bench \
    --bin experiments -- --quick --ledger | tee "$run"
  grep -E '^[EA][0-9]+[a-z]? ' "$run" > "$run.cells"
  if [ "$mode" = experiments-write ]; then
    cp "$run.cells" "$file"
    echo "wrote $(wc -l < "$file") cells to $file"
  elif diff -u "$file" "$run.cells"; then
    echo "experiments: all $(wc -l < "$file") quick-mode cells unchanged"
  else
    echo "experiments: quick-mode cells moved (- committed, + this tree); if intended, run '$0 experiments write' and commit" >&2
    exit 1
  fi
  exit 0
fi

if [ "$mode" = table ]; then
  awk -v workloads="$workloads" '
    BEGIN { n = split(workloads, w) }
    !($2 in seen) { seen[$2] = 1; rows[++k] = $2 }
    { v[$1, $2] = $3 }
    END {
      printf "| metric |"; for (i = 1; i <= n; i++) printf " `%s` |", w[i]; print ""
      printf "|---|"; for (i = 1; i <= n; i++) printf "---:|"; print ""
      for (j = 1; j <= k; j++) {
        printf "| `%s` |", rows[j]
        for (i = 1; i <= n; i++) {
          x = v[w[i], rows[j]]
          printf " %s |", (x == "" ? "–" : (x == int(x) ? x : sprintf("%.6g", x)))
        }
        print ""
      }
    }' "$ledger"
  exit 0
fi

cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
exe=$root/benchmark/target/release/benchmark
current=$(mktemp)
trap 'rm -f "$current"' EXIT

if [ "$mode" = panel-write ] || [ "$mode" = panel-check ]; then
  for w in publish_steady lossy_revisions; do
    for seed in $(seq 101 190); do
      "$exe" --child --workload "$w" --seed "$seed" --trace 0 \
        | awk -v w="$w" -v seed="$seed" -v keys="$keys" '
            BEGIN { n = split(keys, k); for (i = 1; i <= n; i++) at[k[i]] = i }
            $1 in at { line[at[$1]] = w " " seed " " $1 " " $2 }
            END { for (i = 1; i <= n; i++) if (i in line) print line[i] }' >> "$current"
    done
  done
  python3 - "$current" <<'PY' >> "$current"
import statistics, sys
runs = {}
with open(sys.argv[1]) as f:
    lines = f.read().splitlines()
for line in lines:
    w, _, key, value = line.split()
    runs.setdefault((w, key), []).append(float(value))
for (w, key), v in runs.items():
    q1, median, q3 = statistics.quantiles(v, n=4)
    for name, x in (("median", median), ("q1", q1), ("q3", q3)):
        print(w, name, key, repr(x))
PY
  if [ "$mode" = panel-write ]; then
    cp "$current" "$panel"
    echo "wrote $(wc -l < "$panel") lines to $panel"
  elif diff -u "$panel" "$current"; then
    echo "panel: all $(wc -l < "$panel") simulated numbers unchanged"
  else
    echo "panel: simulated numbers moved (- committed, + this tree); if intended, run '$0 panel write' and commit" >&2
    exit 1
  fi
  exit 0
fi

for w in $workloads; do
  "$exe" --child --workload "$w" --seed 1 --trace 1 > "$current.$w"
  # One line per kept key, in the order of the list above.
  awk -v w="$w" -v keys="$keys" '
    BEGIN { n = split(keys, k); for (i = 1; i <= n; i++) at[k[i]] = i }
    $1 in at { line[at[$1]] = w " " $1 " " $2 }
    END { for (i = 1; i <= n; i++) if (i in line) print line[i] }' "$current.$w" >> "$current"
  rm -f "$current.$w"
done

if [ "$mode" = write ]; then
  mkdir -p "$(dirname "$ledger")"
  cp "$current" "$ledger"
  echo "wrote $(wc -l < "$ledger") lines to $ledger"
elif diff -u "$ledger" "$current"; then
  echo "ledger: all $(wc -l < "$ledger") simulated numbers unchanged"
else
  echo "ledger: simulated numbers moved (- committed, + this tree); if intended, run '$0 write' and commit" >&2
  exit 1
fi
