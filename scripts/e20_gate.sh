#!/usr/bin/env bash
# E20's shape gate: the delta wire protocol saves at least 2.5× at equal
# latency.
#
#   cargo run -p bench --release --bin experiments -- e20 | tee e20.txt
#   scripts/e20_gate.sh e20.txt
#
# Reads an experiments report (full mode: `--quick` reads about 2.3×; the
# whole suite's report works too) and fails unless, in E20's table, the
# delta arm's accounted wire bytes undercut the full arm's by at least 2.5×,
# the delta arm's p50 stays within 10 % of the full arm's, and both arms
# deliver 100.0 %. The ratio prints three decimals, so 2.495 reads below
# the gate.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 <experiments report>" >&2; exit 2; }
awk '
  /E20 — delta wire protocol/ { inblock = 1; next }
  inblock && $1 == "full" {
    ffound = 1; f50 = $5
    if ($7 != "100.0") { print "E20 full arm delivery regression: " $0; bad = 1 }
  }
  inblock && $1 == "delta" {
    dfound = 1
    if ($4 + 0 < 2.5)  { print "E20 wire-byte reduction below 2.5x: " $0; bad = 1 }
    if ($7 != "100.0") { print "E20 delta arm delivery regression: " $0; bad = 1 }
    if ($5 + 0 > f50 * 1.1 + 0.01) {
      print "E20 delta arm latency regression: p50 " $5 " vs full " f50; bad = 1
    }
  }
  inblock && /^$/ && dfound { inblock = 0 }
  END {
    if (!ffound || !dfound) { print "E20 rows not found in the report"; exit 1 }
    exit bad
  }
' "$1"
