#!/usr/bin/env bash
# E13's shape gate: acknowledged hand-offs hold survivor delivery under
# churn × gray failure.
#
#   cargo run -p bench --release --bin experiments -- e13 | tee e13.txt
#   scripts/e13_gate.sh e13.txt
#
# Reads an experiments report (full mode: 400 subscribers, eight cells; the
# whole suite's report works too) and fails unless, in every cell of E13's
# table, the ack arm's survivor delivery is at least the no-ack arm's and
# no more than 2 pp — E13's stated resolution: one seed per cell, and any
# change that shifts a random draw moves a cell by 1–3 pp — below the
# floor recorded below for that cell. Percentages print to one decimal and
# are compared in tenths, so 2.0 pp below a floor passes and 2.1 fails.
#
# The floors are fixed: the ack column of the EXPERIMENTS.md recording
# they were set from, which EXPERIMENTS §E13 names. Re-recording the table
# does not move them; a change that means to move a floor edits it here,
# names the recording in EXPERIMENTS §E13 and says why in CHANGES.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 <experiments report>" >&2; exit 2; }
awk '
  BEGIN {
    # churn gray -> ack % floor
    floor["off 0"] = 99.9; floor["off 10"] = 98.1; floor["off 20"] = 95.7; floor["off 30"] = 90.9
    floor["on 0"]  = 99.5; floor["on 10"]  = 96.9; floor["on 20"]  = 90.5; floor["on 30"]  = 85.3
  }
  function tenths(x) { return int(x * 10 + 0.5) }
  /E13 — chaos sweep/ { inblock = 1; next }
  inblock && ($1 == "off" || $1 == "on") && ($1 " " $2) in floor {
    cell = $1 " " $2
    seen[cell] = 1
    if (tenths($4) < tenths($3)) {
      print "E13 ack arm below the no-ack arm (churn " $1 ", gray " $2 "%): " $4 " < " $3; bad = 1
    }
    if (tenths(floor[cell]) - tenths($4) > 20) {
      print "E13 ack arm more than 2 pp below its floor (churn " $1 ", gray " $2 "%): " \
        $4 " vs " floor[cell]; bad = 1
    }
  }
  inblock && /^$/ { inblock = 0 }
  END {
    for (cell in floor) if (!(cell in seen)) { print "E13 cell not found: churn/gray " cell; bad = 1 }
    exit bad
  }
' "$1"
