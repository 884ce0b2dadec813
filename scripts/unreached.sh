#!/usr/bin/env bash
# Public functions nothing calls.
#
#   scripts/unreached.sh
#
# Prints, one per line and sorted, every `pub fn` / `pub const fn` name
# defined under `crates/*/src` or `src/` that occurs exactly once — at its
# own definition — across the Rust sources of `crates`, `src`, `tests`,
# `examples` and `benchmark/src`. Such a function is reached by no workload,
# experiment, example, test or CLI, so it can go. A name counts as used
# wherever it appears as a whole word (a call, a path, a doc link), so a
# name shared by two definitions is never printed. Prints nothing when
# every public function is named somewhere else; CI fails on any output.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
defs=$(grep -rhoE --include='*.rs' '^\s*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src src \
  | awk '{ print $NF }' | sort -u)
grep -rhoE --include='*.rs' '[A-Za-z_][A-Za-z0-9_]*' crates src tests examples benchmark/src \
  | sort | uniq -c | awk '$1 == 1 { print $2 }' | sort | comm -12 - <(echo "$defs")
