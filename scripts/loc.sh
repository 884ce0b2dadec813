#!/usr/bin/env bash
# Non-test lines of Rust under crates/: the size figure ROADMAP and CHANGES
# quote.
#
#   scripts/loc.sh                  # this tree's total
#   scripts/loc.sh --files          # one `<lines> <file>` row per file, then the total
#   scripts/loc.sh [--files] <dir>  # the same for another checkout
#
# Every line counts (blank and comment lines too), except:
#   - files under a `tests/` directory, and files named `*_tests.rs`;
#   - each item marked `#[cfg(test)]`, from that attribute through the
#     item's closing brace (or its `;`, or a field's `,`), wherever it sits
#     in the file — not only the first one;
#   - the file of a module declared `#[cfg(test)] mod name;`.
# Braces are matched after removing comments, string and char literals.
set -euo pipefail
files=0
if [ "${1:-}" = --files ]; then
  files=1
  shift
fi
root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
python3 - "$root/crates" "$files" <<'PY'
import os
import re
import sys

crates, per_file = sys.argv[1], sys.argv[2] == "1"
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]\s*(.*)$")
MOD_DECL = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")
CODE = re.compile(
    r'//.*'                                # line comment
    r'|r(#*)".*?"\1'                       # raw string
    r'|b?"(?:\\.|[^"\\])*"'                # string
    r"|b?'(?:\\.|[^'\\])'"                 # char
)


def braces(line):
    """Net `{` minus `}` of a line, literals and comments removed."""
    code = CODE.sub("", line)
    return code.count("{") - code.count("}"), "{" in code, code.rstrip().endswith((";", ","))


def count(path, test_files):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    kept, i = 0, 0
    while i < len(lines):
        m = CFG_TEST.match(lines[i])
        if not m:
            kept += 1
            i += 1
            continue
        # The attribute, any attributes after it, then the item.
        rest = m.group(1)
        if not rest.strip():
            i += 1
            while i < len(lines) and lines[i].lstrip().startswith(("#[", "///", "//")):
                i += 1
            if i == len(lines):
                break
            rest = lines[i]
        decl = MOD_DECL.match(rest)
        if decl:
            test_files.update(module_files(path, decl.group(1)))
            i += 1
            continue
        depth, opened, ended = braces(rest)
        while not (opened and depth <= 0) and not (not opened and ended):
            i += 1
            if i == len(lines):
                break
            d, o, ended = braces(lines[i])
            depth, opened = depth + d, opened or o
        i += 1
    return kept


def module_files(parent, name):
    """The files `mod name;` in `parent` may name."""
    base, stem = os.path.split(parent)
    stem = stem[:-3]
    folder = base if stem in ("lib", "main", "mod") else os.path.join(base, stem)
    return {os.path.join(folder, name + ".rs"), os.path.join(folder, name, "mod.rs")}


paths = []
for dirpath, dirnames, filenames in os.walk(crates):
    dirnames[:] = sorted(d for d in dirnames if d not in ("tests", "target"))
    paths += [os.path.join(dirpath, f) for f in sorted(filenames)
              if f.endswith(".rs") and not f.endswith("_tests.rs")]
test_files = set()
counts = {p: count(p, test_files) for p in paths}
total = 0
for p in paths:
    if p in test_files:
        continue
    total += counts[p]
    if per_file:
        print(counts[p], os.path.relpath(p, os.path.dirname(crates)))
print(total, "non-test lines under crates/")
PY
