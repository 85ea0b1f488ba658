#!/bin/sh
# Check that every Obs counter the repository benchmark reads exists.
# perfbench reads each counter with a default of 0 (Obs.Counter.find),
# so a renamed counter would silently read 0 instead of failing.  The
# names are the [counters] list of perfbench/common.ml and the
# numerator and denominator terms of its [ratios]; each must be a key
# of the "counters" object of STATS, a `map --stats` document (a
# TurboSYN run links every counter perfbench reads).
#
# Usage: scripts/check_perfbench_counters.sh STATS
set -eu

if [ "$#" -ne 1 ]; then
  echo "usage: $0 STATS" >&2
  exit 2
fi

common="$(dirname "$0")/../perfbench/common.ml"
python3 - "$common" "$1" <<'PY'
import json, re, sys

src = open(sys.argv[1]).read()

def block(name):
    """The text of the list literal bound by `let NAME =`."""
    start = src.index("[", src.index("let %s =" % name))
    depth = 0
    for i in range(start, len(src)):
        depth += {"[": 1, "]": -1}.get(src[i], 0)
        if depth == 0:
            return src[start : i + 1]
    raise ValueError("unterminated list for " + name)

names = re.findall(r'"([^"]+)"', block("counters"))
for num, dens in re.findall(
    r'\(\s*"[^"]+",\s*"([^"]+)",\s*\[([^\]]*)\]\s*\)', block("ratios")
):
    names += [num] + re.findall(r'"([^"]+)"', dens)
names = sorted(set(names))
if not names:
    sys.exit("check_perfbench_counters: no counter names found in " + sys.argv[1])

counters = json.load(open(sys.argv[2]))["counters"]
missing = [n for n in names if n not in counters]
if missing:
    print("check_perfbench_counters: %s lacks counters perfbench reads: %s"
          % (sys.argv[2], ", ".join(missing)), file=sys.stderr)
    sys.exit(1)
print("check_perfbench_counters: all %d counters perfbench reads are in %s"
      % (len(names), sys.argv[2]))
PY
