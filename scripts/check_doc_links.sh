#!/bin/sh
# Documentation link checker: every cross-reference from README.md or a
# doc/*.md file to a repo path must point at something that exists.
#
# Checked reference shapes, extracted by grep:
#   - doc/NAME.md mentions (backticked or bare) in README.md and doc/*.md
#   - lib/..., bin/..., bench/..., perfbench/..., test/..., scripts/...,
#     examples/... path mentions ending in a file extension
#
# Anchors and external URLs are out of scope.  Exit 1 listing every
# dangling reference.
set -eu

cd "$(dirname "$0")/.."

fail=0
sources="README.md $(find doc -name '*.md' | sort)"

for src in $sources; do
  # repo-relative path mentions: doc/X.md, lib/a/b.ml, test/x.ml, ...
  refs=$(grep -oE '(doc|lib|bin|perfbench|bench|test|scripts|examples|workloads)/[A-Za-z0-9_./-]+\.[A-Za-z0-9]+' "$src" \
    | sort -u || true)
  for ref in $refs; do
    case "$ref" in
      *.exe)
        # dune executable target: its source must exist
        ml="${ref%.exe}.ml"
        if [ ! -e "$ml" ]; then
          echo "dangling executable reference in $src: $ref (no $ml)"
          fail=1
        fi
        ;;
      *)
        if [ ! -e "$ref" ]; then
          echo "dangling reference in $src: $ref"
          fail=1
        fi
        ;;
    esac
  done
done

# the concurrency architecture must stay linked from its entry points
for src in README.md doc/ALGORITHM.md doc/PERF.md; do
  if ! grep -q 'doc/CONCURRENCY.md\|CONCURRENCY\.md' "$src"; then
    echo "$src no longer links doc/CONCURRENCY.md"
    fail=1
  fi
done

# the per-request resources doc must stay linked from its entry points
for src in README.md doc/OBSERVABILITY.md doc/CONCURRENCY.md; do
  if ! grep -q 'doc/PROFILING.md\|PROFILING\.md' "$src"; then
    echo "$src no longer links doc/PROFILING.md"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "doc link check FAILED"
  exit 1
fi
echo "doc link check OK ($(echo "$sources" | wc -w) files)"
