#!/bin/sh
# Check that a committed JSON baseline carries the schema string the
# tool emits today: the top-level "schema" member of COMMITTED must
# equal that of EMITTED (a fresh run's output).  A baseline left behind
# by a schema bump fails here instead of confusing a later diff.
#
# Usage: scripts/check_schema.sh COMMITTED EMITTED
set -eu

if [ "$#" -ne 2 ]; then
  echo "usage: $0 COMMITTED EMITTED" >&2
  exit 2
fi

schema_of() {
  python3 -c 'import json, sys; print(json.load(open(sys.argv[1])).get("schema", ""))' "$1"
}

committed=$(schema_of "$1")
emitted=$(schema_of "$2")
if [ "$committed" != "$emitted" ]; then
  echo "check_schema: $1 has schema \"$committed\" but the tool emits \"$emitted\" ($2)" >&2
  exit 1
fi
echo "check_schema: $1 is $committed"
