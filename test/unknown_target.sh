#!/bin/sh
# unknown_target.sh EXE TARGET... — passes iff EXE, given a target list
# that names an unknown target, exits 2 without printing to stdout: the
# drivers check every name before they run anything.
exe=$1
shift
out=$("$exe" "$@" 2>/dev/null)
code=$?
if [ "$code" -ne 2 ] || [ -n "$out" ]; then
  echo "$exe $*: exit $code with $(printf %s "$out" | wc -l) stdout line(s); want exit 2 and none"
  exit 1
fi
