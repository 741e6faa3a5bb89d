#!/bin/sh
# Golden stdout of every bcp_sim experiment on its default network.
#
#   test/golden_stdout/check.sh [--update] BCP_SIM JOBS
#
# Runs each command below with --jobs JOBS and compares its stdout with
# test/golden_stdout/<command>.txt; --update rewrites those files
# instead.  One rule masks what may differ between runs: a line that
# starts with "timing:" (a wall clock) reads "timing: <masked>".
# Exits 1 when any output differs.
set -eu
update=0
if [ "${1:-}" = "--update" ]; then update=1; shift; fi
if [ $# -ne 2 ]; then
  echo "usage: $0 [--update] BCP_SIM JOBS" >&2
  exit 2
fi
sim=$1
jobs=$2
dir=$(dirname "$0")
status=0
while read -r name args; do
  out="$dir/$name.txt"
  # shellcheck disable=SC2086
  "$sim" $name $args --jobs "$jobs" | sed -E 's/^timing:.*/timing: <masked>/' > "$out.new"
  if [ "$update" = 1 ]; then
    mv "$out.new" "$out"
  elif cmp -s "$out" "$out.new"; then
    rm "$out.new"
  else
    echo "bcp_sim $name${args:+ $args} --jobs $jobs: stdout differs from $out" >&2
    diff "$out" "$out.new" | head -20 >&2 || true
    rm "$out.new"
    status=1
  fi
done <<'COMMANDS'
table1
table2
table3
fig8
fig9
hotspot
priority
markov
audit
swarm
multi
sensitivity
baseline
routing
recovery --scenarios 3
schemes --scenarios 3
delay --scenarios 3
chaos
churn
COMMANDS
exit $status
