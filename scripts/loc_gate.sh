#!/usr/bin/env bash
# loc_gate.sh — fail when the tree's non-blank, non-comment, non-test Go line
# count (`make loc`, last line) exceeds scripts/loc.baseline. The code may
# shrink freely; the only way to let it grow is to raise the number in that
# file in the same PR, with a CHANGES.md line saying what the lines bought.
# After a PR that shrinks the tree, lower the baseline to the new total so the
# gain is kept. Shells out to `make loc` only, so it works offline.
set -eu
cd "$(dirname "$0")/.."

baseline=$(tr -dc '0-9' < scripts/loc.baseline)
total=$(make -s loc | awk '$2 == "total" {print $1}')
if [ -z "$baseline" ] || [ -z "$total" ]; then
    echo "loc gate: could not read baseline ('$baseline') or total ('$total')" >&2
    exit 2
fi
echo "loc gate: $total lines, baseline $baseline"
if [ "$total" -gt "$baseline" ]; then
    echo "loc gate: the tree grew by $((total - baseline)) lines." >&2
    echo "Delete as much as you add, or raise scripts/loc.baseline and say why in CHANGES.md." >&2
    exit 1
fi
