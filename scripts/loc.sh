#!/usr/bin/env bash
# Prints the net change in Rust source lines against a git ref, one row per
# group: each crates/<name>, then src, tests, examples and vendor, then the
# first-party total (everything but vendor). Compares the working tree,
# including staged changes, with the ref; stage new files (`git add -A`)
# first so they are counted.
#
# Usage: scripts/loc.sh <git-ref>
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: scripts/loc.sh <git-ref>" >&2
  exit 1
fi

git diff --numstat --no-renames "$1" -- '*.rs' | awk '
  {
    split($3, part, "/")
    group = part[1]
    if (group == "crates") group = "crates/" part[2]
    else if (group != "src" && group != "tests" && group != "examples" && group != "vendor") group = "other"
    added[group] += $1
    removed[group] += $2
  }
  END {
    printf "| %-16s | %7s | %7s | %7s |\n", "group", "added", "removed", "net"
    printf "|------------------|--------:|--------:|--------:|\n"
    n = 0
    for (g in added) order[++n] = g
    # Insertion sort keeps the script free of gawk-only asort.
    for (i = 2; i <= n; i++) {
      key = order[i]
      for (j = i - 1; j >= 1 && order[j] > key; j--) order[j + 1] = order[j]
      order[j + 1] = key
    }
    for (i = 1; i <= n; i++) {
      g = order[i]
      printf "| %-16s | %7d | %7d | %+7d |\n", g, added[g], removed[g], added[g] - removed[g]
      if (g != "vendor") { fa += added[g]; fr += removed[g] }
    }
    printf "| %-16s | %7d | %7d | %+7d |\n", "first-party", fa, fr, fa - fr
  }'
