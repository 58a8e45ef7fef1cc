#!/usr/bin/env bash
# Do two figure directories hold the same figures?
#
#   tools/figure-identity.sh <dir-a> <dir-b>
#
# The two arguments are figure directories written by `jqos sweep` (each the
# JQOS_FIGURES_DIR of one set of runs, e.g. the parent commit's and this
# change's; docs/BENCHMARKS.md has the loops that fill them).  This script
# runs nothing itself.  It compares
#
#   * every document except BENCH_* byte for byte (the figure series are
#     pure functions of the seeds), and
#   * the per-point `digest` fields of BENCH_sweep_fleet.json and
#     BENCH_sweep_city.json, in order — the rest of those two documents is
#     wall-clock and machine stamp, which may differ.
#
# Prints nothing and exits 0 when the simulation did not change; prints the
# differences and exits 1 otherwise.
set -euo pipefail

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
    echo "usage: $0 <figures-dir-a> <figures-dir-b>" >&2
    exit 2
fi
a=$1
b=$2
status=0

diff -r --exclude='BENCH_*' "$a" "$b" || status=1

digests() {
    # A directory without the document compares as "no digests".
    [ -e "$1" ] && grep -o '"digest": *"0x[0-9a-f]*"' "$1" || true
}
for doc in BENCH_sweep_fleet.json BENCH_sweep_city.json; do
    if ! diff <(digests "$a/$doc") <(digests "$b/$doc") >/dev/null; then
        echo "per-point digests of $doc differ:"
        diff <(digests "$a/$doc") <(digests "$b/$doc") || true
        status=1
    fi
done
exit $status
