#!/usr/bin/env bash
# Paired, alternated runs of one benchmark workload on two trees.
#
#   tools/bench-pairs.sh <parent-tree> <change-tree> <workload> <seed> <pairs> [trace]
#
# Each tree must already hold a built benchmark at
# <tree>/benchmark/target/release/jqos-benchmark, e.g. from
#   cargo build --release --offline --manifest-path <tree>/benchmark/Cargo.toml
# This script builds nothing.  It runs the parent's binary, then the
# change's, <pairs> times over (`--seconds 12`, `--trace <trace>`, default 0),
# so a slow spell of the machine lands on both sides, and prints for every
# metric of the result line the median of each side, the parent's quartiles,
# change ÷ parent, and in how many pairs the change read lower.  This is the
# recipe benchmark/README.md asks for behind any `cost_ns_per_op` claim.
#
# The binaries write their result files under <tree>/benchmark/out/, which
# is ignored by git; nothing tracked is written.
set -euo pipefail

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
    sed -n '4p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 pairs=$5 trace=${6:-0}
bin() { echo "$1/benchmark/target/release/jqos-benchmark"; }
for tree in "$parent" "$change"; do
    [ -x "$(bin "$tree")" ] || { echo "no built benchmark at $(bin "$tree")" >&2; exit 1; }
done

lines=$(mktemp)
trap 'rm -f "$lines"' EXIT
for ((i = 1; i <= pairs; i++)); do
    for side in parent change; do
        tree=$parent
        [ "$side" = change ] && tree=$change
        line=$("$(bin "$tree")" --workload "$workload" --seed "$seed" --seconds 12 \
            --trace "$trace" 2>/dev/null | tail -n 1)
        echo "$side $line" >>"$lines"
        echo "pair $i/$pairs $side done" >&2
    done
done

python3 - "$lines" <<'EOF'
import json, statistics, sys

runs = {"parent": [], "change": []}
for raw in open(sys.argv[1]):
    side, line = raw.split(" ", 1)
    runs[side].append(json.loads(line))
for side, rs in runs.items():
    failed = sum(r["failed"] for r in rs)
    wrong = sum(not r["correct"] for r in rs)
    print(f"{side}: {len(rs)} runs, {failed} failed operations, {wrong} incorrect runs")
def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]

names = sorted(set().union(*(r["metrics"] for rs in runs.values() for r in rs)))
print(f"{'metric':<44} {'parent':>12} {'parent q1-q3':>23} {'change':>12} {'ratio':>7}  lower")
for name in names:
    p = [r["metrics"].get(name, {}).get("value") for r in runs["parent"]]
    c = [r["metrics"].get(name, {}).get("value") for r in runs["change"]]
    if None in p or None in c:
        continue
    mp, mc = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    ratio = f"{mc / mp:.3f}" if mp else "-"
    lower = sum(b < a for a, b in zip(p, c))
    print(f"{name:<44} {mp:>12.6g} {q1:>11.5g}-{q3:<11.5g} {mc:>12.6g} {ratio:>7}  {lower}/{len(p)}")
EOF
