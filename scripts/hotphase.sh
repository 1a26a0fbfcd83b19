#!/bin/sh
# Prints the size and 64-byte phase (address mod 64) of the hot loops the
# fixed benchmark's apsp workloads run, read from a built binary's symbol
# table with `go tool nm -size -sort address`:
#
#   scripts/hotphase.sh .bench_build/parapspbench
#
# A function's phase decides how its loop bodies straddle 64-byte fetch
# blocks. An edit anywhere before it in the link order can shift it and
# move apsp-grid or apsp-powerlaw with no change to its instructions
# (ROADMAP item 5), so compare the output for the two binaries of an A/B
# run before reading a move in those workloads as real.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: scripts/hotphase.sh BINARY" >&2
    exit 2
fi

go tool nm -size -sort address "$1" | awk '
BEGIN {
    n = split("kernel.FoldRow core.(*stepRun).deltaStarSource core.(*batchScratch).msbfs kernel.OrLanes", order, " ")
    for (i = 1; i <= n; i++) want[order[i]] = 1
    hex = "0123456789abcdef"
}
$3 == "T" {
    name = $4
    sub(/^parapsp\/internal\//, "", name)
    if (!(name in want)) next
    # 256 is a multiple of 64, so the last two hex digits fix the phase.
    lo = tolower(substr($1, length($1) - 1))
    phase = ((index(hex, substr(lo, 1, 1)) - 1) * 16 + index(hex, substr(lo, 2, 1)) - 1) % 64
    line[name] = sprintf("%-36s size %5d  phase %2d  addr 0x%s", name, $2, phase, $1)
}
END {
    for (i = 1; i <= n; i++) {
        if (order[i] in line) print line[order[i]]
        else printf "%-36s not in the symbol table (inlined or not linked)\n", order[i]
    }
}'
