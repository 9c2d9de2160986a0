#!/bin/sh
# Twin-grid farm check.
#
#   check_farm_twins.sh IMO_FARM IMO_SWEEP OUTDIR
#
# Mode N ignores the handler length, so on this grid every N point at
# length 10 twins its length-1 point and shares its lease. The farm's
# report must still equal imo-sweep's byte for byte, and a re-run on the
# same store must be served from it without leasing anything.
set -eu

farm=$1
sweep=$2
outdir=$3

grid="--workloads ora --machines ooo,inorder --modes N,S --lens 1,10
      --scale 0.1"

rm -rf "$outdir"
mkdir -p "$outdir"
# shellcheck disable=SC2086 # $grid is a flag list
"$sweep" $grid --jobs 1 --out "$outdir/sweep.json"
# shellcheck disable=SC2086
"$farm" $grid --workers 2 --store "$outdir/store" \
    --out "$outdir/farm.json"
cmp "$outdir/sweep.json" "$outdir/farm.json"

# shellcheck disable=SC2086
"$farm" $grid --workers 2 --store "$outdir/store" --resume \
    --stats-json "$outdir/rerun_stats.json" --out "$outdir/rerun.json"
cmp "$outdir/sweep.json" "$outdir/rerun.json"
if ! grep -q '"simulated":0,' "$outdir/rerun_stats.json"; then
    echo "check_farm_twins: the store re-run leased work:" >&2
    cat "$outdir/rerun_stats.json" >&2
    exit 1
fi
echo "check_farm_twins: ok"
