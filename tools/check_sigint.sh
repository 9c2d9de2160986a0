#!/bin/sh
# Interrupt an in-flight imo-sweep and verify the graceful-shutdown
# contract: exit code 5, a partial report, and an .interrupted marker.
#
#   check_sigint.sh <imo-sweep-binary> <report-path>
set -u
BIN=$1
OUT=$2

rm -f "$OUT" "$OUT.interrupted"

# ~2s per point: long enough that the signal lands mid-sweep, short
# enough that the in-flight point finishes promptly afterwards.
"$BIN" --workloads hydro2d --machines ooo --modes N,S,U,CC \
       --scale 50 --jobs 1 --out "$OUT" &
PID=$!
# Signal only once the SIGINT handler is installed (bit 1 of the
# caught-signal mask in /proc): a fixed sleep could fire before it on a
# slow host and kill the sweep outright. The sweep starts its first
# point right after installing the handler, so the signal still lands
# mid-sweep.
i=0
while [ "$i" -lt 500 ] && [ -r "/proc/$PID/status" ]; do
    case $(sed -n 's/^SigCgt:[[:space:]]*//p' "/proc/$PID/status") in
    *[2367abefABEF]) break ;;
    esac
    i=$((i + 1))
    sleep 0.01
done
kill -INT "$PID" 2>/dev/null
wait "$PID"
RC=$?

if [ "$RC" -ne 5 ]; then
    echo "FAIL: expected exit code 5 after SIGINT, got $RC"
    exit 1
fi
if [ ! -f "$OUT" ]; then
    echo "FAIL: partial report $OUT was not written"
    exit 1
fi
if [ ! -f "$OUT.interrupted" ]; then
    echo "FAIL: marker $OUT.interrupted was not written"
    exit 1
fi
echo "ok: exit 5, partial report and marker present"
exit 0
