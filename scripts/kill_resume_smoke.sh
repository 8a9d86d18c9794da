#!/usr/bin/env bash
# Kill-and-resume smoke: SIGKILL a checkpointed sweep mid-run, resume it,
# and require the resumed report to be byte-identical (timing lines aside)
# to an uninterrupted single-worker run.  Exercises the crash-safety
# guarantee end to end: journal atomicity, torn-line replay, and the
# workers=1 == workers=N == fresh == resumed determinism contract.
#
# Usage: scripts/kill_resume_smoke.sh [workdir]
set -euo pipefail

WORKDIR="${1:-$(mktemp -d)}"
mkdir -p "$WORKDIR"
CKPT="$WORKDIR/ckpt"
ARGS=(fig4 --scale smoke --trees 12)
KILL_AFTER="${KILL_AFTER:-2}"

export PYTHONPATH="${PYTHONPATH:-src}"

echo "== reference run (workers=1, no checkpointing)"
python -m repro "${ARGS[@]}" --workers 1 --out "$WORKDIR/reference.txt"

echo "== checkpointed run (workers=4), SIGKILL after ${KILL_AFTER}s"
# setsid gives the CLI and its pool workers a process group of their own.
# A background job of a non-interactive shell is not a group leader, so
# setsid execs in place and the group id is the victim's pid.
setsid python -m repro "${ARGS[@]}" --workers 4 --checkpoint-dir "$CKPT" \
    --out "$WORKDIR/killed.txt" >/dev/null 2>&1 &
VICTIM=$!
sleep "$KILL_AFTER"
# Kill the whole group: SIGKILL to the CLI alone would orphan its workers.
if kill -KILL -- "-$VICTIM" 2>/dev/null; then
    echo "   killed process group $VICTIM mid-run"
else
    echo "   run finished before the kill landed (resume is a pure replay)"
fi
wait "$VICTIM" 2>/dev/null || true

# No process of the group may outlive the kill (give the kernel 10 s).
for _ in $(seq 100); do
    kill -0 -- "-$VICTIM" 2>/dev/null || break
    sleep 0.1
done
if kill -0 -- "-$VICTIM" 2>/dev/null; then
    echo "FAIL: processes of group $VICTIM outlived the kill:" >&2
    ps -o pid=,args= -g "$VICTIM" >&2 || true
    exit 1
fi
echo "   no process of group $VICTIM survived"

echo "== resumed run (workers=4, --resume)"
python -m repro "${ARGS[@]}" --workers 4 --checkpoint-dir "$CKPT" \
    --resume --out "$WORKDIR/resumed.txt"

# The reports embed wall-clock timing lines; strip them before diffing.
strip_timing() { sed -E 's/completed in [0-9.]+s/completed/' "$1"; }

if diff <(strip_timing "$WORKDIR/reference.txt") \
        <(strip_timing "$WORKDIR/resumed.txt"); then
    echo "PASS: resumed run is identical to the uninterrupted run"
else
    echo "FAIL: resumed run diverged from the uninterrupted run" >&2
    exit 1
fi
