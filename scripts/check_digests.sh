#!/bin/sh
# Golden trace-digest regression check.
#
# Runs the digest_dump binary (every app under Exec::Det, rows "<app>",
# and under Exec::DetRes, rows "<app>-detres", each on 1/2/4/8 threads)
# and diffs its output against the committed golden file. A
# mismatch means the deterministic schedule changed — either a bug in a
# runtime refactor (fix it) or a deliberate policy change (regenerate
# the golden file with `digest_dump > scripts/golden_digests.txt` and
# justify it in the PR).
#
# Usage: scripts/check_digests.sh <digest_dump-binary> [golden-file]
set -eu

DUMP=${1:?usage: check_digests.sh <digest_dump-binary> [golden-file]}
GOLDEN=${2:-"$(dirname "$0")/golden_digests.txt"}

if [ ! -f "$GOLDEN" ]; then
    echo "check_digests.sh: golden file $GOLDEN missing" >&2
    exit 1
fi

ACTUAL=$("$DUMP")

if ! printf '%s\n' "$ACTUAL" | diff -u "$GOLDEN" - ; then
    # Name the first divergent row ("app threads digest") so the log's
    # one-line verdict says *which* app at *which* width moved, not just
    # that something did. Rows are "app threads hex"; compare in file
    # order and report the first golden/actual pair that differs.
    first=$(printf '%s\n' "$ACTUAL" | diff "$GOLDEN" - | \
            grep -E '^[<>]' | head -1 || true)
    row=$(printf '%s' "$first" | cut -c3-)
    app=$(printf '%s' "$row" | awk '{print $1}')
    threads=$(printf '%s' "$row" | awk '{print $2}')
    echo "check_digests.sh: FIRST DIVERGENCE: app '$app' at $threads" \
         "thread(s) — golden vs actual:" >&2
    grep -E "^$app[ ]+$threads " "$GOLDEN" | sed 's/^/  golden: /' >&2 || true
    printf '%s\n' "$ACTUAL" | grep -E "^$app[ ]+$threads " | \
        sed 's/^/  actual: /' >&2 || true
    echo "check_digests.sh: trace digests diverge from $GOLDEN" >&2
    echo "  (schedule changed; see scripts/check_digests.sh header)" >&2
    exit 1
fi

echo "check_digests.sh: all trace digests match $GOLDEN"
