#!/bin/sh
# Static environment-determinism audit (detsan v2, lint-side half).
#
# The dynamic half (DETSAN_VALUE taint channels, src/analysis/detsan.h)
# can only flag an environmental value once it reaches a checked channel
# at runtime. This pass closes the other side: it bans the *sources* of
# environment-dependent values from first-party code outright, so the
# only way to consume an address, clock read, runtime hash seed or
# environment variable is through the DETSAN_TAINT_* wrappers — which is
# exactly what makes the dynamic checker sound.
#
# Rules (ERE grep over src/, excluding the sanitizer's own sources):
#   R1 hash-of-pointer      std::hash over a pointer type: iteration or
#                           bucket order becomes a function of ASLR.
#   R2 clock-read           chrono clock reads outside the blessed
#                           timing sites (support/timer.h measures, it
#                           never schedules).
#   R3 stateful-rng         libc rand()/srand(), std::mt19937,
#                           std::random_device, drand48: hidden global
#                           state or a nondeterministic seed. First-party
#                           randomness goes through support::CounterPrng,
#                           a pure function of (seed, op id, step).
#   R4 address-as-integer   reinterpret_cast to uintptr_t: the raw
#                           material of pointer-ordered containers and
#                           worklist tiebreaks.
#   R5 environment-read     getenv: configuration must flow through
#                           explicit, logged knobs, not ambient state.
#   R6 address-taint-use    DETSAN_TAINT_ADDRESS in production code: the
#                           wrapper is how audited address uses announce
#                           themselves; every site needs a justification.
#   R7 raw-atomic           std::atomic declarations or relaxed memory
#                           orders outside the blessed concurrency core
#                           (src/support/, runtime/lockable.h,
#                           runtime/round_engine.h). Ad-hoc atomics are
#                           how racy tiebreaks and unordered folds creep
#                           in; shared state belongs in the audited
#                           primitives the schedule-space model checker
#                           (detmc) certifies, and every exception must
#                           say why its atomics cannot order anything.
#
# A hit is fatal unless the (rule, file) pair appears in the allowlist
# (scripts/detaudit_allowlist.txt), where every entry carries a comment
# saying why the site is sound. An allowlist entry that matches no hit is
# fatal too: a stale entry would silently bless the next hit of its rule
# in that file. Output is LC_ALL=C-sorted, so the report is
# byte-identical across runs and machines.
#
# Usage: scripts/detaudit.sh [--no-allowlist] [--self-test]
#   --no-allowlist  report every hit, including allowlisted ones (used
#                   by tests to prove the seeded probe is visible to the
#                   static audit), exit 1 if any exist
#   --self-test     run the rules against a synthetic bad file and
#                   verify each one fires (guards against rule rot), and
#                   verify a stale allowlist entry is reported
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
ALLOWLIST="$ROOT/scripts/detaudit_allowlist.txt"
USE_ALLOWLIST=1
MODE=scan

for arg in "$@"; do
    case "$arg" in
      --no-allowlist) USE_ALLOWLIST=0 ;;
      --self-test) MODE=selftest ;;
      *)
        echo "usage: detaudit.sh [--no-allowlist] [--self-test]" >&2
        exit 2
        ;;
    esac
done

# Emit "RULE file:line:text", LC_ALL=C-sorted, for every rule hit under
# tree $1 (scans its src/ subtree, relative paths). The sanitizer's own
# sources define the wrappers and are excluded; everything else is in
# scope. Returns 0 whether or not there are hits.
run_rules() {
    tree=$1
    files=$(cd "$tree" && find src \( -name '*.h' -o -name '*.cpp' \) \
                ! -path '*/analysis/detsan.*' | LC_ALL=C sort)
    [ -n "$files" ] || return 0
    (
        cd "$tree"
        # shellcheck disable=SC2086 # first-party paths have no spaces
        {
            grep -nE 'std::hash<[^>]*\*'                       $files | sed 's/^/R1 /' || true
            grep -nE '(steady_clock|system_clock|high_resolution_clock)::now' \
                                                               $files | sed 's/^/R2 /' || true
            grep -nE '[^a-zA-Z_](rand|srand)[ ]*\(|mt19937|random_device|[^a-zA-Z_]drand48' \
                                                               $files | sed 's/^/R3 /' || true
            grep -nE 'reinterpret_cast<[ ]*(std::)?uintptr_t[ ]*>' \
                                                               $files | sed 's/^/R4 /' || true
            grep -nE '[^a-zA-Z_]getenv[ ]*\('                  $files | sed 's/^/R5 /' || true
            grep -nE 'DETSAN_TAINT_ADDRESS'                    $files | sed 's/^/R6 /' || true
            grep -nE 'std::atomic<|memory_order_relaxed'       $files | \
                grep -Ev '^src/support/|^src/runtime/(lockable|round_engine)\.h:' \
                                                                       | sed 's/^/R7 /' || true
        } | LC_ALL=C sort
    )
}

# Print every "<rule> <file>" entry of allowlist $1 that matches no hit in
# $2 (run_rules output), in file order.
stale_entries() {
    grep -E '^R[0-9]+[ ]+[^ ]+$' "$1" | while read -r rule file; do
        printf '%s\n' "$2" | cut -d: -f1 | grep -F -x -q "$rule $file" || \
            echo "$rule $file"
    done
}

# ----------------------------------------------------------------------
# Self-test: every rule must fire on a synthetic violation file and stay
# quiet on a clean one. Guards the rule set itself against regex rot —
# a rule that silently stops matching would otherwise fail open.
# ----------------------------------------------------------------------
if [ "$MODE" = selftest ]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    mkdir -p "$tmp/src"
    cat > "$tmp/src/bad.h" <<'EOF'
std::unordered_map<Node*, int, std::hash<Node*>> m;
auto t0 = std::chrono::steady_clock::now();
int r = rand();
std::mt19937 gen(std::random_device{}());
auto key = reinterpret_cast<std::uintptr_t>(task);
const char* home = getenv("HOME");
const std::uint64_t tb = DETSAN_TAINT_ADDRESS(&task);
std::atomic<unsigned> hand_rolled{0};
x.load(std::memory_order_relaxed);
EOF
    cat > "$tmp/src/good.h" <<'EOF'
const std::uint64_t v = support::CounterPrng::eval(seed, op_id, step);
timer.start(); // support::Timer wraps the blessed clock site
EOF
    # R7's built-in blessing: atomics inside src/support/ are the
    # concurrency core itself and must not trip the rule.
    mkdir -p "$tmp/src/support"
    cat > "$tmp/src/support/blessed.h" <<'EOF'
std::atomic<std::uint32_t> sense_{0};
remaining_.store(n, std::memory_order_relaxed);
EOF
    hits=$(run_rules "$tmp")
    fail=0
    for rule in R1 R2 R3 R4 R5 R6 R7; do
        if ! printf '%s\n' "$hits" | grep -q "^$rule src/bad.h:"; then
            echo "detaudit.sh: SELF-TEST FAILED: rule $rule did not fire" >&2
            fail=1
        fi
    done
    if printf '%s\n' "$hits" | grep -q 'src/good.h:'; then
        echo "detaudit.sh: SELF-TEST FAILED: false positive on clean file" >&2
        fail=1
    fi
    if printf '%s\n' "$hits" | grep -q 'src/support/blessed.h:'; then
        echo "detaudit.sh: SELF-TEST FAILED: R7 fired inside the blessed core" >&2
        fail=1
    fi
    # Stale-entry check: an entry with a hit passes, one without fails.
    printf 'R3 src/bad.h\nR3 src/good.h\n' > "$tmp/allowlist.txt"
    stale=$(stale_entries "$tmp/allowlist.txt" "$hits")
    if [ "$stale" != "R3 src/good.h" ]; then
        echo "detaudit.sh: SELF-TEST FAILED: stale entries reported as" \
             "'$stale', expected 'R3 src/good.h'" >&2
        fail=1
    fi
    [ "$fail" -eq 0 ] || exit 1
    echo "detaudit.sh: self-test OK (7 rules, 0 false positives," \
         "stale entries reported)"
    exit 0
fi

# ----------------------------------------------------------------------
# Scan src/ and split hits by the allowlist.
# ----------------------------------------------------------------------
hits=$(run_rules "$ROOT")

if [ "$USE_ALLOWLIST" -eq 1 ] && [ -f "$ALLOWLIST" ]; then
    stale=$(stale_entries "$ALLOWLIST" "$hits")
    if [ -n "$stale" ]; then
        echo "detaudit.sh: allowlist entries that match no hit (delete them):" >&2
        printf '%s\n' "$stale" >&2
        echo "detaudit.sh: FAILED (stale entries in scripts/detaudit_allowlist.txt)" >&2
        exit 1
    fi
fi

if [ -z "$hits" ]; then
    echo "detaudit.sh: OK (0 hits)"
    exit 0
fi

violations=""
allowed=0
while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    rule=${hit%% *}
    rest=${hit#* }
    file=${rest%%:*}
    if [ "$USE_ALLOWLIST" -eq 1 ] && [ -f "$ALLOWLIST" ] && \
       grep -E -q "^$rule[ ]+$file\$" "$ALLOWLIST"; then
        allowed=$((allowed + 1))
    else
        violations="$violations$hit
"
    fi
done <<EOF
$hits
EOF

if [ -n "$violations" ]; then
    echo "detaudit.sh: environment-determinism violations (rule file:line:text):" >&2
    printf '%s' "$violations" >&2
    echo "detaudit.sh: FAILED ($(printf '%s' "$violations" | grep -c .) hits," \
         "$allowed allowlisted); audited sites go in scripts/detaudit_allowlist.txt" >&2
    exit 1
fi

echo "detaudit.sh: OK ($allowed allowlisted sites, 0 violations)"
