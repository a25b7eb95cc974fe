#!/usr/bin/env bash
# The mutant catalog: every `scripts/mutants/*.patch` breaks one behaviour,
# and its `Test:` header line names the one test that must catch it, as
# `cargo test` arguments.
#
#   scripts/mutants.sh [-r REV] [NAME...]
#
#   -r REV   the revision to mutate (default HEAD); to check uncommitted
#            work, stage it and pass `$(git stash create)`
#   NAME     run only these mutants (a patch's file name without
#            `.patch`); default: all of them
#
# For each mutant the script exports REV with `git archive` into a
# directory of its own, applies the patch there, builds that test with a
# target directory of its own (an export's files carry the commit time,
# so a shared or copied target directory could hold stale artifacts),
# runs only that test and prints one line:
#
#   killed     the test failed: the mutant is caught
#   survived   the test passed: the behaviour is unpinned
#   broken     the patch did not apply, the mutant did not build, or
#              the `Test:` line matched no test
#
# Exit status: 0 if every mutant was killed, else 1; 2 is a usage error.
# MUTANTS_DIR names the scratch directory (default: a fresh temporary
# one, removed on exit).
set -euo pipefail

rev=HEAD
while getopts "r:" opt; do
    case "$opt" in
        r) rev="$OPTARG" ;;
        *) sed -n '6,11p' "$0" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))

repo="$(cd "$(dirname "$0")/.." && pwd)"
if [ -n "${MUTANTS_DIR:-}" ]; then
    work="$MUTANTS_DIR"
    mkdir -p "$work"
else
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
fi

if [ "$#" -gt 0 ]; then
    names=("$@")
else
    names=()
    for patch in "$repo"/scripts/mutants/*.patch; do
        name="${patch##*/}"
        names+=("${name%.patch}")
    done
fi

status=0
for name in "${names[@]}"; do
    patch="$repo/scripts/mutants/$name.patch"
    if [ ! -f "$patch" ]; then
        echo "no mutant named $name" >&2
        exit 2
    fi
    test_args=""
    while IFS= read -r line; do
        case "$line" in
            "Test: "*) test_args="${line#Test: }"; break ;;
        esac
    done <"$patch"
    if [ -z "$test_args" ]; then
        echo "$name: no 'Test:' line" >&2
        exit 2
    fi

    src="$work/$name/src"
    rm -rf "$work/$name"
    mkdir -p "$src"
    git -C "$repo" archive "$rev" | tar -x -C "$src"
    export CARGO_TARGET_DIR="$work/$name/target"
    # The ceiling keeps `git apply` from taking an enclosing repository's
    # root as the patch's base.
    # shellcheck disable=SC2086 # the Test: line is a list of arguments
    if ! (cd "$src" && GIT_CEILING_DIRECTORIES="$work" git apply "$patch") \
        2>"$work/$name/apply.log"; then
        verdict=broken
    elif ! (cd "$src" && cargo test --offline --quiet --no-run $test_args) \
        >"$work/$name/build.log" 2>&1; then
        verdict=broken
    elif (cd "$src" && cargo test --offline --quiet $test_args) \
        >"$work/$name/test.log" 2>&1; then
        # A filter that matches no test passes too: that is no verdict.
        verdict=broken
        while IFS= read -r line; do
            case "$line" in
                "running 0 tests") ;;
                "running "*) verdict=survived ;;
            esac
        done <"$work/$name/test.log"
    else
        verdict=killed
    fi
    printf '%-9s %-34s %s\n' "$verdict" "$name" "$test_args"
    [ "$verdict" = killed ] || status=1
done
exit "$status"
