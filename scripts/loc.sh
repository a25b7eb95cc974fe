#!/usr/bin/env bash
# Line counts of each crate's `src/**/*.rs`, split into code and tests.
#
#   scripts/loc.sh [REV]
#
# A line is a test line when it is in an in-file test module — from a
# `#[cfg(test)]` line followed by `mod NAME {` to the end of the file —
# or anywhere in a file declared as `#[cfg(test)] mod NAME;`. Every
# other line, blank and comment lines included, is code.
#
# With REV, the same counts are also taken on REV (exported with
# `git archive` into a temporary directory) and the table shows
# REV, the working tree, and the difference per crate.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
rev="${1:-}"
base=""
if [ -n "$rev" ]; then
    base="$(mktemp -d)"
    trap 'rm -rf "$base"' EXIT
    git -C "$repo" archive "$rev" crates | tar -x -C "$base"
fi

python3 - "$repo" "$base" "$rev" <<'EOF'
import os, re, sys

repo, base, rev = sys.argv[1], sys.argv[2], sys.argv[3]
TEST_ATTR = re.compile(r"^\s*#\[cfg\(test\)\]\s*$")
INLINE_MOD = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?mod\s+\w+\s*\{")
FILE_MOD = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?mod\s+(\w+)\s*;")


def module_path(decl, name):
    """The file a `mod name;` in `decl` refers to."""
    d = os.path.dirname(decl)
    stem = os.path.splitext(os.path.basename(decl))[0]
    if stem not in ("lib", "main", "mod"):
        d = os.path.join(d, stem)
    for cand in (os.path.join(d, name + ".rs"), os.path.join(d, name, "mod.rs")):
        if os.path.exists(cand):
            return cand
    return None


def count(root):
    """{crate: (code, tests)} over root/crates/*/src."""
    out = {}
    crates = os.path.join(root, "crates")
    for crate in sorted(os.listdir(crates)):
        src = os.path.join(crates, crate, "src")
        if not os.path.isdir(src):
            continue
        files = sorted(
            os.path.join(dp, f)
            for dp, _, fs in os.walk(src)
            for f in fs
            if f.endswith(".rs")
        )
        test_files, lines = set(), {}
        for path in files:
            with open(path, encoding="utf-8") as fh:
                lines[path] = fh.read().splitlines()
            ls = lines[path]
            for i in range(len(ls) - 1):
                m = FILE_MOD.match(ls[i + 1])
                if TEST_ATTR.match(ls[i]) and m:
                    target = module_path(path, m.group(3))
                    if target:
                        test_files.add(target)
        code = tests = 0
        for path in files:
            ls = lines[path]
            if path in test_files:
                tests += len(ls)
                continue
            cut = len(ls)
            for i in range(len(ls) - 1):
                if TEST_ATTR.match(ls[i]) and INLINE_MOD.match(ls[i + 1]):
                    cut = i
                    break
            code += cut
            tests += len(ls) - cut
        out[crate] = (code, tests)
    return out


def total(counts):
    return tuple(sum(v[i] for v in counts.values()) for i in range(2))


change = count(repo)
if not base:
    print(f"{'crate':<8} {'code':>7} {'tests':>7} {'total':>7}")
    for crate, (c, t) in list(change.items()) + [("all", total(change))]:
        print(f"{crate:<8} {c:>7} {t:>7} {c + t:>7}")
    sys.exit(0)

before = count(base)
print(f"crates/*/src lines: {rev} -> working tree")
print(
    f"{'crate':<8} {'code':>17} {'diff':>6} {'tests':>17} {'diff':>6} {'total':>17} {'diff':>6}"
)
names = sorted(set(before) | set(change))
rows = [(n, before.get(n, (0, 0)), change.get(n, (0, 0))) for n in names]
rows.append(("all", total(before), total(change)))
for crate, (bc, bt), (cc, ct) in rows:
    cells = []
    for b, c in ((bc, cc), (bt, ct), (bc + bt, cc + ct)):
        cells.append(f"{f'{b} -> {c}':>17} {c - b:>+6}")
    print(f"{crate:<8} " + " ".join(cells))
EOF
