#!/usr/bin/env bash
# Alternated A/B run of the benchmark: a base revision against the working
# tree, on this host.
#
#   scripts/ab.sh [-b REV] [-n PAIRS] [-s SECONDS] [-f SEED] [-t] WORKLOAD...
#
#   -b REV      base revision (default HEAD); the change is the working tree
#   -n PAIRS    seeded pairs per workload (default 10)
#   -s SECONDS  measurement seconds per run (default 6)
#   -f SEED     seed of the first pair (default 1), for a confirmation set
#               on seeds a change was not tuned on
#   -t          after the pairs, one traced pass per side per workload
#               (seed SEED, base first), to name the layer a change moved
#
# The base is exported with `git archive` into a scratch directory, and
# each side's `benchmark/` binary is built in its own target directory.
# Pair k runs seed SEED+k-1 on both sides, the base first on odd k and
# the change first on even k, because the host has noisy eras of seconds
# to minutes and only alternated runs compare. For every end-to-end metric in
# BENCHMARK.json it prints each side's median and quartiles, the base's
# IQR (q3 - q1), how many pairs the change won and how many were exact
# ties (every `virt_*` metric of an unchanged model ties in all of them),
# and a verdict:
#
#   gain   the change won at least 9/10 of all pairs (a tie is no win)
#          and its median beats the base median by more than the base IQR
#   worse  the change median is past the base median by more than the
#          metric's BENCHMARK.json bound
#   unresolved
#          neither, and the base's own IQR is wider than that bound
#          (bound x |base median|), so an unchanged median proves nothing;
#          unless every run of the change beats every run of the base
#   —      none of these: unchanged within the bound
#
# With -t it then prints, per workload, every per-layer metric of
# BENCHMARK.json that is non-zero on either side: base, change and
# change/base, the largest move first. One traced pass per side is no
# floor and no verdict: it names a layer, and the pairs above judge.
#
# Exit status: 1 if any run reports `correct: false` or `failed > 0`;
# else 3 if any metric of any workload reads `worse`; else 0. 2 is a
# usage error. `unresolved` is a printed warning only.
#
# AB_DIR names the scratch directory (default: a fresh temporary one);
# reusing it keeps both builds warm between invocations.
set -euo pipefail

base=HEAD
pairs=10
seconds=6
first=1
traced=0
while getopts "b:n:s:f:t" opt; do
    case "$opt" in
        b) base="$OPTARG" ;;
        n) pairs="$OPTARG" ;;
        s) seconds="$OPTARG" ;;
        f) first="$OPTARG" ;;
        t) traced=1 ;;
        *) sed -n '5,13p' "$0" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ "$#" -eq 0 ]; then
    sed -n '5,13p' "$0" >&2
    exit 2
fi
workloads=("$@")

repo="$(cd "$(dirname "$0")/.." && pwd)"
dir="${AB_DIR:-$(mktemp -d)}"
mkdir -p "$dir/results"
rm -rf "$dir/base-src"
mkdir -p "$dir/base-src"
git -C "$repo" archive "$base" | tar -x -C "$dir/base-src"

build() { # SRC TARGET_DIR
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
}
echo "building base ($base) and change in $dir" >&2
build "$dir/base-src" "$dir/target-base"
build "$repo" "$dir/target-change"
cp "$dir/target-base/release/neon-benchmark" "$dir/bench-base"
cp "$dir/target-change/release/neon-benchmark" "$dir/bench-change"

run() { # SIDE WORKLOAD PAIR [TRACE]
    local trace="${4:-0}" out="results/$2.$1.$3.json"
    if [ "$trace" -eq 1 ]; then out="results/$2.$1.traced.json"; fi
    (cd "$dir" && "./bench-$1" run --workload "$2" --seed $((first + $3 - 1)) \
        --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1 >"$out")
}
for w in "${workloads[@]}"; do
    for k in $(seq 1 "$pairs"); do
        if [ $((k % 2)) -eq 1 ]; then order=(base change); else order=(change base); fi
        for side in "${order[@]}"; do
            run "$side" "$w" "$k"
        done
        echo "$w pair $k/$pairs done" >&2
    done
done
if [ "$traced" -eq 1 ]; then
    for w in "${workloads[@]}"; do
        rm -f "$dir/results/$w".*.traced.json
        run base "$w" 1 1
        run change "$w" 1 1
        echo "$w traced passes done" >&2
    done
fi

python3 - "$repo/BENCHMARK.json" "$dir/results" "$pairs" "$traced" "$first" "${workloads[@]}" <<'EOF'
import json, math, statistics, sys

manifest, results, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
traced, first, workloads = sys.argv[4] == "1", sys.argv[5], sys.argv[6:]
metrics, per_layer = manifest["end_to_end"], manifest["per_layer"]
bad = []
worse = []

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q[1], q[0], q[2]

def layers(w):
    docs = {}
    for side in ("base", "change"):
        try:
            docs[side] = json.load(open(f"{results}/{w}.{side}.traced.json")).get("metrics", {})
        except (OSError, ValueError):
            print(f"== {w} traced: no {side} result")
            return
    rows = []
    for m in per_layer:
        b, c = (docs[s].get(m["name"], {}).get("value", 0.0) for s in ("base", "change"))
        if b == 0 and c == 0:
            continue
        ratio = c / b if b else math.inf
        move = abs(math.log(ratio)) if 0 < ratio < math.inf else math.inf
        rows.append((move, m["name"], m["unit"], b, c, ratio))
    rows.sort(key=lambda r: -r[0])
    print(f"== {w} traced, seed {first}: one pass per side, not a floor;"
          " only the pairs above are a verdict")
    print(f"{'per-layer metric':<44}{'unit':>8}{'base':>14}{'change':>14}{'change/base':>13}")
    for _, name, unit, b, c, ratio in rows:
        print(f"{name:<44}{unit:>8}{b:>14.6g}{c:>14.6g}{ratio:>13.3f}")

for w in workloads:
    runs = {side: [] for side in ("base", "change")}
    for side in runs:
        for k in range(1, pairs + 1):
            path = f"{results}/{w}.{side}.{k}.json"
            try:
                doc = json.load(open(path))
            except (OSError, ValueError):
                bad.append(f"{w} {side} pair {k}: no result")
                continue
            if not doc.get("correct") or doc.get("failed", 0) > 0:
                bad.append(f"{w} {side} pair {k}: correct={doc.get('correct')} failed={doc.get('failed')}")
            runs[side].append(doc)
    print(f"== {w} ({pairs} pairs)")
    print(f"{'metric':<22}{'base median [q1, q3]':>36}{'change median [q1, q3]':>36}"
          f"{'base IQR':>11}{'wins':>7}{'ties':>6}  verdict")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {s: [d["metrics"][name]["value"] for d in runs[s] if name in d.get("metrics", {})]
                for s in runs}
        if not vals["base"] or len(vals["base"]) != len(vals["change"]):
            continue
        pairs_ = list(zip(vals["base"], vals["change"]))
        wins = sum((c < b) if lower else (c > b) for b, c in pairs_)
        ties = sum(c == b for b, c in pairs_)
        (bmed, bq1, bq3), (cmed, cq1, cq3) = quartiles(vals["base"]), quartiles(vals["change"])
        iqr = bq3 - bq1
        gained = (bmed - cmed) if lower else (cmed - bmed)
        if lower:
            all_better = max(vals["change"]) < min(vals["base"])
        else:
            all_better = min(vals["change"]) > max(vals["base"])
        if 10 * wins >= 9 * len(pairs_) and gained > iqr:
            verdict = "gain"
        elif -gained > m["bound"] * abs(bmed):
            verdict = "worse"
            worse.append(f"{w} {name}")
        elif iqr > m["bound"] * abs(bmed) and not all_better:
            verdict = "unresolved"
        else:
            verdict = "—"
        cols = [f"{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]", f"{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]"]
        print(f"{name:<22}{cols[0]:>36}{cols[1]:>36}{iqr:>11.4g}"
              f"{wins:>4}/{len(pairs_):<2}{ties:>4}/{len(pairs_)}  {verdict}")
    if traced:
        layers(w)

for b in bad:
    print("FAILED:", b)
for x in worse:
    print("WORSE:", x)
sys.exit(1 if bad else 3 if worse else 0)
EOF
