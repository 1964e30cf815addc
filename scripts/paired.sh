#!/usr/bin/env bash
# Paired runs of the repo benchmark (BENCHMARK.json) at two revisions.
#
#   scripts/paired.sh <base-rev> <head-rev> [pairs] [seconds] [seeds] [workloads]
#   scripts/paired.sh --self-check
#
# Each revision is extracted with `git archive` into a work directory
# (`$PAIRED_DIR`, default a fresh `mktemp -d`; nothing under `.git`
# changes) and its benchmark built there with its own CARGO_TARGET_DIR.
# Then, per workload and seed, `pairs` untraced runs of `seconds` each
# side, in ABBA order: base first in odd pairs, head first in even ones.
# `seeds` and `workloads` are comma-separated (default 11 and all four
# workloads); pairs default to 10, seconds to 20.
#
# The report, per workload, seed and end-to-end metric: each side's
# median and quartiles, the pairs the head won (ties count for neither),
# the median's change against the metric's bound, and a verdict —
# `WORSE` past the bound, `gain` where ten or more pairs ran, the head
# won at least nine in ten and its median is better by more than the
# base's interquartile range, `ok` otherwise. The simulator-deterministic metrics must be
# equal in every run (`equal`, else `DIFFERS`). It is printed as a
# markdown table and written, with every run's values, to
# `$PAIRED_DIR/paired.json` and `paired.md`. Exits non-zero on a median
# worse than its bound, on a deterministic metric that differs, or on an
# incorrect run.
#
# `--self-check` runs the report on canned result lines, without
# building or running the benchmark, and fails unless it gives the
# verdicts and exit codes written down here.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)

# The report over `$1/runs/<workload>.<seed>.<pair>.<base|head>.txt`,
# each the output of one benchmark run; `$2` is BENCHMARK.json, `$3`
# and `$4` name the two sides.
report() {
  python3 - "$@" <<'EOF'
import glob, json, os, re, sys

work, spec_path, base_label, head_label = sys.argv[1:5]
spec = json.load(open(spec_path))
# Bit-reproducible for a seed: any difference is a behaviour change.
EXACT = {"sim_delivery_ms_p50", "sim_delivery_ms_p99", "goodput_kbit_per_sim_s",
         "wire_bytes_per_delivery", "psnr_db_mean", "fail_share"}

def load(path):
    text = open(path).read()
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0}, {}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # fail_share and psnr_db_mean are table-only on an untraced run.
    for name in ("fail_share", "psnr_db_mean"):
        m = re.search(rf"^\s+{name}\s+(\S+)", text, re.M)
        if m and name not in values:
            values[name] = float(m.group(1))
    return result, values

def quartiles(xs):
    xs = sorted(xs)
    def at(p):
        k = (len(xs) - 1) * p
        f = int(k)
        c = min(f + 1, len(xs) - 1)
        return xs[f] + (xs[c] - xs[f]) * (k - f)
    return at(0.25), at(0.5), at(0.75)

def fmt(x):
    return f"{x:.1f}" if abs(x) >= 1000 else f"{x:.4g}"

runs = {}
for path in sorted(glob.glob(f"{work}/runs/*.txt")):
    w, seed, pair, side = os.path.basename(path)[:-4].split(".")
    runs.setdefault((w, int(seed)), {}).setdefault(int(pair), {})[side] = load(path)

metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
metrics += [("psnr_db_mean", "higher", 0.0), ("fail_share", "lower", 0.0)]
rows, incorrect, bad = [], [], 0
for (w, seed), pairs in sorted(runs.items()):
    complete = {i: p for i, p in sorted(pairs.items()) if "base" in p and "head" in p}
    for i, p in complete.items():
        for side in ("base", "head"):
            r = p[side][0]
            if not r["correct"] or r["failed"]:
                incorrect.append({"workload": w, "seed": seed, "pair": i, "side": side,
                                  "failed": r["failed"], "attempted": r["attempted"]})
                bad += 1
    for name, better, bound in metrics:
        b = [p["base"][1][name] for p in complete.values() if name in p["base"][1]]
        h = [p["head"][1][name] for p in complete.values() if name in p["head"][1]]
        if not b or len(b) != len(h):
            continue
        bq, hq = quartiles(b), quartiles(h)
        change = (hq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
        sign = -1 if better == "lower" else 1
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, h))
        if name in EXACT:
            verdict = "equal" if len(set(b + h)) == 1 else "DIFFERS"
        elif sign * change < -bound:
            verdict = "WORSE"
        elif (len(b) >= 10 and wins >= 0.9 * len(b) and sign * (hq[1] - bq[1]) > 0
              and abs(hq[1] - bq[1]) > bq[2] - bq[0]):
            verdict = "gain"
        else:
            verdict = "ok"
        bad += verdict in ("WORSE", "DIFFERS")
        rows.append({
            "workload": w, "seed": seed, "metric": name, "better": better,
            "bound": bound, "pairs": len(b), "wins": wins, "change": change,
            "base": {"q1": bq[0], "median": bq[1], "q3": bq[2], "values": b},
            "head": {"q1": hq[0], "median": hq[1], "q3": hq[2], "values": h},
            "verdict": verdict,
        })

out = [f"Paired runs, base `{base_label}` vs head `{head_label}`: "
       "median [quartiles] per side, pairs the head won, change of the median.", "",
       "| workload | seed | metric | base | head | change | wins | bound | verdict |",
       "|---|---|---|---|---|---|---|---|---|"]
for r in rows:
    b, h = r["base"], r["head"]
    bound = "exact" if r["metric"] in EXACT else f"{r['bound'] * 100:g} %"
    out.append(
        f"| {r['workload']} | {r['seed']} | {r['metric']} "
        f"| {fmt(b['median'])} [{fmt(b['q1'])}, {fmt(b['q3'])}] "
        f"| {fmt(h['median'])} [{fmt(h['q1'])}, {fmt(h['q3'])}] "
        f"| {r['change'] * 100:+.1f} % | {r['wins']}/{r['pairs']} | {bound} | {r['verdict']} |")
for r in incorrect:
    out.append(f"\nINCORRECT: {r['workload']} seed {r['seed']} pair {r['pair']} "
               f"{r['side']} ({r['failed']} of {r['attempted']} failed)")
out.append("")
out.append("paired: OK" if not bad else f"paired: {bad} problem(s)")
text = "\n".join(out)
print(text)
open(f"{work}/paired.md", "w").write(text + "\n")
json.dump({"base": base_label, "head": head_label, "ok": not bad, "rows": rows,
           "incorrect": incorrect}, open(f"{work}/paired.json", "w"), indent=1)
sys.exit(1 if bad else 0)
EOF
}

if [[ "${1:-}" == "--self-check" ]]; then
  fixture=$(mktemp -d)
  trap 'rm -rf "$fixture"' EXIT
  # One canned run: round p50, correct, sim p50; the rest fixed.
  canned() {
    local round=$1 correct=$2 sim=$3 m='' name value
    printf '  psnr_db_mean    38.4915 dB   1040 views\n  fail_share    0.0 ratio\n'
    for name in setup_s:0.05 deliveries_per_s:1100 round_wall_ms_p50:"$round" \
      cpu_ms_per_delivery:0.9 wall_s_per_sim_s:0.18 sim_delivery_ms_p50:"$sim" \
      sim_delivery_ms_p99:35 goodput_kbit_per_sim_s:45718.25 \
      wire_bytes_per_delivery:59244.2 allocs_per_delivery:19.076 \
      alloc_bytes_per_delivery:14351 peak_rss_mb:23; do
      value=${name#*:}
      m+="${m:+, }\"${name%%:*}\": {\"value\": $value, \"unit\": \"-\"}"
    done
    printf '{"correct": %s, "attempted": 5096, "failed": 0, "metrics": {%s}}\n' "$correct" "$m"
  }
  # `case_dir <name> <base round p50s> <head round p50s> [head correct]
  # [head sim p50]`, the round p50s one a pair, comma-separated; the
  # base is correct with sim p50 20.
  case_dir() {
    local dir="$fixture/$1" i round
    mkdir -p "$dir/runs"
    IFS=, read -r -a base <<<"$2"
    IFS=, read -r -a head <<<"$3"
    for i in "${!base[@]}"; do
      canned "${base[$i]}" true 20 >"$dir/runs/image_fanout.11.$((i + 1)).base.txt"
      canned "${head[$i]}" "${4:-true}" "${5:-20}" >"$dir/runs/image_fanout.11.$((i + 1)).head.txt"
    done
  }
  # want <case> <exit> <pattern>...: the report's exit and lines.
  want() {
    local dir="$fixture/$1" code=$2 got status=0 pattern
    shift 2
    got=$(report "$dir" "$root/BENCHMARK.json" base head) || status=$?
    if [[ $status -ne $code ]]; then
      echo "paired self-check FAILED: $(basename "$dir") exits $status, want $code" >&2
      echo "$got" >&2
      exit 1
    fi
    for pattern in "$@"; do
      if ! grep -qF -- "$pattern" <<<"$got"; then
        echo "paired self-check FAILED: $(basename "$dir") lacks '$pattern'" >&2
        echo "$got" >&2
        exit 1
      fi
    done
  }
  ten=3.0,3.1,3.2,3.3,3.4,3.0,3.1,3.2,3.3,3.4
  # Faster in every one of ten pairs, by more than the base's spread: a
  # gain. The same in four pairs is no claim: too few.
  case_dir faster "$ten" 2.7,2.8,2.75,2.9,2.8,2.7,2.8,2.75,2.9,2.8
  want faster 0 \
    '| image_fanout | 11 | round_wall_ms_p50 | 3.2 [3.1, 3.3] | 2.8 [2.75, 2.8] | -12.5 % | 10/10 | 15 % | gain |' \
    '| sim_delivery_ms_p50 | 20 [20, 20] | 20 [20, 20] | +0.0 % | 0/10 | exact | equal |' \
    '| setup_s | 0.05 [0.05, 0.05] | 0.05 [0.05, 0.05] | +0.0 % | 0/10 | 25 % | ok |' \
    'paired: OK'
  case_dir few 3.0,3.1,3.2,3.3 2.7,2.8,2.75,2.9
  want few 0 '| 2.775 [2.737, 2.825] | -11.9 % | 4/4 | 15 % | ok |' 'paired: OK'
  # Faster in eight pairs of ten: no claim.
  case_dir mixed "$ten" 2.7,2.8,3.3,2.9,2.8,2.7,3.2,2.75,2.9,2.8
  want mixed 0 '| -12.5 % | 8/10 | 15 % | ok |' 'paired: OK'
  # A median past its bound, a deterministic metric that moved, an
  # incorrect run: each fails the report.
  case_dir slower 3.0,3.1,3.2,3.3 3.7,3.8,3.75,3.9
  want slower 1 '| 3.775 [3.737, 3.825] | +19.8 % | 0/4 | 15 % | WORSE |' 'paired: 1 problem(s)'
  case_dir moved 3.0,3.1 3.0,3.1 true 25
  want moved 1 '| sim_delivery_ms_p50 | 20 [20, 20] | 25 [25, 25] | +25.0 % | 0/2 | exact | DIFFERS |'
  case_dir incorrect 3.0,3.1 3.0,3.1 false
  want incorrect 1 'INCORRECT: image_fanout seed 11 pair 1 head (0 of 5096 failed)'
  [[ -s "$fixture/faster/paired.json" && -s "$fixture/faster/paired.md" ]] || {
    echo "paired self-check FAILED: no paired.json / paired.md" >&2
    exit 1
  }
  echo "paired self-check: ok"
  exit 0
fi

if [[ $# -lt 2 ]]; then
  sed -n '2,5p' "$0" >&2
  exit 2
fi
base_rev=$1 head_rev=$2 pairs=${3:-10} seconds=${4:-20}
IFS=, read -r -a seeds <<<"${5:-11}"
IFS=, read -r -a workloads <<<"${6:-image_fanout,event_storm,shaped_lastmile,partition_heal}"
work=${PAIRED_DIR:-$(mktemp -d)}
mkdir -p "$work"
labels=()
for side in base head; do
  rev=$base_rev
  [[ $side == head ]] && rev=$head_rev
  labels+=("$(git -C "$root" rev-parse --short "$rev^{commit}")")
  rm -rf "${work:?}/$side/src"
  mkdir -p "$work/$side/src"
  git -C "$root" archive "$rev" | tar -x -C "$work/$side/src"
  echo "building $side ($rev) in $work/$side" >&2
  CARGO_TARGET_DIR="$work/$side/target" cargo build --release --locked --offline --quiet \
    --manifest-path "$work/$side/src/benchmark/Cargo.toml"
done

rm -rf "${work:?}/runs"
mkdir -p "$work/runs"
for w in "${workloads[@]}"; do
  for seed in "${seeds[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
      order=(base head)
      ((i % 2)) || order=(head base)
      for side in "${order[@]}"; do
        echo "$w seed $seed pair $i/$pairs: $side" >&2
        # An incorrect run exits non-zero; the report names it.
        (cd "$work/$side/src" &&
          "$work/$side/target/release/collabqos-benchmark" --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace 0) >"$work/runs/$w.$seed.$i.$side.txt" || true
      done
    done
  done
done
report "$work" "$root/BENCHMARK.json" "${labels[0]}" "${labels[1]}"
