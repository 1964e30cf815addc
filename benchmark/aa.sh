#!/usr/bin/env bash
# A/A check: run the full benchmark twice on one build and compare.
#
#   benchmark/aa.sh [seed] [seconds]
#
# For every workload it runs the untraced pass twice back to back (sets
# A and B) and the traced pass once, then prints, per workload and
# end-to-end metric, the relative difference between A and B next to the
# metric's bound from BENCHMARK.json. The simulator-deterministic
# metrics must agree exactly. Exits non-zero on any excess, on any
# incorrect run, or when the oracle failed anything.
#
# Set A plus the traced pass are also written to benchmark/out/BENCH.json
# (copy it to benchmark/results/BENCH_<pr>.json to keep a snapshot).
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-11}
seconds=${2:-20}

cargo build --release --locked --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/collabqos-benchmark"
out=benchmark/out
mkdir -p "$out"

workloads=(image_fanout event_storm shaped_lastmile partition_heal)
for w in "${workloads[@]}"; do
  for set in a b; do
    # An incorrect run exits non-zero; the comparison below reports it.
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/aa-$set-$w.txt" || true
  done
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 >"$out/aa-t-$w.txt" || true
done

python3 - "$out" "$seed" "$seconds" "${workloads[@]}" <<'EOF'
import json, re, sys

out, seed, seconds, workloads = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4:]
spec = json.load(open("BENCHMARK.json"))
# Bit-reproducible for a seed: any difference is a behaviour change.
EXACT = {"sim_delivery_ms_p50", "sim_delivery_ms_p99", "goodput_kbit_per_sim_s",
         "wire_bytes_per_delivery", "psnr_db_mean", "fail_share"}

def load(path):
    text = open(path).read()
    result = json.loads(text.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # fail_share and psnr_db_mean are table-only on an untraced run.
    for name in ("fail_share", "psnr_db_mean"):
        m = re.search(rf"^\s+{name}\s+(\S+)", text, re.M)
        if m and name not in values:
            values[name] = float(m.group(1))
    return result, values

bad = 0
snapshot = {"seed": seed, "seconds": seconds, "workloads": {}}
print(f"A/A on one build, seed {seed}, {seconds:g} s per run")
for w in workloads:
    (ra, a), (rb, b), (rt, t) = (load(f"{out}/aa-{s}-{w}.txt") for s in "abt")
    snapshot["workloads"][w] = {
        "attempted": ra["attempted"], "failed": ra["failed"],
        "end_to_end": ra["metrics"], "per_layer": rt["metrics"],
    }
    print(f"\n{w}")
    for r, label in ((ra, "A"), (rb, "B"), (rt, "traced")):
        if not r["correct"] or r["failed"]:
            print(f"  run {label}: INCORRECT ({r['failed']} of {r['attempted']} failed)")
            bad += 1
    rows = [(m["name"], m["bound"]) for m in spec["end_to_end"]]
    rows += [(name, 0.0) for name in ("psnr_db_mean", "fail_share")]
    for name, bound in rows:
        x, y = a[name], b[name]
        if name in EXACT:
            ok, shown = x == y, "exact" if x == y else "DIFFERS"
            bound_text = "must be equal"
        else:
            diff = abs(y - x) / abs(x) if x else 0.0
            ok, shown = diff <= bound, f"{diff * 100:6.2f} %"
            bound_text = f"bound {bound * 100:g} %"
        bad += not ok
        flag = "" if ok else "   <-- EXCESS"
        print(f"  {name:<26} A {x:>14.6g}  B {y:>14.6g}  {shown:>9}  ({bound_text}){flag}")

json.dump(snapshot, open(f"{out}/BENCH.json", "w"), indent=1)
print(f"\nsnapshot written to {out}/BENCH.json")
print("A/A: OK" if not bad else f"A/A: {bad} problem(s)")
sys.exit(1 if bad else 0)
EOF
