#!/usr/bin/env bash
# A/A check: runs the untraced benchmark as two interleaved sets (A,B,B,A,…)
# of the same binary, every run with a seed of its own, and prints per
# workload × end-to-end metric both medians, both inter-quartile ranges
# (as a share of the median, the way the driver takes them), how much
# worse B's median is than A's, the bound from BENCHMARK.json and
# PASS/FAIL. A metric passes when B is not worse than A by more than the
# bound and — setup_s excepted — both spreads stay within it.
#
#   bash benchmark/aa.sh [runs-per-set] [workload…] > benchmark/AA.md
#
# Ten runs per set (the default) take about 45 minutes on two cores.
# AA_REPORT_ONLY=1 skips the runs and prints the table again from the
# results the last session left in .bench_build/aa (after a bound moved).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
runs=${1:-10}
shift || true
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(fanin_dyn indegree2_default zipf_ladder serve_mix)
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out="$root/.bench_build/aa"
mkdir -p "$out"

one() { # set workload index
	local seed=$(( $3 + 1 ))
	[ "$1" = B ] && seed=$(( seed + 100 ))
	bash benchmark/run.sh --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 |
		tail -n 1 >"$out/$1-$2-$3.json"
}
for w in "${workloads[@]}"; do
	[ -n "${AA_REPORT_ONLY:-}" ] && break
	rm -f "$out"/?-"$w"-*.json
	for ((i = 0; i < runs; i++)); do
		if ((i % 2 == 0)); then order=(A B); else order=(B A); fi
		for s in "${order[@]}"; do
			one "$s" "$w" "$i"
			echo "$s $w run $i done" >&2
		done
	done
done

python3 - "$out" "$runs" "${workloads[@]}" <<'EOF'
import json, statistics, sys
out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))
print(f"# A/A: two interleaved sets of {runs} runs of one binary, {bench['run_seconds']} s each\n")
print("Spread is the distance between the first and third quartile "
      "(`statistics.quantiles(values, n=4)`) as a share of the median. "
      "`B worse by` is B's median against A's, in the metric's worse direction.\n")
print("| workload | metric | median A | spread A | median B | spread B | B worse by | bound | |")
print("|---|---|---|---|---|---|---|---|---|")
failed = 0
for w in workloads:
    sets = {}
    for s in "AB":
        rs = [json.load(open(f"{out}/{s}-{w}-{i}.json")) for i in range(runs)]
        bad = sum(not r["correct"] for r in rs)
        if bad:
            print(f"| {w} | **{bad} runs of set {s} reported correct=false** | | | | | | | FAIL |")
            failed += 1
        sets[s] = rs
    for m in bench["end_to_end"]:
        stat = {}
        for s, rs in sets.items():
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            stat[s] = (med, (q[2] - q[0]) / med)
        (ma, sa), (mb, sb) = stat["A"], stat["B"]
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(sa, sb) <= m["bound"])
        failed += not ok
        print(f"| {w} | {m['name']} ({m['unit']}) | {ma:.6g} | {sa:.4f} | {mb:.6g} | {sb:.4f} "
              f"| {worse:+.4f} | {m['bound']} | {'PASS' if ok else 'FAIL'} |")
print(f"\n{'All rows pass.' if not failed else f'{failed} rows fail.'}")
sys.exit(1 if failed else 0)
EOF
