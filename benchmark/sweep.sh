#!/usr/bin/env bash
# Runs every workload once per seed and collects the results files into one
# set for -compare: bash benchmark/sweep.sh out.jsonl [first-seed] [runs]
set -euo pipefail
out=$1
first=${2:-1}
runs=${3:-10}
: >"$out"
for ((seed = first; seed < first + runs; seed++)); do
	for w in scan_cold query_hot dist_2w serve_mixed ingest_mixed; do
		bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds 13 --trace 0 | tail -n 1 >&2
		tr -d '\n' <"benchmark/out/$w-seed$seed-trace0.json" >>"$out"
		echo >>"$out"
	done
done
