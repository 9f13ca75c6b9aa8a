#!/usr/bin/env bash
# Records benchmark sets: every workload once per seed, each result
# appended as one tagged JSON line to FILE (relative to the checkout
# root). RUN_SECONDS (default 12) and TRACE (default 0) set --seconds
# and --trace. Compare two recorded sets with
#
#   bash bench/run.sh -compare a.jsonl b.jsonl
#
# Usage: bash bench/sets.sh FILE SEED...
set -euo pipefail
if [ $# -lt 2 ]; then
	echo "usage: bash bench/sets.sh FILE SEED..." >&2
	exit 2
fi
file=$1
shift
here=$(dirname "$0")
for seed in "$@"; do
	for workload in point analytics churn routed build; do
		bash "$here/run.sh" --workload "$workload" --seed "$seed" \
			--seconds "${RUN_SECONDS:-12}" --trace "${TRACE:-0}" --record "$file" >/dev/null
	done
done
