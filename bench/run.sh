#!/usr/bin/env bash
# One entry point for a full result set: build once, then for every
# workload RUNS untraced runs and one traced run, each in its own
# process. Writes out/bench.json (the file `-compare` reads) and
# out/spans-<workload>.json. Extra arguments go to the harness, e.g.
#   bench/run.sh -seed 2 -json out/seed2.json
set -euo pipefail
cd "$(dirname "$0")"

case "$(go env GOFLAGS)" in
*-race*)
	echo "bench/run.sh: GOFLAGS contains -race; refusing to measure a race-detector build" >&2
	exit 2
	;;
esac

mkdir -p out
go build -o out/bench .
exec ./out/bench -runs "${RUNS:-3}" -json out/bench.json -trace out/spans.json "$@"
