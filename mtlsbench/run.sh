#!/usr/bin/env bash
# Builds mtlsd and the benchmark program from the checkout this is run
# in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash mtlsbench/run.sh --workload ingest-burst --seed 1 --seconds 10 --trace 0
#   bash mtlsbench/run.sh all --seed 1 --seconds 10 --trace 0
#
# Every build product, work file and result lands under .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mtlsd" ] || [ ! -f "$root/mtlsbench/go.mod" ]; then
	echo "mtlsbench: run from the repository root (go.mod, cmd/mtlsd and mtlsbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# The Go toolchain's cache, temporary files and telemetry counters stay in
# the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/bin/mtlsd" ./cmd/mtlsd
(cd "$root/mtlsbench" && go build -o "$out/bin/mtlsbench" .)
case "${1:-}" in
compare | spread) exec "$out/bin/mtlsbench" "$@" ;;
all) shift && exec "$out/bin/mtlsbench" all --mtlsd "$out/bin/mtlsd" --out "$out" "$@" ;;
esac
exec "$out/bin/mtlsbench" --mtlsd "$out/bin/mtlsd" --out "$out" "$@"
