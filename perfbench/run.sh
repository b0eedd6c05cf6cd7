#!/usr/bin/env bash
# Builds the benchmark and the program binaries it drives (pqe, pqed)
# from this checkout, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload tree_fpras --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it writes stays under
# .bench_build/ in the checkout: the Go build cache, the binaries, and
# the logs and span files of each run.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 1
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/work" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# Rebuild only when a Go source or module file changed.
stamp=$(find "$root" -path "$root/.bench_build" -prune -o -path "$root/.git" -prune -o \
	\( -name '*.go' -o -name 'go.mod' -o -name '*.json' \) -type f -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -d' ' -f1)
if [ ! -x "$out/bin/perfbench" ] || [ "$(cat "$out/bin/stamp" 2>/dev/null)" != "$stamp" ]; then
	(cd "$root/perfbench" &&
		go build -o "$out/bin/perfbench" ./cmd/perfbench &&
		go build -o "$out/bin/pqe" pqe/cmd/pqe &&
		go build -o "$out/bin/pqed" pqe/cmd/pqed) >&2
	echo "$stamp" >"$out/bin/stamp"
fi
exec "$out/bin/perfbench" --benchmark "$root/BENCHMARK.json" --bin "$out/bin" --work "$out/work" "$@"
