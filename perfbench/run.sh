#!/usr/bin/env bash
# Builds the WHISPER benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload onion-send --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the go command's own state
# (GOPATH, and the config directory its telemetry counters live in) are
# kept under .bench_build/ in the current directory, so building writes
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sim" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (the WHISPER sources are not here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOTMPDIR="$out"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
