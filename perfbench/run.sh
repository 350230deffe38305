#!/usr/bin/env bash
# Builds darkcrowd and the benchmark from the checkout this is run in, then
# runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload batch_crowd15k --seed 1 --seconds 25 --trace 0
#
# Every file it makes (Go build cache, binaries, generated inputs, run
# files) stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
if [ ! -d cmd/darkcrowd ] || [ ! -f go.mod ]; then
	echo "run.sh: no darkcrowd source (cmd/darkcrowd, go.mod) in $root" >&2
	exit 1
fi
# Go telemetry is switched off through the mode file under XDG_CONFIG_HOME:
# in its default mode the go command starts a detached uploader process that
# outlives the build.
mkdir -p "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$out/darkcrowd" ./cmd/darkcrowd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --bin "$out/darkcrowd" --dir "$out" "$@"
