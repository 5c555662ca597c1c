#!/usr/bin/env bash
# Builds collbench and collecho from this checkout and runs collbench. Run
# from the repository root; arguments go to `collbench run`:
#
#   bash bench/run.sh --workload apps-adaptive --seed 1 --seconds 20 --trace 0
#
# The build cache, the binaries, the Go tool's own state and the traced runs'
# spans all stay under .bench_build/ in the checkout; GOTOOLCHAIN and GOPROXY
# keep the go command from fetching anything.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
  GOPROXY=off GOWORK=off
(cd bench && go build -o "$out/collbench" ./collbench && go build -o "$out/collecho" ./collecho)
exec "$out/collbench" run "$@"
