#!/usr/bin/env bash
# Builds and runs nvdbench. Run it from the repository root:
#
#   bash bench/run.sh --workload read-hot --seed 1 --seconds 16 --trace 0
#   bash bench/run.sh compare .bench_build/before .bench_build/after
#
# Every build artifact, scratch file, the Go build cache and the go
# command's own config and telemetry stay under .bench_build/ in the
# repository, and the toolchain never reaches for the network (no module
# downloads, no toolchain switch).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/bin/nvdbench" ./nvdbench)
exec "$build/bin/nvdbench" "$@"
