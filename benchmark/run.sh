#!/usr/bin/env bash
# Builds the benchmark from the tree it sits in and runs it. Everything the
# build and the run leave behind stays under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/tmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o out/oosqlbench .
exec out/oosqlbench "$@"
