#!/usr/bin/env bash
# Builds the benchmark and the morseld under test from source, inside the
# checkout, and runs one benchmark command (see main.go for the flags).
# Everything it writes lands in .bench_build/ and benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C benchmark -o "$build/benchmark" .
go build -C benchmark -o "$build/morseld" repro/cmd/morseld
exec "$build/benchmark" --morseld "$build/morseld" "$@"
