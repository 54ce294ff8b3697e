#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to the program
# (see README.md). Everything the build writes — the binary, Go's build
# cache, its config and telemetry — goes to .bench_build/ at the root of the
# checkout, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/asvbenchmark" .)
exec "$build/asvbenchmark" -out "$here/out" "$@"
