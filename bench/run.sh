#!/bin/sh
# Builds moasbench from source inside the checkout and runs it. The build
# cache, go's temp files and the binary all live under .bench_build/, so
# nothing outside the checkout is read or written.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/moasbench" ./cmd/moasbench)
exec "$build/moasbench" "$@"
