#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from
# the root of a checkout:
#
#   bash e2ebench/run.sh --workload connect_testbed --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and traces stay under .bench_build in
# the checkout. The module has no dependencies outside the checkout, so
# the build never fetches anything.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=
# The go command keeps telemetry and other state under the user's
# config and cache directories; point them into the checkout too.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
