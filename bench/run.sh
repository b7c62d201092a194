#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark into .bench_build/ at the
# root of the checkout and runs it from bench/, passing the arguments on.
# Go's build cache, module cache and configuration directory are put under
# .bench_build/ too, so building writes nothing outside the checkout and
# fetches nothing. When the binary is up to date the build is a check of a
# fraction of a second. In a directory that holds only the benchmark's own
# files the build fails (there is no module to replace onto) and so does
# this script, before any result is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go build -C "$here" -o "$build/bench" repro/bench
cd "$here"
exec "$build/bench" "$@"
