#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run from the
# repository root, e.g.
#
#   bash campaignbench/run.sh --workload quick-all --seed 1 --seconds 30 --trace 0
#
# Build products, the Go build cache and span files stay under
# ${CARGO_TARGET_DIR:-.bench_build}; the Go toolchain is used offline.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
# Fall back to the standard install location when go is not on PATH.
command -v go >/dev/null || PATH="${GOROOT:-/usr/local/go}/bin:$PATH"

(cd campaignbench && go build -o "$out/campaignbench" .) >&2
exec "$out/campaignbench" -trace-dir "$out/traces" "$@"
