#!/usr/bin/env bash
# Builds the benchmark and the commuted/commutefleet daemons from this
# checkout, then runs one workload. Every build product and cache lives
# under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$out/bin" "$out/tmp"
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
(cd "$root" && go build -o "$out/bin/" ./cmd/commuted ./cmd/commutefleet)
exec "$out/bin/perfbench" -root "$root" -out "$out" "$@"
