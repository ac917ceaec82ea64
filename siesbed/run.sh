#!/usr/bin/env bash
# Builds the siesbed benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash siesbed/run.sh --workload verify-wide --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/siesbed"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

rev=unknown
if git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
	rev=$(git -C "$root" rev-parse --short=12 HEAD)
	if [ -n "$(git -C "$root" status --porcelain)" ]; then
		rev="$rev-dirty"
	fi
fi
export SIESBED_REV="$rev"

(cd "$root/siesbed" && go build -o "$out/siesbed" .) >&2
exec "$out/siesbed" "$@"
