#!/bin/sh
# loc.sh — print the number of non-test Go source lines in this module:
# every *.go file except *_test.go, testdata/ fixtures, the nested
# perfbench/ benchmark module and hidden directories. ROADMAP.md tracks
# this count like a benchmark; verify.sh prints it but does not gate on it.
#
# Usage: sh scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
find . -path './.*' -prune -o -path ./perfbench -prune -o -name testdata -prune -o \
	-type f -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l | tr -d ' '
