#!/bin/sh
# samebytes.sh — byte-identity check of the working tree against another
# revision, for changes that must not alter any output.
#
# Usage:
#   scripts/samebytes.sh <rev>          # e.g. HEAD, or HEAD~1 after committing
#
# Checks <rev> out in a temporary git worktree under $TMPDIR, builds
# sorabench, simrun, soradash and the four examples on both sides, runs
# one fixed command set on each, and cmp's every output pair:
#
#   - the stdout of each example;
#   - simrun -fault-plan combo with -timeline and -manifest (stdout,
#     timeline, manifest), masking only the wall-time field of stdout
#     line 1;
#   - sorabench -exp fig4,chaos,table2,fig12,ctrlplane,ext-unified,fig1
#     -scale 0.001 -seed 3 -timeline D -out D: stdout and every file in D;
#   - the soradash HTML rendered over D.
#
# Exits 1 if any pair differs, 0 if all are identical. The worktree is
# removed on exit. It needs a second revision, so it is not a verify.sh
# gate.
set -eu

if [ $# -ne 1 ]; then
	echo "usage: scripts/samebytes.sh <rev>" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
root=$(pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/samebytes.XXXXXX")
cleanup() {
	git -C "$root" worktree remove --force "$tmp/rev" 2>/dev/null || true
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add --quiet --detach "$tmp/rev" "$1"

examples="quickstart sockshop socialnetwork customtopology"

# produce SRC OUT builds the binaries from the tree at SRC into OUT/bin
# and writes every compared output under OUT/res. Commands run inside
# OUT/res with relative paths, so no output can embed the side's
# absolute directory.
produce() {
	src=$1
	out=$2
	mkdir -p "$out/bin" "$out/res"
	for t in sorabench simrun soradash; do
		(cd "$src" && go build -o "$out/bin/$t" "./cmd/$t")
	done
	for e in $examples; do
		(cd "$src" && go build -o "$out/bin/$e" "./examples/$e")
	done
	cd "$out/res"
	for e in $examples; do
		"$out/bin/$e" >"example_$e.out"
	done
	"$out/bin/simrun" -fault-plan combo -timeline simrun.timeline.jsonl \
		-manifest simrun.manifest.json >simrun.raw
	sed '1s/(wall [^,]*,/(wall -,/' simrun.raw >simrun.out
	rm simrun.raw
	"$out/bin/sorabench" -exp fig4,chaos,table2,fig12,ctrlplane,ext-unified,fig1 \
		-scale 0.001 -seed 3 -timeline D -out D >sorabench.out 2>/dev/null
	"$out/bin/soradash" -out dash.html D
	cd "$root"
}

echo "samebytes: building and running $1"
produce "$tmp/rev" "$tmp/a"
echo "samebytes: building and running the working tree"
produce "$root" "$tmp/b"

status=0
n=0
for f in $(cd "$tmp/a/res" && find . -type f | sort); do
	n=$((n + 1))
	if [ ! -f "$tmp/b/res/$f" ]; then
		echo "only in $1: $f"
		status=1
	elif ! cmp -s "$tmp/a/res/$f" "$tmp/b/res/$f"; then
		echo "differs: $f"
		status=1
	fi
done
for f in $(cd "$tmp/b/res" && find . -type f | sort); do
	if [ ! -f "$tmp/a/res/$f" ]; then
		echo "only in the working tree: $f"
		status=1
	fi
done
if [ "$status" -eq 0 ]; then
	echo "samebytes: all $n outputs identical to $1"
fi
exit "$status"
