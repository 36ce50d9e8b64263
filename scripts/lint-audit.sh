#!/bin/sh
# lint-audit: splicelint's live findings with the suppressions taken out.
# Copies the working tree's files (tracked and untracked, minus ignored
# ones) into a temp dir, strips every //lint:ignore comment outside
# internal/analysis and testdata there, and runs splicelint -json ./...
# on the copy. Writes the findings to $ARTIFACTS/lint-audit.json and
# prints one "analyzer count" line per analyzer. Not a gate: a finding
# here is one a suppression silences in the tree.
#
# usage: GO=go ARTIFACTS=artifacts sh scripts/lint-audit.sh
set -eu
GO=${GO:-go}
ARTIFACTS=${ARTIFACTS:-artifacts}
out=$(pwd)/$ARTIFACTS/lint-audit.json
mkdir -p "$ARTIFACTS"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

git ls-files -co --exclude-standard | while IFS= read -r f; do
    [ -f "$f" ] && printf '%s\n' "$f"
done | tar -cf - -T - | tar -xf - -C "$tmp"

cd "$tmp"
grep -rln '^\s*//lint:ignore \|[^"]//lint:ignore ' --include=*.go internal cmd examples *.go |
    grep -v testdata | grep -v '^internal/analysis/' |
    xargs -r sed -i -E 's#^([^"]*)//lint:ignore .*$#\1#'

# splicelint exits 1 when it reports findings, which is the point here;
# only a usage or load error (2) fails the audit.
"$GO" build -o "$tmp/splicelint.bin" ./cmd/splicelint
rc=0
"$tmp/splicelint.bin" -json ./... > "$out" || rc=$?
[ "$rc" -le 1 ] || exit "$rc"

for a in $("$tmp/splicelint.bin" -list | awk '{print $1}'); do
    printf '%s %d\n' "$a" "$(grep -c "\"analyzer\": \"$a\"" "$out" || true)"
done
