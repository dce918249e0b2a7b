#!/bin/sh
# unlinked.sh prints every function the root package or internal/* declares
# that no shipped binary (cmd/*, examples/*, bench) links, minus the
# oracles and fixtures listed in scripts/unlinked.allow. Inlining is off on
# both sides, so a function is absent from a binary only when the linker
# found it unreachable. Prints nothing when the rule holds; exits 1 otherwise.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# syms lists this module's text symbols in an archive or binary.
syms() {
	go tool nm "$1" | sed -e 's/^[^	]*:	//' -e 's/\.abi0$//' | awk '$2 == "T" && $3 ~ /^rtopex[\/.]/ && $3 !~ /\[/ {print $3}'
}

# Loops redirect to files, not pipes, so a failed build stops the script.
for p in $(go list . ./internal/...); do
	go build -gcflags=-l -o "$tmp/p.a" "$p"
	syms "$tmp/p.a"
done >"$tmp/defined.raw"
sort -u "$tmp/defined.raw" >"$tmp/defined"

for d in cmd/* examples/*; do
	go build -gcflags=all=-l -o "$tmp/bin" "./$d"
	syms "$tmp/bin"
done >"$tmp/linked.raw"
go -C bench build -gcflags=all=-l -o "$tmp/bin" .
syms "$tmp/bin" >>"$tmp/linked.raw"
sort -u "$tmp/linked.raw" >"$tmp/linked"

sed -e 's/[[:space:]]*#.*$//' -e '/^$/d' scripts/unlinked.allow | sort -u >"$tmp/allow"

# Keep only what the source declares: closures, pointer-receiver and
# interface-method wrappers and generic instantiations are the compiler's.
status=0
for s in $(comm -23 "$tmp/defined" "$tmp/linked" | comm -23 - "$tmp/allow"); do
	dir=${s#rtopex}
	dir=${dir%%.*}
	fn=${s#"rtopex$dir."}
	case $fn in
	"(*"*")."*) decl="\\(([A-Za-z_0-9]+ )?\\*$(echo "$fn" | sed 's/^(\*\(.*\))\.\(.*\)$/\1(\\[[^]]*\\])?\\) \2/')" ;;
	*.*) decl="\\(([A-Za-z_0-9]+ )?${fn%%.*}(\\[[^]]*\\])?\\) ${fn#*.}" ;;
	*) decl=$fn ;;
	esac
	if grep -Eqs "^func $decl[(\\[]" $(ls ".$dir"/*.go | grep -v _test.go); then
		echo "$s"
		status=1
	fi
done
exit $status
