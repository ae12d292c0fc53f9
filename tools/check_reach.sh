#!/bin/sh
# Reachability check for src/: every gsx:: function the libraries define
# must be reached from a shipped binary (a bench, bench_e2e included, an
# example or a tool), not only from the test binaries.
#
# It configures and builds the tree at -O0, since inlining would hide
# callers, with every function in its own section, and links with
# --gc-sections, so each executable keeps exactly the functions it can
# reach. It then takes
#   - every strong (T) gsx:: symbol of the libgsx_*.a archives, and
#   - every instance of a function template declared in src, wherever it
#     is made (archives or executables): a weak symbol whose name, before
#     its parameter list, ends in a template argument list, as
#     gsx::la::syrk<float>. The tests declare their own templates in
#     gsx::test or in unnamed namespaces, which are left out;
# inline class members in headers are outside its scope. It prints the
# functions reached only from test binaries and those reached from no
# binary, less the entries of tools/reach_allowlist.txt, and exits 1 when
# any is left or an allowlist entry no longer matches a finding (exit 2:
# no usable build).
#
# Usage: tools/check_reach.sh [build-dir]   (default: $TMPDIR/gsx-reach)
# The build alone takes a few CPU-minutes, so this is not a ctest entry.
set -eu
export LC_ALL=C

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-${TMPDIR:-/tmp}/gsx-reach}
allow="$root/tools/reach_allowlist.txt"
# Never reconfigure someone's Release or sanitizer tree.
if [ -f "$build/CMakeCache.txt" ] &&
   ! grep -qx 'CMAKE_EXE_LINKER_FLAGS:STRING=-Wl,--gc-sections' "$build/CMakeCache.txt"; then
  echo "check_reach: $build holds another build; give a new directory or one it made"
  exit 2
fi
mkdir -p "$build/reach"
work="$build/reach"

if ! cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
       -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
       -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > "$work/build.log" 2>&1 ||
   ! cmake --build "$build" -j "$(nproc)" >> "$work/build.log" 2>&1; then
  tail -n 40 "$work/build.log"
  echo "check_reach: the build failed (log: $work/build.log)"
  exit 2
fi

# Executables under the given directories (two levels: bench/e2e).
binaries() {
  find "$@" -maxdepth 2 -type f -perm -u+x | while IFS= read -r f; do
    [ "$(head -c 4 "$f" | od -An -c | tr -d ' ')" = '177ELF' ] && echo "$f"
  done
  return 0
}
# "TYPE NAME" of every symbol the listed executables define, demangled.
symbols_of() {
  tr '\n' '\0' < "$1" | xargs -0 nm -C --defined-only | sed -n 's/^[0-9a-f]* \([A-Za-z]\) /\1 /p'
}

binaries "$build/bench" "$build/examples" "$build/tools" > "$work/shipped.bins"
binaries "$build/tests" > "$work/test.bins"
if [ ! -s "$work/shipped.bins" ] || [ ! -s "$work/test.bins" ]; then
  echo "check_reach: no shipped or no test executables under $build"
  exit 2
fi
symbols_of "$work/shipped.bins" > "$work/shipped.nm"
symbols_of "$work/test.bins" > "$work/tested.nm"
sed -n 's/^[TtWw] //p' "$work/shipped.nm" | sort -u > "$work/shipped"
sed -n 's/^[TtWw] //p' "$work/tested.nm" | sort -u > "$work/tested"

{
  nm -C --defined-only "$build"/src/*/libgsx_*.a | sed -n 's/^[0-9a-f]* \([TW]\) /\1 /p'
  grep -h '^W ' "$work/shipped.nm" "$work/tested.nm"
} | awk '
  # The name before the top-level parameter list, return type dropped.
  function name_of(s,   i, c, depth, start) {
    depth = 0
    start = 1
    for (i = 1; i <= length(s); i++) {
      c = substr(s, i, 1)
      if (c == "<") depth++
      else if (c == ">") depth--
      else if (depth == 0 && c == " ") start = i + 1
      else if (depth == 0 && c == "(") return substr(s, start, i - start)
    }
    return ""
  }
  {
    s = substr($0, 3)
    if ($1 == "T" && s ~ /^gsx::/) print s
    if ($1 == "W" && s !~ /\{lambda/) {
      n = name_of(s)
      if (n ~ /^gsx::/ && n !~ /^gsx::test::/ && n ~ />$/) print s
    }
  }' | sort -u > "$work/defined"

comm -23 "$work/defined" "$work/shipped" > "$work/unshipped"
comm -12 "$work/unshipped" "$work/tested" > "$work/test_only"
comm -23 "$work/unshipped" "$work/tested" > "$work/unreached"

# Allowlist lines: "<function as nm -C prints it> | <reason>"; '#' starts a
# comment line.
sed -e '/^#/d' -e '/^[[:space:]]*$/d' "$allow" > "$work/allow.lines"
status=0
if grep -v ' | [^ ]' "$work/allow.lines" > "$work/no_reason"; then
  echo "check_reach: allowlist entries without a reason:"
  sed 's/^/  /' "$work/no_reason"
  status=1
fi
sed 's/ | .*$//' "$work/allow.lines" | sort -u > "$work/allowed"

report() {
  # $1 = heading, $2 = findings
  comm -23 "$2" "$work/allowed" > "$2.left"
  if [ -s "$2.left" ]; then
    echo "check_reach: $1:"
    sed 's/^/  /' "$2.left"
    status=1
  fi
}
report "reached only from tests" "$work/test_only"
report "reached from no binary" "$work/unreached"
sort -u "$work/test_only" "$work/unreached" > "$work/findings"
comm -23 "$work/allowed" "$work/findings" > "$work/stale"
if [ -s "$work/stale" ]; then
  echo "check_reach: allowlist entries that match no finding (reached from a shipped binary, or gone):"
  sed 's/^/  /' "$work/stale"
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "check_reach: OK ($(wc -l < "$work/defined") functions;" \
       "$(wc -l < "$work/shipped.bins") shipped and $(wc -l < "$work/test.bins") test binaries;" \
       "$(wc -l < "$work/allowed") allowlisted)"
fi
exit $status
