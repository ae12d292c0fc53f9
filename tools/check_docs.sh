#!/bin/sh
# Documentation consistency checks:
#   1. every relative markdown link in the top-level docs and docs/ resolves
#      to an existing file or directory;
#   2. every module directory under src/ appears in the README module map;
#   3. every wire verb the server speaks (the `op == "..."` chain of
#      Server::handle_request in src/serve/server.cpp) has an "op" example
#      in docs/serving.md, every router verb (Router::handle_request in
#      src/serve/router.cpp) has one in docs/fleet.md, and every
#      coordinator verb (Coordinator::handle in src/dist/coordinator.cpp)
#      has one in docs/distributed.md — the verbs are read from the
#      dispatchers themselves, so a verb added to a dispatcher without
#      documenting it fails this check;
#   4. every CLI flag printed by gsx_serve's, gsx_router's, gsx_dist's
#      and gsx_obs's usage() text is mentioned somewhere in README.md or
#      docs/;
#   5. every metric name registered in the serving, distributed,
#      linear-algebra and analytics planes (serve.* / router.* /
#      taskgraph.* / dist.* / la.* / obs.* literals passed to
#      counter()/gauge()/histogram() under src/)
#      appears in docs/observability.md. Names
#      built with a runtime suffix ("router.requests." + name) end in '.'
#      in the source; the documented prefix is what is checked;
#   6. every GSX_* environment variable the code reads (quoted literals
#      under src/ and tools/) is documented in README.md or docs/ — an
#      env knob nobody can discover is a bug;
#   7. the flight-recorder vocabulary matches both ways: every kind name
#      event_kind_name returns in src/obs/ring.cpp (except "unknown")
#      appears backticked in docs/observability.md, and every backticked
#      kind in the first column of that doc's | kind | a | b | v | table
#      exists in ring.cpp.
# Run from anywhere: paths resolve against the repo root (this script's
# parent directory). Exits non-zero listing every violation.
set -u

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
status=0

docs="$root/README.md $root/DESIGN.md $root/EXPERIMENTS.md $root/ROADMAP.md"
for f in "$root"/docs/*.md; do
  [ -e "$f" ] && docs="$docs $f"
done

# --- 1. relative links -----------------------------------------------------
for doc in $docs; do
  [ -e "$doc" ] || continue
  dir=$(dirname -- "$doc")
  # Extract markdown link targets: [text](target). One per line; strip
  # anchors; skip absolute URLs and pure in-page anchors.
  targets=$(grep -o '\](<*[^)]*>*)' "$doc" | sed -e 's/^](//' -e 's/)$//' \
            -e 's/^<//' -e 's/>$//' -e 's/#.*$//' | sort -u)
  for t in $targets; do
    [ -z "$t" ] && continue
    case $t in
      http://*|https://*|mailto:*) continue ;;
    esac
    if [ ! -e "$dir/$t" ]; then
      echo "BROKEN LINK: $doc -> $t"
      status=1
    fi
  done
done

# --- 2. README module map covers src/* ------------------------------------
readme="$root/README.md"
for mod in "$root"/src/*/; do
  name=$(basename -- "$mod")
  if ! grep -q "^  $name/" "$readme"; then
    echo "MISSING MODULE: src/$name is not in the README architecture map"
    status=1
  fi
done

# --- 3. docs cover every wire verb -----------------------------------------
# A dispatcher compares the request's op with one string literal per verb
# (`op == "predict"`). Its verbs are those comparisons in its body: from
# the line that defines it up to the first line that is a lone "}".
extract_verbs() {
  # $1 = dispatcher (e.g. Server::handle_request), $2 = source path
  # (repo-relative)
  sed -n "/^std::string $1(/,/^}/p" "$root/$2" | grep -o 'op == "[a-z_]*"' \
    | sed 's/^op == "\(.*\)"$/\1/'
}
check_verbs() {
  # $1 = dispatcher, $2 = source path, $3 = doc path (repo-relative)
  doc="$root/$3"
  if [ ! -e "$doc" ]; then
    echo "MISSING DOC: $3"
    status=1
    return
  fi
  verbs=$(extract_verbs "$1" "$2")
  if [ -z "$verbs" ]; then
    echo "EXTRACT FAILED: no verbs found in $1 ($2)"
    status=1
    return
  fi
  for verb in $verbs; do
    if ! grep -q "\"op\":\"$verb\"" "$doc"; then
      echo "MISSING VERB: $3 has no example for op \"$verb\" ($1)"
      status=1
    fi
  done
}
check_verbs Server::handle_request src/serve/server.cpp docs/serving.md
check_verbs Router::handle_request src/serve/router.cpp docs/fleet.md
check_verbs Coordinator::handle src/dist/coordinator.cpp docs/distributed.md

# --- 4. docs cover every daemon CLI flag -----------------------------------
# Flags are taken from each tool's usage() text (the lines between
# "usage:" and the closing of the fprintf call), so a flag added to the
# daemons must show up in README.md or docs/*.md.
check_flags() {
  # $1 = tool source (repo-relative)
  src="$root/$1"
  flags=$(sed -n '/^void usage/,/^}/p' "$src" | grep -o '\--[a-z-][a-z-]*' | sort -u)
  if [ -z "$flags" ]; then
    echo "EXTRACT FAILED: no flags found in $1 usage()"
    status=1
    return
  fi
  for flag in $flags; do
    found=0
    for doc in $docs; do
      [ -e "$doc" ] || continue
      if grep -q -- "$flag" "$doc"; then
        found=1
        break
      fi
    done
    if [ "$found" -eq 0 ]; then
      echo "MISSING FLAG: $flag ($1) is not documented in README.md or docs/"
      status=1
    fi
  done
}
check_flags tools/gsx_serve.cpp
check_flags tools/gsx_router.cpp
check_flags tools/gsx_dist.cpp
check_flags tools/gsx_obs.cpp

# --- 5. observability docs cover every registered metric name ---------------
# Extract the string literal of each instrument registration. Dynamic
# families keep a trailing '.' ("router.requests.") — documenting the
# prefix (e.g. "router.requests.<replica>") satisfies the check.
obs_doc="$root/docs/observability.md"
if [ ! -e "$obs_doc" ]; then
  echo "MISSING DOC: docs/observability.md"
  status=1
else
  metrics=$(grep -rhoE '(counter|gauge|histogram)\("(serve|router|taskgraph|dist|la|obs)\.[A-Za-z0-9_.]+"' \
              "$root/src" | sed -e 's/.*("//' -e 's/"$//' | sort -u)
  if [ -z "$metrics" ]; then
    echo "EXTRACT FAILED: no registered metric names found under src/"
    status=1
  fi
  for m in $metrics; do
    if ! grep -qF "$m" "$obs_doc"; then
      echo "MISSING METRIC: \"$m\" is not documented in docs/observability.md"
      status=1
    fi
  done
fi

# --- 6. docs cover every GSX_* environment variable -------------------------
# Any quoted "GSX_..." literal in the source is an env knob the code reads
# (getenv and friends); each one must be discoverable in README.md or docs/.
envs=$(grep -rhoE '"GSX_[A-Z0-9_]+"' "$root/src" "$root/tools" 2>/dev/null \
         | tr -d '"' | sort -u)
if [ -z "$envs" ]; then
  echo "EXTRACT FAILED: no GSX_* environment literals found under src/ or tools/"
  status=1
fi
for e in $envs; do
  found=0
  for doc in $docs; do
    [ -e "$doc" ] || continue
    if grep -q "$e" "$doc"; then
      found=1
      break
    fi
  done
  if [ "$found" -eq 0 ]; then
    echo "MISSING ENV VAR: $e is not documented in README.md or docs/"
    status=1
  fi
done

# --- 7. flight-recorder vocabulary matches docs/observability.md ------------
ring_src="$root/src/obs/ring.cpp"
kinds=$(grep -o 'return "[a-z_]*";' "$ring_src" | sed 's/^return "\(.*\)";$/\1/' \
          | grep -vx unknown | sort -u)
if [ -z "$kinds" ]; then
  echo "EXTRACT FAILED: no event kind names found in src/obs/ring.cpp"
  status=1
fi
for k in $kinds; do
  if ! grep -qF "\`$k\`" "$obs_doc"; then
    echo "MISSING EVENT KIND: \"$k\" (src/obs/ring.cpp) is not documented in docs/observability.md"
    status=1
  fi
done
# First-column kinds of the vocabulary table: the rows that follow its
# "| kind | a | b | v |" header, up to the first non-table line.
table_kinds=$(sed -n '/^| kind | a | b | v |$/,/^[^|]/p' "$obs_doc" | grep '^|' \
                | cut -d'|' -f2 | grep -o '`[a-z_]*`' | tr -d '`' | sort -u)
if [ -z "$table_kinds" ]; then
  echo "EXTRACT FAILED: no | kind | a | b | v | table in docs/observability.md"
  status=1
fi
for k in $table_kinds; do
  if ! grep -qF "return \"$k\";" "$ring_src"; then
    echo "STALE EVENT KIND: docs/observability.md documents \"$k\", which src/obs/ring.cpp does not name"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_docs: OK"
fi
exit $status
