#!/usr/bin/env bash
# Checks that every header under src/ compiles on its own: each one is the
# only line of a translation unit, syntax-checked by g++ as C++20 with -Wall
# -Wextra -Werror, so no header leans on what its includers happened to
# include first. Runs one compile per CPU. Names every header that fails and
# exits 1 if any does.
#
# Usage: scripts/check_headers.sh
set -euo pipefail

cd "$(dirname "$0")/.."

mapfile -t headers < <(cd src && find . -name '*.h' | sed 's|^\./||' | sort)

failed=$(printf '%s\n' "${headers[@]}" | xargs -P "$(nproc)" -I{} sh -c '
  printf "#include \"%s\"\n" "$1" |
    g++ -std=c++20 -fsyntax-only -Wall -Wextra -Werror -Isrc -x c++ - \
      >/dev/null 2>&1 || echo "$1"' _ {})

if [[ -n "$failed" ]]; then
  echo "check_headers: these headers do not compile on their own:" >&2
  sort <<<"$failed" >&2
  echo "reproduce one: echo '#include \"<header>\"' |" \
    "g++ -std=c++20 -fsyntax-only -Wall -Wextra -Werror -Isrc -x c++ -" >&2
  exit 1
fi
echo "check_headers: all ${#headers[@]} headers compile on their own"
