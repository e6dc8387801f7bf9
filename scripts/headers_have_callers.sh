#!/usr/bin/env bash
# Orphan-header lint: every src/**/*.hpp must be #included by some file
# under src/ (other than itself), tools/, examples/ or perfbench/. A
# header only tests or benches reach is code no front door runs: wire it
# into one or delete it. There is no exemption list.
#
#   scripts/headers_have_callers.sh [repo-root]
#
# Exits 1 and names every orphan; registered with ctest as
# lint.headers_have_callers.
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

status=0
while IFS= read -r header; do
  rel="${header#src/}"
  callers="$(grep -rlF --include='*.hpp' --include='*.cpp' \
               "#include \"$rel\"" src tools examples perfbench |
             grep -vxF "$header" || true)"
  if [[ -z "$callers" ]]; then
    echo "orphan header: $header (nothing under src/, tools/, examples/" \
         "or perfbench/ includes it)"
    status=1
  fi
done < <(find src -name '*.hpp' | sort)
exit "$status"
