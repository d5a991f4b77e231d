#!/usr/bin/env bash
# Fails unless every named test shows "--- PASS" in a `go test -v` log. A
# -run selector that matches nothing passes silently, so every CI step that
# selects tests by name checks that each of them ran and passed.
#
#   bash .github/require-pass.sh LOG TEST...
set -euo pipefail
log=$1
shift
for pin in "$@"; do
  grep -qF -- "--- PASS: $pin (" "$log" || { echo "pin $pin did not run" >&2; exit 1; }
done
