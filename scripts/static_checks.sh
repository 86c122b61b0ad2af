#!/usr/bin/env sh
# static_checks.sh — the one static-analysis entry point (used by the CI
# `detlint` job; run it locally before pushing).
#
# Three passes over the tree, all through the prlint binary:
#
#   1. src/ — every rule, whole-program passes included (layer DAG from
#      tools/detlint/layers.ini, schema docs cross-check), with a
#      suppression budget of ZERO: src/ must be clean, not quieted.
#      Also extracts the include graph as Graphviz DOT (CI uploads it
#      as a build artifact).
#   2. tools/ + bench/ — the entropy and locale-float rules only.
#      Suppressions are allowed there (a bench may time itself), but
#      they are counted and reported, never silent.
#   3. Stale bench names — every `bench/<name>` (in backticks) or
#      build/bench/<name> reference in the current docs, the verify skill
#      and ci.yml must name a bench/<name>.cpp or a bench/<name>/
#      directory. The history docs (docs/PERFORMANCE.md, ROADMAP.md,
#      CHANGES.md) are exempt: they quote retired harnesses on purpose.
#   4. scripts/check_format.sh — advisory formatting check; never fails
#      the run (the tree predates the config).
#
# Usage: scripts/static_checks.sh [build-dir] [dot-output]
#   build-dir   where the prlint binary lives (default: build)
#   dot-output  include-graph DOT path (default: <build-dir>/include_graph.dot)
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT" || exit 2

BUILD_DIR="${1:-build}"
DOT_OUT="${2:-$BUILD_DIR/include_graph.dot}"
PRLINT="$BUILD_DIR/tools/detlint/prlint"

if [ ! -x "$PRLINT" ]; then
  echo "static_checks.sh: $PRLINT not built (cmake --build $BUILD_DIR --target prlint)" >&2
  exit 2
fi

STATUS=0

echo "== prlint: src/ (all rules, zero suppressions) =="
"$PRLINT" --fix-hints \
  --layers tools/detlint/layers.ini \
  --csv-doc EXPERIMENTS.md \
  --jsonl-doc docs/OBSERVABILITY.md \
  --emit-graph "$DOT_OUT" \
  --max-suppressions 0 \
  src || STATUS=1
echo "static_checks.sh: include graph written to $DOT_OUT"

echo "== prlint: tools/ + bench/ (entropy + locale-float, suppressions counted) =="
"$PRLINT" --fix-hints \
  --select banned-entropy,locale-float \
  --count-suppressions \
  tools bench || STATUS=1

echo "== stale bench references =="
for doc in README.md DESIGN.md EXPERIMENTS.md docs/OBSERVABILITY.md \
    docs/MODEL.md docs/ANALYSIS.md .claude/skills/verify/SKILL.md \
    .github/workflows/ci.yml; do
  [ -f "$doc" ] || continue
  for name in $(grep -oE '(`|build/)bench/[A-Za-z0-9_.-]+' "$doc" |
      sed 's|.*bench/||; s|\.*$||' | sort -u); do
    if [ ! -e "bench/$name" ] && [ ! -e "bench/$name.cpp" ]; then
      echo "$doc: bench/$name has no bench/$name.cpp or bench/$name/" >&2
      STATUS=1
    fi
  done
done

echo "== check_format.sh (advisory) =="
scripts/check_format.sh || true

exit "$STATUS"
