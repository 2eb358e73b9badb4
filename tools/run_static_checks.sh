#!/usr/bin/env bash
# Single entry point for the psn static gates — exactly what the CI
# `static-analysis` job runs, reproducible locally:
#
#   tools/run_static_checks.sh [--build-dir DIR] [--require-tidy]
#
# Gates, in order:
#   1. determinism lint self-test  (tools/check_determinism_lint.py
#      --self-test: seeds one violation per rule in a temp tree and
#      verifies the scanner still catches them — a lint that cannot fail
#      must not be allowed to pass)
#   2. determinism lint            (scans src/psn/{forward,engine,paths,
#      model,graph,synth}; zero findings or explicit det-waiver lines)
#   3. layering gate self-test     (tools/check_layering.py --self-test:
#      seeds one upward include in a temp tree and verifies the scanner
#      reports exactly it)
#   4. layering gate               (no file under src/psn/<m>/ includes a
#      module above m in util < stats < trace < graph < synth < model <
#      paths < forward < core < engine < serve; findings name file:line)
#   5. clang-tidy                  (.clang-tidy, WarningsAsErrors='*',
#      over every src/psn translation unit via the compile database in
#      --build-dir; configure one with `cmake --preset build-tidy`)
#
# clang-tidy is skipped with a warning when the tool is not installed
# (the dev container ships only gcc); --require-tidy turns that skip
# into a failure — CI passes it so the gate can never silently vanish.

set -u -o pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="build-tidy"
REQUIRE_TIDY=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --require-tidy) REQUIRE_TIDY=1; shift ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

failures=0

echo "== determinism lint: self-test =="
python3 tools/check_determinism_lint.py --self-test || failures=$((failures+1))

echo "== determinism lint: src/psn =="
python3 tools/check_determinism_lint.py || failures=$((failures+1))

echo "== layering gate: self-test =="
python3 tools/check_layering.py --self-test || failures=$((failures+1))

echo "== layering gate: src/psn =="
python3 tools/check_layering.py || failures=$((failures+1))

echo "== clang-tidy =="
if ! command -v clang-tidy >/dev/null 2>&1; then
  if [[ "$REQUIRE_TIDY" -eq 1 ]]; then
    echo "clang-tidy not installed but --require-tidy was given" >&2
    failures=$((failures+1))
  else
    echo "clang-tidy not installed; skipping (CI runs it with --require-tidy)"
  fi
elif [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "no $BUILD_DIR/compile_commands.json — configure with" >&2
  echo "  cmake --preset build-tidy" >&2
  if [[ "$REQUIRE_TIDY" -eq 1 ]]; then
    failures=$((failures+1))
  else
    echo "skipping clang-tidy"
  fi
else
  # Every library translation unit; headers ride along through
  # HeaderFilterRegex. xargs -P matches the runner's cores.
  if find src/psn -name '*.cpp' -print0 |
      xargs -0 -n 1 -P "$(nproc)" clang-tidy -p "$BUILD_DIR" --quiet; then
    echo "clang-tidy: clean"
  else
    failures=$((failures+1))
  fi
fi

if [[ "$failures" -ne 0 ]]; then
  echo "== static checks: $failures gate(s) FAILED =="
  exit 1
fi
echo "== static checks: all gates clean =="
