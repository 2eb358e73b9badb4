#!/usr/bin/env python3
"""Module layering gate for src/psn.

The library's modules form one strict order, lowest first:

  util < stats < trace < graph < synth < model < paths < forward < core
       < engine < serve

A file under src/psn/<m>/ may include psn/<n>/ only when n is m or sits
below it. The gate fails, naming file:line, on every upward include, on
an include of a module the order does not name, and on a module
directory the order does not name (a new module takes its place in
ORDER first).

Exit status: 0 clean, 1 findings, 2 usage/internal error.

--self-test seeds one upward include, among allowed ones, in a
temporary tree and asserts the scanner reports exactly that one, so the
gate cannot pass vacuously.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

ORDER = ("util", "stats", "trace", "graph", "synth", "model", "paths",
         "forward", "core", "engine", "serve")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"psn/(\w+)/')


def scan_tree(root: str) -> list[str]:
    """Findings under `root` (a src/psn directory), in path order."""
    findings: list[str] = []
    top = os.path.dirname(os.path.dirname(root))
    for module in sorted(os.listdir(root)):
        base = os.path.join(root, module)
        if not os.path.isdir(base):
            continue
        if module not in ORDER:
            findings.append(f"{os.path.relpath(base, top)}: module '{module}' "
                            "has no place in the layer order")
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for filename in sorted(filenames):
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, top)
                with open(path, encoding="utf-8", errors="replace") as handle:
                    for number, line in enumerate(handle, 1):
                        match = INCLUDE_RE.match(line)
                        if not match:
                            continue
                        target = match.group(1)
                        if target not in ORDER:
                            findings.append(f"{rel}:{number}: includes unknown "
                                            f"module psn/{target}/")
                        elif ORDER.index(target) > ORDER.index(module):
                            findings.append(f"{rel}:{number}: {module} "
                                            f"includes psn/{target}/, which "
                                            "sits above it")
    return findings


SELF_TEST_FILES = {
    "core/upward.cpp": ('#include "psn/core/dataset.hpp"\n'
                        '#include "psn/engine/sweep.hpp"\n'),
    "engine/downward.cpp": ('#include "psn/core/dataset.hpp"\n'
                            '#include "psn/engine/sweep.hpp"\n'
                            '// #include "psn/serve/json.hpp" (a comment)\n'),
    "util/leaf.hpp": '#include <vector>\n',
}
SELF_TEST_EXPECTED = [
    "src/psn/core/upward.cpp:2: core includes psn/engine/, which sits above it",
]


def run_self_test() -> int:
    with tempfile.TemporaryDirectory(prefix="layering-selftest-") as tmp:
        root = os.path.join(tmp, "src", "psn")
        for rel, content in SELF_TEST_FILES.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
        found = [f.replace(os.sep, "/") for f in scan_tree(root)]
    if found != SELF_TEST_EXPECTED:
        print("self-test: expected", SELF_TEST_EXPECTED, "got", found)
        return 1
    print("self-test: ok (the seeded upward include is reported, "
          "downward and same-module includes are not)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="check the scanner on a seeded temporary tree")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    root = os.path.normpath(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src", "psn"))
    if not os.path.isdir(root):
        print(f"no such directory: {root}", file=sys.stderr)
        return 2
    findings = scan_tree(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"layering: {len(findings)} finding(s)")
        return 1
    print(f"layering: clean ({' < '.join(ORDER)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
