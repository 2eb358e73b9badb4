#!/usr/bin/env python3
"""Determinism lint for the psn result-producing layers.

The engine's contract (DESIGN.md §6, pinned by engine_test) is that every
result is a pure function of the plan: same plan, same bytes, at any
thread count, forever. The classic ways C++ code silently breaks that
contract are textually recognizable, so this lint bans them outright in
the result-producing directories:

  src/psn/{forward,engine,paths,model,graph,synth}

Rules (names are what waivers and --list-rules use):

  unordered-container   Declaring a std::unordered_{map,set,multimap,
                        multiset}. Hash containers iterate in hash-seed /
                        insertion-history order; any iteration leaks that
                        order into results. Declaring one requires a
                        waiver arguing it is never iterated.
  unordered-iteration   Iterating (range-for, .begin()/.end()/iterators)
                        a variable declared in the same file with an
                        unordered container type. This is the actual
                        nondeterminism; waivers here should be rarer
                        still.
  random-device         std::random_device: a fresh nondeterministic seed
                        per call. All psn randomness flows from explicit
                        seeds in the plan (engine/run_spec.hpp).
  libc-rand             rand()/srand()/random()/drand48(): hidden global
                        state, libc-dependent sequences.
  wall-clock            Reading wall clocks in result code: time(),
                        clock(), gettimeofday, or naming a std::chrono
                        clock type. Telemetry belongs in engine::Clock
                        (engine/clock.hpp — the one waivered portal);
                        results may never depend on any clock.
  pointer-key           std::map/std::set keyed on a pointer type
                        (directly or through a local alias). Pointer
                        order is allocation order — it varies run to run,
                        so iterating such a map is as nondeterministic as
                        a hash container.
  effort-read           Reading a work counter (an `effort` member:
                        forward::SimulationEffort, paths::EnumerationEffort)
                        other than to count into a counter: `++x.effort.n`,
                        `x.effort.n += k`, `x.effort = y.effort` and
                        declarations pass; a condition, return or other
                        expression that reads one is a finding. Counters
                        are instruments — results never depend on them.

Waivers: a finding is silenced by a comment on the SAME line or anywhere
in the contiguous comment block immediately ABOVE it:

    // det-waiver(<rule>): <reason>

The reason is mandatory — a waiver without one is itself a finding. The
waiver documents why the banned construct cannot reach results (e.g.
"lookup-only, never iterated"); reviewers treat the reason as part of
the code.

Exit status: 0 clean, 1 findings, 2 usage/internal error.

--self-test seeds one violation per rule (plus a waivered instance and a
range-for over an unordered_map under a fake forward/) in a temporary
tree and asserts the scanner catches exactly the seeded set. CI runs the
self-test before the real scan so a regressed lint fails loudly instead
of passing vacuously.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

LINT_DIRS = ("forward", "engine", "paths", "model", "graph", "synth")
SOURCE_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")

WAIVER_RE = re.compile(r"//\s*det-waiver\((?P<rule>[a-z-]+)\)\s*(?::\s*(?P<reason>\S.*))?")

UNORDERED_TYPE_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\s*<")
RANDOM_DEVICE_RE = re.compile(r"\brandom_device\b")
LIBC_RAND_RE = re.compile(r"\b(?:rand|srand|random|drand48|srand48|lrand48)\s*\(")
WALL_CLOCK_RE = re.compile(
    r"\b(?:time|clock)\s*\(\s*(?:nullptr|NULL|0)?\s*\)"
    r"|\bgettimeofday\b"
    r"|\bstd\s*::\s*chrono\s*::\s*\w*_clock\b")
# map</set< with a pointer somewhere in the first template argument
# region. Template args may nest, so this is a heuristic over the text up
# to the matching '>' at depth 0 — good enough for the code shapes the
# repo uses, and the alias pass below catches indirection.
ORDERED_CONTAINER_RE = re.compile(r"\b(?:std\s*::\s*)?(?:multi)?(?:map|set)\s*<")
ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=\s*(.+?);|\btypedef\s+(.+?)\s+(\w+)\s*;")

# effort-read: the write forms are blanked out of a line, then any
# `effort` left is a read. An lvalue is a member chain naming `effort`.
EFFORT_LVALUE = (r"(?:[A-Za-z_]\w*(?:\.|->))*effort"
                 r"(?:(?:\.|->)[A-Za-z_]\w*)*")
EFFORT_WRITE_RES = (
    re.compile(r"\b\w*Effort\s*&?\s*effort\b(?:\s*=[^;]*)?"),  # a declaration
    re.compile(r"\+\+\s*" + EFFORT_LVALUE),
    re.compile(EFFORT_LVALUE + r"\s*\+\+"),
    re.compile(EFFORT_LVALUE + r"\s*\+?=(?!=)[^;]*"),
)
EFFORT_RE = re.compile(r"\beffort\b")

RULES = (
    "unordered-container",
    "unordered-iteration",
    "random-device",
    "libc-rand",
    "wall-clock",
    "pointer-key",
    "effort-read",
)


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code_line(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Returns (code-only text, still-in-block-comment). String literal
    contents are blanked so banned tokens inside messages don't fire."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        ch = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            break  # rest of line is a comment
        if ch == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            continue
        if ch == '"' or ch == "'":
            quote = ch
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


def first_template_region(text: str, open_index: int) -> str:
    """The template-argument text of the '<' at open_index, to its
    matching '>' (or end of line — declarations here fit one line)."""
    depth = 0
    for j in range(open_index, len(text)):
        if text[j] == "<":
            depth += 1
        elif text[j] == ">":
            depth -= 1
            if depth == 0:
                return text[open_index + 1:j]
    return text[open_index + 1:]


def pointer_aliases(code_lines: list[str]) -> set[str]:
    """Names of file-local aliases whose definition contains a pointer
    (one level deep: `using Key = std::pair<const Dataset*, double>`)."""
    names: set[str] = set()
    for text in code_lines:
        for match in ALIAS_RE.finditer(text):
            if match.group(1) is not None:
                name, definition = match.group(1), match.group(2)
            else:
                definition, name = match.group(3), match.group(4)
            if "*" in definition:
                names.add(name)
    return names


def unordered_variables(code_lines: list[str]) -> set[str]:
    """Names of variables/members declared with an unordered container
    type in this file (declaration and use share a file for every case
    psn has; cross-file tracking is out of scope)."""
    names: set[str] = set()
    decl_re = re.compile(
        r"\bunordered_(?:multi)?(?:map|set)\s*<[^;]*?>\s*(\w+)\s*[;{=(]")
    for text in code_lines:
        for match in decl_re.finditer(text):
            names.add(match.group(1))
    return names


def scan_file(path: str, rel: str) -> list[Finding]:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            raw_lines = handle.read().splitlines()
    except OSError as error:
        return [Finding(rel, 0, "io", f"unreadable: {error}")]

    code_lines: list[str] = []
    in_block = False
    for line in raw_lines:
        code, in_block = strip_code_line(line, in_block)
        code_lines.append(code)

    waivers: dict[int, tuple[str, str | None]] = {}
    findings: list[Finding] = []
    for idx, line in enumerate(raw_lines):
        match = WAIVER_RE.search(line)
        if not match:
            continue
        rule, reason = match.group("rule"), match.group("reason")
        if rule not in RULES:
            findings.append(Finding(rel, idx + 1, "waiver",
                                    f"waiver names unknown rule '{rule}'"))
            continue
        if not reason:
            findings.append(Finding(rel, idx + 1, "waiver",
                                    "waiver without a reason"))
            continue
        waivers[idx] = (rule, reason)

    def comment_only(line_index: int) -> bool:
        return (raw_lines[line_index].strip() != "" and
                code_lines[line_index].strip() == "")

    def waived(line_index: int, rule: str) -> bool:
        """Waiver on the same line, or anywhere in the contiguous run of
        comment-only lines immediately above it."""
        entry = waivers.get(line_index)
        if entry is not None and entry[0] == rule:
            return True
        where = line_index - 1
        while where >= 0 and comment_only(where):
            entry = waivers.get(where)
            if entry is not None and entry[0] == rule:
                return True
            where -= 1
        return False

    def report(line_index: int, rule: str, message: str) -> None:
        if not waived(line_index, rule):
            findings.append(Finding(rel, line_index + 1, rule, message))

    aliases = pointer_aliases(code_lines)
    unordered_vars = unordered_variables(code_lines)
    iteration_res = [
        re.compile(r"\bfor\s*\([^;)]*:\s*\**(?:\w+(?:\.|->))*(" +
                   "|".join(map(re.escape, sorted(unordered_vars))) + r")\b\s*\)"),
        re.compile(r"\b(" + "|".join(map(re.escape, sorted(unordered_vars))) +
                   r")\s*(?:\.|->)\s*(?:c?begin|c?end|rbegin|rend)\s*\("),
    ] if unordered_vars else []

    for idx, code in enumerate(code_lines):
        stripped = code.strip()
        if stripped.startswith("#include"):
            continue  # the declaration, not the include, is the finding.

        if UNORDERED_TYPE_RE.search(code):
            report(idx, "unordered-container",
                   "unordered container (hash order can reach results); "
                   "use std::map/std::set or waive with the reason it is "
                   "never iterated")
        for iteration_re in iteration_res:
            match = iteration_re.search(code)
            if match:
                name = match.group(1)
                report(idx, "unordered-iteration",
                       f"iterating unordered container '{name}' — order is "
                       "hash-seed dependent")
        if RANDOM_DEVICE_RE.search(code):
            report(idx, "random-device",
                   "std::random_device is a nondeterministic seed source; "
                   "seeds come from the plan (engine/run_spec.hpp)")
        if LIBC_RAND_RE.search(code):
            report(idx, "libc-rand",
                   "libc random source (hidden global state, "
                   "implementation-defined sequence); use the plan-seeded "
                   "util RNG")
        if WALL_CLOCK_RE.search(code):
            report(idx, "wall-clock",
                   "wall-clock read in result code; telemetry goes through "
                   "engine::Clock (engine/clock.hpp), results through "
                   "nothing")
        for match in ORDERED_CONTAINER_RE.finditer(code):
            region = first_template_region(code, match.end() - 1)
            key_region = region.split(",", 1)[0] if "map" in match.group(0) \
                else region
            direct = "*" in key_region
            via_alias = any(re.search(r"\b" + re.escape(alias) + r"\b",
                                      key_region) for alias in aliases)
            if direct or via_alias:
                report(idx, "pointer-key",
                       "ordered container keyed on a pointer (allocation-"
                       "order comparisons); key on a value identity or "
                       "waive with the reason iteration order never "
                       "reaches results")
        residue = code
        for write_re in EFFORT_WRITE_RES:
            residue = write_re.sub(" ", residue)
        if EFFORT_RE.search(residue):
            report(idx, "effort-read",
                   "work counter read outside counting; effort counters "
                   "are instruments and must not reach results")
    return findings


def scan_tree(root: str) -> list[Finding]:
    findings: list[Finding] = []
    for directory in LINT_DIRS:
        base = os.path.join(root, directory)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for filename in sorted(filenames):
                if not filename.endswith(SOURCE_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(
                    path, os.path.dirname(os.path.dirname(root)))
                findings.extend(scan_file(path, rel))
    findings.sort(key=lambda f: (f.path, f.line))
    return findings


# --------------------------------------------------------------- self-test


SELF_TEST_FILES = {
    # One violation per rule; the scanner must find exactly these.
    "forward/iterates_hash.cpp": (
        "#include <unordered_map>\n"
        "void f() {\n"
        "  std::unordered_map<int, int> copies;\n"          # unordered-container
        "  for (const auto& kv : copies) { (void)kv; }\n"   # unordered-iteration
        "}\n"),
    "engine/bad_seed.cpp": (
        "#include <random>\n"
        "unsigned seed_it() {\n"
        "  std::random_device rd;\n"                        # random-device
        "  return rd();\n"
        "}\n"),
    "model/bad_rand.cpp": (
        "#include <cstdlib>\n"
        "int noise() { return rand(); }\n"),                # libc-rand
    "graph/bad_clock.cpp": (
        "#include <ctime>\n"
        "long stamp() { return time(nullptr); }\n"),        # wall-clock
    "paths/bad_ptrkey.cpp": (
        "#include <map>\n"
        "struct Node;\n"
        "std::map<const Node*, int> ranks;\n"),             # pointer-key
    "synth/alias_ptrkey.hpp": (
        "#include <set>\n"
        "struct Gen;\n"
        "using GenKey = const Gen*;\n"
        "std::set<GenKey> live;\n"),                        # pointer-key (alias)
    "forward/reads_effort.cpp": (
        "void run(Result& result, Cell& cell) {\n"
        "  SimulationEffort& effort = result.effort;\n"
        "  ++effort.decisions;\n"
        "  if (ready) result.effort.relay_calls += 2;\n"
        "  cell.effort += result.effort;\n"
        "  if (result.effort.decisions > 3) stop();\n"  # effort-read
        "}\n"),
    # Waivered instances: must NOT be findings.
    "forward/waived_lookup.cpp": (
        "#include <unordered_map>\n"
        "// det-waiver(unordered-container): lookup-only in self-test.\n"
        "std::unordered_map<int, int> open;\n"),
    # A waiver without a reason IS a finding.
    "engine/bad_waiver.cpp": (
        "#include <unordered_set>\n"
        "// det-waiver(unordered-container)\n"
        "std::unordered_set<int> seen;\n"),
    # Banned tokens in comments and strings are not findings.
    "graph/mentions_only.cpp": (
        "// rand() and std::chrono::steady_clock discussed, not used.\n"
        "const char* kDoc = \"never call time(nullptr) here\";\n"),
}

SELF_TEST_EXPECTED = {
    ("src/psn/forward/iterates_hash.cpp", "unordered-container"),
    ("src/psn/forward/iterates_hash.cpp", "unordered-iteration"),
    ("src/psn/engine/bad_seed.cpp", "random-device"),
    ("src/psn/model/bad_rand.cpp", "libc-rand"),
    ("src/psn/graph/bad_clock.cpp", "wall-clock"),
    ("src/psn/paths/bad_ptrkey.cpp", "pointer-key"),
    ("src/psn/synth/alias_ptrkey.hpp", "pointer-key"),
    ("src/psn/forward/reads_effort.cpp", "effort-read"),
    ("src/psn/engine/bad_waiver.cpp", "waiver"),
    ("src/psn/engine/bad_waiver.cpp", "unordered-container"),
}


def run_self_test() -> int:
    with tempfile.TemporaryDirectory(prefix="det-lint-selftest-") as tmp:
        root = os.path.join(tmp, "src", "psn")
        for rel, content in SELF_TEST_FILES.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
        found = {(os.path.relpath(os.path.join(tmp, f.path), tmp)
                  if os.path.isabs(f.path) else f.path, f.rule)
                 for f in scan_tree(root)}
        normalized = {(p.replace(os.sep, "/"), r) for p, r in found}
        missing = SELF_TEST_EXPECTED - normalized
        unexpected = normalized - SELF_TEST_EXPECTED
        if missing or unexpected:
            for item in sorted(missing):
                print(f"self-test: MISSED expected finding {item}")
            for item in sorted(unexpected):
                print(f"self-test: unexpected finding {item}")
            return 1
        print(f"self-test: ok ({len(SELF_TEST_EXPECTED)} seeded findings "
              "detected, waivered/commented instances silent)")
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Determinism lint for src/psn result-producing layers.")
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent's parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="seed violations in a temp tree and verify "
                             "the scanner catches them")
    parser.add_argument("--list-rules", action="store_true")
    options = parser.parse_args()

    if options.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    if options.self_test:
        return run_self_test()

    repo_root = options.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    src_root = os.path.join(repo_root, "src", "psn")
    if not os.path.isdir(src_root):
        print(f"error: {src_root} is not a directory", file=sys.stderr)
        return 2
    findings = scan_tree(src_root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} determinism finding(s). Fix them, or — "
              "only when the construct provably cannot reach results — "
              "waive with '// det-waiver(<rule>): <reason>' on or above "
              "the line.")
        return 1
    print("determinism lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
