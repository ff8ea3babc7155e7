#!/usr/bin/env python3
"""emmclint: project-rule linter for the emmcsim tree.

Enforces the handful of project rules that neither the compiler nor
clang-tidy check for us:

  event-path-alloc     No heap allocation (new / make_unique /
                       make_shared / malloc) and no std::function in
                       the simulator event path (src/sim).  The event
                       core promises flat per-event cost; a stray
                       allocation there is a performance bug.
  event-path-container No node-based or adapter containers (std::map
                       / multimap / set / multiset / list /
                       forward_list / deque / priority_queue /
                       unordered_*) in src/sim.  The event queue is
                       one binary heap in a flat vector precisely to
                       avoid per-node allocation and pointer chasing;
                       a node-based container smuggles both back in.
  unordered-iter       No iteration over std::unordered_map/set.
                       Hash-table iteration order is unspecified, and
                       anything it feeds (reports, traces, flash ops)
                       silently loses run-to-run determinism.
  raw-unit-param       No raw integer parameters named lba / lpn /
                       ppn / unit / page / block / sector outside
                       core/units.hh.  Those domains have strong
                       types (units::Lba, flash::Lpn, ...); a raw
                       integer parameter reopens the door to the
                       sector/unit mix-ups the types exist to stop.
  wall-clock           No wall-clock or ambient randomness in src/
                       (time(), chrono clocks, rand(), random_device).
                       Simulated time comes from sim::Simulator and
                       randomness from seeded sim::Rng; anything else
                       breaks replay determinism.
  durable-ftl-mutation No direct mutation of the durable mapping state
                       (map_.set / map_.clear / map_.reset*) in
                       src/ftl outside journal.cc.  Crash consistency
                       hinges on every L2P change flowing through the
                       MetaJournal gateway (recordWrite /
                       recordRelocation / installRecovered); a direct
                       map_ write is an update recovery can never
                       replay.
  header-self-contained
                       Every header under src/ must compile on its
                       own (g++ -fsyntax-only).  Include-order
                       coupling between headers is how refactors rot.
                       The CMake build holds the same rule
                       (emmc_header_probes), so ctest runs this
                       linter with --no-headers.

Suppress a finding by putting `// emmclint: allow(<rule>)` on the
offending line or the line directly above it.

Usage:
  scripts/emmclint.py                 lint the whole tree
  scripts/emmclint.py src/ftl/gc.cc   lint specific files
  scripts/emmclint.py --self-test     run against tests/lint corpus
  scripts/emmclint.py --list-rules    print the rule table

Exit status: 0 clean, 1 findings, 2 usage/internal error.

The linter is pure regex over comment/string-stripped source, so it
needs nothing beyond python3 and (for the header rule) g++.  When
python3-libclang is installed an AST engine can be selected with
--engine=clang for stricter parameter matching; the regex engine is
the default and the one CI runs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys
from dataclasses import dataclass

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ---------------------------------------------------------------------------
# Source model


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        rel = os.path.relpath(self.path, REPO_ROOT)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving
    newlines and column positions so findings keep real locations."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                mode = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif mode == "line":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif mode in ("str", "chr"):
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def suppressed(raw_lines: list[str], lineno: int, rule: str) -> bool:
    """True when `// emmclint: allow(rule)` covers 1-based lineno."""
    pat = re.compile(r"emmclint:\s*allow\(\s*" + re.escape(rule) + r"\s*\)")
    for cand in (lineno, lineno - 1):
        if 1 <= cand <= len(raw_lines) and pat.search(raw_lines[cand - 1]):
            return True
    return False


# ---------------------------------------------------------------------------
# Rules (regex engine)

EVENT_PATH_DIRS = (os.path.join("src", "sim"),)

# Placement new (`new (buf) T`) reuses storage the caller already
# owns — that is the InlineAction idiom and explicitly allowed; only
# allocating `new` is banned, hence the (?!\s*\() guard.
ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b(?!\s*\()"), "operator new"),
    (re.compile(r"\bstd::make_unique\b"), "std::make_unique"),
    (re.compile(r"\bstd::make_shared\b"), "std::make_shared"),
    (re.compile(r"\bmalloc\s*\("), "malloc"),
    (re.compile(r"\bstd::function\b"), "std::function"),
]

# The event core is flat storage by design (one binary heap in a
# contiguous vector, DESIGN.md §11). Node-based and
# adapter containers reintroduce the per-event allocation and
# pointer-chasing the flat layout exists to avoid; std::deque is
# included because its chunk map scatters what a vector keeps
# contiguous.
NODE_CONTAINER = re.compile(
    r"\bstd::(map|multimap|set|multiset|list|forward_list|deque|"
    r"priority_queue|unordered_map|unordered_multimap|unordered_set|"
    r"unordered_multiset)\b")

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bstd::chrono::(?:system|steady|high_resolution)"
                r"_clock\b"), "std::chrono clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time()"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
]

UNIT_NAMES = r"(?:lba|lpn|ppn|unit|page|block|sector)"
RAW_UNIT_PARAM = re.compile(
    r"(?<=[(,])\s*(?:const\s+)?(?:std::)?u?int(?:8|16|32|64)_t\s+"
    r"(" + UNIT_NAMES + r")(?=\s*[,)=])"
)

# The MetaJournal gateway (src/ftl/journal.cc) is the single place
# allowed to touch the mapping table directly; everything else in
# src/ftl must journal its mutations so recovery can replay them.
DURABLE_FTL_DIR = os.path.join("src", "ftl")
DURABLE_GATEWAY_FILES = ("journal.cc",)
DURABLE_MUTATION = re.compile(
    r"\bmap_\s*\.\s*(set|clear|reset\w*)\s*\(")

UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{()]*>\s*"
    r"(\w+)\s*[;{=(]"
)
RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;)]*?:\s*([\w.\->]+)\s*\)")


def in_event_path(path: str) -> bool:
    rel = os.path.relpath(path, REPO_ROOT)
    return any(rel.startswith(d + os.sep) for d in EVENT_PATH_DIRS)


def lint_text(path: str, raw: str, scope_event_path: bool,
              scope_units_hh: bool,
              scope_ftl_durable: bool = False) -> list[Finding]:
    findings: list[Finding] = []
    raw_lines = raw.splitlines()
    code = strip_comments_and_strings(raw)
    code_lines = code.splitlines()

    def add(rule: str, lineno: int, message: str) -> None:
        if not suppressed(raw_lines, lineno, rule):
            findings.append(Finding(rule, path, lineno, message))

    # event-path-alloc -----------------------------------------------------
    if scope_event_path:
        for lineno, line in enumerate(code_lines, 1):
            if line.lstrip().startswith("#"):
                continue
            for pat, what in ALLOC_PATTERNS:
                if pat.search(line):
                    add("event-path-alloc", lineno,
                        f"{what} in the simulator event path")
                    break

    # event-path-container -------------------------------------------------
    if scope_event_path:
        for lineno, line in enumerate(code_lines, 1):
            if line.lstrip().startswith("#"):
                continue
            m = NODE_CONTAINER.search(line)
            if m:
                add("event-path-container", lineno,
                    f"std::{m.group(1)} in the simulator event path: "
                    f"the event core is flat storage (one binary heap "
                    f"in a vector); use a vector-backed structure "
                    f"instead")

    # wall-clock -----------------------------------------------------------
    for lineno, line in enumerate(code_lines, 1):
        for pat, what in WALL_CLOCK_PATTERNS:
            if pat.search(line):
                add("wall-clock", lineno,
                    f"{what}: use sim::Simulator time / seeded sim::Rng")
                break

    # durable-ftl-mutation -------------------------------------------------
    if scope_ftl_durable:
        for lineno, line in enumerate(code_lines, 1):
            m = DURABLE_MUTATION.search(line)
            if m:
                add("durable-ftl-mutation", lineno,
                    f"direct map_.{m.group(1)}() bypasses the "
                    f"MetaJournal gateway; record the mutation through "
                    f"ftl/journal.hh so recovery can replay it")

    # raw-unit-param -------------------------------------------------------
    if not scope_units_hh:
        # Join continuation lines so parameter lists split across lines
        # still match, then map hits back to their source line.
        joined = code
        for m in RAW_UNIT_PARAM.finditer(joined):
            # A `(` opened by a control keyword is a statement, not a
            # parameter list: `for (std::uint64_t lpn = 0; ...)`.
            opener = m.start() - 1
            if opener >= 0 and joined[opener] == "(":
                before = joined[max(0, opener - 16):opener]
                if re.search(r"\b(?:for|if|while|switch)\s*$", before):
                    continue
            lineno = joined.count("\n", 0, m.start(1)) + 1
            add("raw-unit-param", lineno,
                f"raw integer parameter '{m.group(1)}': use the typed "
                f"quantity from core/units.hh")

    # unordered-iter -------------------------------------------------------
    unordered_names = {m.group(1) for m in UNORDERED_DECL.finditer(code)}
    if unordered_names:
        for lineno, line in enumerate(code_lines, 1):
            m = RANGE_FOR.search(line)
            if not m:
                continue
            expr = m.group(1)
            base = re.split(r"[.\-]", expr)[-1].lstrip(">")
            if base in unordered_names or expr in unordered_names:
                add("unordered-iter", lineno,
                    f"iteration over unordered container '{expr}' has "
                    f"unspecified order; iterate an ordered mirror")
    return findings


def lint_file(path: str) -> list[Finding]:
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        return [Finding("io-error", path, 0, str(e))]
    rel = os.path.relpath(path, REPO_ROOT)
    in_ftl = rel.startswith(DURABLE_FTL_DIR + os.sep)
    gateway = os.path.basename(path) in DURABLE_GATEWAY_FILES
    return lint_text(
        path, raw,
        scope_event_path=in_event_path(path),
        scope_units_hh=os.path.basename(path) == "units.hh",
        scope_ftl_durable=in_ftl and not gateway,
    )


# ---------------------------------------------------------------------------
# header-self-contained rule (compile probe)


def find_sources(root: str, dirs: tuple[str, ...],
                 exts: tuple[str, ...]) -> list[str]:
    out = []
    for d in dirs:
        base = os.path.join(root, d)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(exts):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


def check_header(header: str) -> Finding | None:
    cmd = [
        "g++", "-std=c++20", "-fsyntax-only",
        "-I", os.path.join(REPO_ROOT, "src"),
        "-x", "c++", header,
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
    except (OSError, subprocess.TimeoutExpired) as e:
        return Finding("header-self-contained", header, 1,
                       f"probe failed to run: {e}")
    if proc.returncode != 0:
        first = (proc.stderr.strip().splitlines() or ["(no output)"])[0]
        return Finding("header-self-contained", header, 1,
                       f"does not compile standalone: {first}")
    return None


def lint_headers(headers: list[str], jobs: int) -> list[Finding]:
    findings: list[Finding] = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as ex:
        for result in ex.map(check_header, headers):
            if result is not None:
                findings.append(result)
    return findings


# ---------------------------------------------------------------------------
# Optional libclang engine (stricter raw-unit-param matching)


def lint_file_clang(path: str) -> list[Finding] | None:
    """AST-based raw-unit-param check. Returns None when libclang is
    unavailable so the caller falls back to the regex engine."""
    try:
        import clang.cindex as ci  # type: ignore
    except ImportError:
        return None
    findings: list[Finding] = []
    try:
        tu = ci.Index.create().parse(
            path, args=["-std=c++17", "-I", os.path.join(REPO_ROOT, "src")])
    except ci.TranslationUnitLoadError:
        return findings
    names = re.compile("^" + UNIT_NAMES + "$")
    ints = {"unsigned int", "int", "unsigned long", "long",
            "uint32_t", "uint64_t", "int32_t", "int64_t",
            "std::uint32_t", "std::uint64_t", "std::int32_t",
            "std::int64_t", "unsigned long long", "long long"}
    for cursor in tu.cursor.walk_preorder():
        if cursor.kind != ci.CursorKind.PARM_DECL:
            continue
        if cursor.location.file is None or \
                cursor.location.file.name != path:
            continue
        spelled = cursor.type.get_canonical().spelling
        if names.match(cursor.spelling or "") and spelled in ints:
            findings.append(Finding(
                "raw-unit-param", path, cursor.location.line,
                f"raw integer parameter '{cursor.spelling}': use the "
                f"typed quantity from core/units.hh"))
    return findings


# ---------------------------------------------------------------------------
# Self-test corpus

EXPECT = re.compile(r"emmclint-expect:\s*([\w-]+)")


def self_test(corpus_dir: str) -> int:
    """Every `// emmclint-expect: <rule>` line in the corpus must
    produce exactly that finding; no unexpected findings allowed."""
    files = find_sources(corpus_dir, ("",), (".cc", ".hh", ".cpp"))
    if not files:
        print(f"emmclint --self-test: no corpus under {corpus_dir}",
              file=sys.stderr)
        return 2
    failures = 0
    total_expected = 0
    for path in files:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        expected = set()
        for lineno, line in enumerate(raw_lines, 1):
            m = EXPECT.search(line)
            if m:
                expected.add((m.group(1), lineno))
        total_expected += len(expected)
        # Corpus files opt into path-scoped rules by filename prefix.
        scoped = os.path.basename(path).startswith("simpath_")
        ftl_scoped = os.path.basename(path).startswith("ftl_")
        got = {(f.rule, f.line)
               for f in lint_text(path, raw, scope_event_path=scoped,
                                  scope_units_hh=False,
                                  scope_ftl_durable=ftl_scoped)}
        # Corpus headers also go through the real compile probe, so
        # the header-self-contained rule is exercised end to end.
        if path.endswith(".hh"):
            probe = check_header(path)
            if probe is not None:
                got.add((probe.rule, probe.line))
        for rule, lineno in sorted(expected - got):
            print(f"SELF-TEST MISS {path}:{lineno}: expected [{rule}] "
                  f"to fire", file=sys.stderr)
            failures += 1
        for rule, lineno in sorted(got - expected):
            print(f"SELF-TEST FALSE-POSITIVE {path}:{lineno}: "
                  f"unexpected [{rule}]", file=sys.stderr)
            failures += 1
    if failures:
        print(f"emmclint --self-test: FAILED ({failures} mismatches)",
              file=sys.stderr)
        return 1
    print(f"emmclint --self-test: OK ({len(files)} corpus files, "
          f"{total_expected} expected findings all fired)")
    return 0


# ---------------------------------------------------------------------------


RULES_HELP = [
    ("event-path-alloc", "no heap alloc / std::function in src/sim"),
    ("event-path-container",
     "no node-based/adapter containers (map/set/list/deque/"
     "priority_queue/unordered_*) in src/sim"),
    ("unordered-iter", "no iteration over unordered containers"),
    ("raw-unit-param", "no raw int params named lba/lpn/ppn/unit/..."),
    ("wall-clock", "no wall-clock time or ambient randomness in src/"),
    ("durable-ftl-mutation",
     "L2P mutations in src/ftl go through the MetaJournal gateway"),
    ("header-self-contained", "every src/ header compiles standalone"),
]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="emmclint", add_help=True)
    ap.add_argument("paths", nargs="*",
                    help="files to lint (default: src/ tree)")
    ap.add_argument("--self-test", action="store_true",
                    help="validate the linter against tests/lint")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--no-headers", action="store_true",
                    help="skip the header-self-contained compile probe")
    ap.add_argument("--engine", choices=["regex", "clang"],
                    default="regex")
    ap.add_argument("--jobs", type=int,
                    default=max(2, (os.cpu_count() or 2) - 1))
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES_HELP:
            print(f"{rule:24} {desc}")
        return 0

    if args.self_test:
        return self_test(os.path.join(REPO_ROOT, "tests", "lint",
                                      "corpus"))

    if args.paths:
        files = [os.path.abspath(p) for p in args.paths]
        headers = [f for f in files if f.endswith(".hh")]
    else:
        files = find_sources(REPO_ROOT, ("src",), (".cc", ".hh"))
        headers = [f for f in files if f.endswith(".hh")]

    findings: list[Finding] = []
    for path in files:
        findings.extend(lint_file(path))
        if args.engine == "clang":
            extra = lint_file_clang(path)
            if extra is None:
                print("emmclint: libclang unavailable, regex engine "
                      "already covered this file", file=sys.stderr)
            # AST findings duplicate regex ones; keep the union.
            elif extra:
                seen = {(f.rule, f.path, f.line) for f in findings}
                findings.extend(f for f in extra
                                if (f.rule, f.path, f.line) not in seen)

    if not args.no_headers and headers:
        findings.extend(lint_headers(headers, args.jobs))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f.format())
    if findings:
        print(f"emmclint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"emmclint: OK ({len(files)} files"
          + ("" if args.no_headers else
             f", {len(headers)} header probes") + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
