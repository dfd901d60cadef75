#!/usr/bin/env python3
"""Project-invariant linter: repo rules clang-tidy cannot see.

Enforced rules (each failure names its rule id):

  raw-sync          No raw std::mutex / std::condition_variable (or the
                    std lock RAII types) outside src/util/ — concurrent
                    code must use the annotated oipa::Mutex wrappers so
                    Clang Thread Safety Analysis covers it.
  api-check         No OIPA_CHECK aborts inside src/oipa/api/,
                    src/serve/, or src/util/fault_injector.h — the API
                    layer reports failures as Status/StatusOr values,
                    the serve daemon must answer malformed wire input
                    with a structured error response (never abort), and
                    injected faults must surface as Status values.
  unseeded-rng      No std::random_device, rand() or srand() in src/ —
                    every sample stream must be derived from an explicit
                    uint64 seed (determinism contract).
  test-registration Every tests/*_test.cc is registered in
                    CMakeLists.txt (a forgotten test silently never
                    runs).
  bench-baseline    Every BENCH_*.json the CI workflow produces is
                    gated against a bench/BASELINE_*.json via
                    check_perf_regression.py (an ungated bench is a
                    regression trap).
  narrowed-flag     No integer flag narrowed by a cast in src/
                    (static_cast<int>(flags.GetInt(...)), even across a
                    line break): the lenient GetInt reads "3x" as 3 and
                    the cast wraps 4294967297 to 1. Front ends read
                    integer flags with FlagParser::ReadInt, which refuses
                    both with InvalidArgument naming the flag.
  raw-thread        No std::thread, std::jthread or std::async in src/
                    outside src/util/threading.{h,cc} and the existing
                    thread owners: the serve daemon (serve/server.{h,cc}),
                    the parallel search (oipa/branch_and_bound.cc) and
                    the budget sweep (oipa/api/solver_registry.cc). Other
                    code starts threads through util/threading
                    (ParallelFor, BackgroundTask), so thread counts and
                    lifetimes stay in one place.
  process-global    No process-wide state in src/: no namespace-scope or
                    function-static oipa::Mutex and no leaked
                    `static ... = new` singleton, outside the files that
                    own the process-wide test seams and threads (the fault
                    injector, util/threading's HoldBackgroundTasks and
                    worker pool, which holds no request state between
                    jobs, and the solver registry). Caches and registries
                    live in an object their owner constructs, so two
                    daemons in one process share nothing.
  lock-hierarchy    Every oipa::Mutex declared in src/ (outside
                    src/util/) is documented in README.md's "Locking
                    hierarchy" table — a mutex nobody wrote an ordering
                    rule for is where the next deadlock hides. Matching
                    is by declared name, so renaming a lock without
                    updating the table also fails.
  env-read          No getenv in src/ outside the files that own the
                    runtime environment knobs: util/threading.cc
                    (OIPA_THREADS) and util/fault_injector.cc
                    (OIPA_FAULTS, OIPA_FAULTS_SEED). A new knob is
                    added to that list and to README.md's
                    "Environment variables", not read in passing.

Suppressions: a finding may be waived with a comment on the same line
or the line directly above it:

    // lint:allow(<rule-id>): <reason>

The reason is mandatory. Waivers and clang-tidy NOLINT markers are
counted and printed so the totals stay visible in CI.

Usage: python3 scripts/lint_invariants.py [--repo-root PATH]
Exit status: 0 clean, 1 findings.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".cc", ".h")

RAW_SYNC_RE = re.compile(
    r"std::(mutex|condition_variable(_any)?|lock_guard|unique_lock|"
    r"scoped_lock|shared_mutex|shared_lock|recursive_mutex|timed_mutex)\b"
)
API_CHECK_RE = re.compile(r"\bOIPA_CHECK(_OK|_EQ|_NE|_LT|_LE|_GT|_GE|_OP)?\s*\(")
UNSEEDED_RNG_RE = re.compile(r"std::random_device\b|(?<![\w:])s?rand\s*\(")
RAW_THREAD_RE = re.compile(r"std::(?:j?thread|async)\b(?!::)")
RAW_THREAD_OWNERS = (
    "src/util/threading.h",
    "src/util/threading.cc",
    "src/serve/server.h",
    "src/serve/server.cc",
    "src/oipa/branch_and_bound.cc",
    "src/oipa/api/solver_registry.cc",
)
# An unindented Mutex declaration is at namespace scope (members and
# locals are indented); a static one anywhere is process-wide too.
PROCESS_GLOBAL_RE = re.compile(
    r"^(?:static\s+)?(?:oipa::)?Mutex\s+\w+\s*[;{]"
    r"|^\s*static\s+(?:mutable\s+)?(?:oipa::)?Mutex\b"
    r"|\bstatic\b[^;{}()=]*=\s*new\b", re.MULTILINE)
PROCESS_GLOBAL_OWNERS = (
    "src/util/fault_injector.cc",
    "src/util/threading.cc",
    "src/oipa/api/solver_registry.cc",
)
ENV_READ_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")
ENV_READ_OWNERS = (
    "src/util/threading.cc",
    "src/util/fault_injector.cc",
)
NARROWED_FLAG_RE = re.compile(
    r"static_cast\s*<[^>]*>\s*\(\s*(?:[\w:]+(?:\.|->))*GetInt(?:List)?\s*\(")
ALLOW_RE = re.compile(r"lint:allow\((?P<rule>[a-z-]+)\)\s*:\s*(?P<reason>\S.*)")
ALLOW_NO_REASON_RE = re.compile(r"lint:allow\((?P<rule>[a-z-]+)\)\s*(?!:\s*\S)")
NOLINT_RE = re.compile(r"NOLINT(NEXTLINE|BEGIN|END)?\b(\((?P<checks>[^)]*)\))?")


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments, string and char literals from one line.

    Block comments are handled per-line by the caller (state machine);
    this keeps doc-comment mentions of std::mutex from tripping rules.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            break
        if c in ('"', "'"):
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append('""' if quote == '"' else "''")
        else:
            out.append(c)
        i += 1
    return "".join(out)


class Findings:
    def __init__(self):
        self.errors: list[str] = []
        self.waivers: list[str] = []
        self.nolints: list[str] = []
        self.bad_suppressions: list[str] = []

    def error(self, rule: str, where: str, message: str) -> None:
        self.errors.append(f"{where}: [{rule}] {message}")


def waived(rule: str, lines: list[str], idx: int, where: str,
           findings: Findings) -> bool:
    """True when line idx or the line above carries lint:allow(rule)."""
    for probe in (idx, idx - 1):
        if probe < 0:
            continue
        m = ALLOW_RE.search(lines[probe])
        if m and m.group("rule") == rule:
            findings.waivers.append(
                f"{where}: [{rule}] {m.group('reason').strip()}")
            return True
    return False


def iter_cxx_files(root: str, subdir: str):
    base = os.path.join(root, subdir)
    for dirpath, _, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith(CXX_EXTENSIONS):
                yield os.path.join(dirpath, name)


def code_lines(raw_lines: list[str]) -> list[str]:
    """Each line with comments and string/char literals removed."""
    out = []
    in_block_comment = False
    for raw in raw_lines:
        line = raw
        # Per-line block-comment state machine (good enough for this
        # codebase's comment style; strings containing /* are stripped
        # first inside strip_comments_and_strings when not in a block).
        code_parts = []
        while line:
            if in_block_comment:
                end = line.find("*/")
                if end < 0:
                    line = ""
                else:
                    line = line[end + 2:]
                    in_block_comment = False
            else:
                start = line.find("/*")
                if start < 0:
                    code_parts.append(line)
                    line = ""
                else:
                    code_parts.append(line[:start])
                    line = line[start + 2:]
                    in_block_comment = True
        out.append(strip_comments_and_strings("".join(code_parts)))
    return out


def scan_cxx_file(path: str, rel: str, findings: Findings,
                  rules: list[tuple[str, re.Pattern, str]]) -> None:
    with open(path, encoding="utf-8") as f:
        raw_lines = f.read().splitlines()
    for idx, code in enumerate(code_lines(raw_lines)):
        for rule, pattern, message in rules:
            m = pattern.search(code)
            if not m:
                continue
            where = f"{rel}:{idx + 1}"
            if waived(rule, raw_lines, idx, where, findings):
                continue
            findings.error(rule, where, f"{message} (matched '{m.group(0)}')")


def check_narrowed_flags(root: str, findings: Findings) -> None:
    """A cast around GetInt may wrap the call onto the next line, so the
    rule matches over each src/ file's code joined into one string."""
    for path in iter_cxx_files(root, "src"):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        code = "\n".join(code_lines(raw_lines))
        for m in NARROWED_FLAG_RE.finditer(code):
            idx = code.count("\n", 0, m.start())
            where = f"{rel}:{idx + 1}"
            if waived("narrowed-flag", raw_lines, idx, where, findings):
                continue
            matched = " ".join(m.group(0).split())
            findings.error(
                "narrowed-flag", where,
                "integer flag narrowed by a cast — read it with "
                f"FlagParser::ReadInt (matched '{matched}')")


def check_process_globals(root: str, findings: Findings) -> None:
    """A leaked singleton may break `static T* x =` and `new T` across
    lines, so the rule matches over each src/ file's code joined into
    one string."""
    for path in iter_cxx_files(root, "src"):
        rel = os.path.relpath(path, root)
        if rel.replace(os.sep, "/") in PROCESS_GLOBAL_OWNERS:
            continue
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        code = "\n".join(code_lines(raw_lines))
        for m in PROCESS_GLOBAL_RE.finditer(code):
            idx = code.count("\n", 0, m.start())
            where = f"{rel}:{idx + 1}"
            if waived("process-global", raw_lines, idx, where, findings):
                continue
            matched = " ".join(m.group(0).split())
            findings.error(
                "process-global", where,
                "process-wide state — keep it in an object its owner "
                f"constructs (matched '{matched}')")


def count_suppressions(root: str, findings: Findings) -> None:
    for subdir in ("src", "tests", "bench", "examples"):
        if not os.path.isdir(os.path.join(root, subdir)):
            continue
        for path in iter_cxx_files(root, subdir):
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
            for idx, line in enumerate(lines):
                for m in NOLINT_RE.finditer(line):
                    where = f"{rel}:{idx + 1}"
                    checks = m.group("checks")
                    if not checks:
                        findings.bad_suppressions.append(
                            f"{where}: bare NOLINT — name the check: "
                            "NOLINT(<check>)")
                        continue
                    findings.nolints.append(f"{where}: NOLINT({checks})")
                bad = ALLOW_NO_REASON_RE.search(line)
                if bad:
                    findings.bad_suppressions.append(
                        f"{rel}:{idx + 1}: lint:allow({bad.group('rule')}) "
                        "without a reason — append ': <why>'")


def check_test_registration(root: str, findings: Findings) -> None:
    cmake_path = os.path.join(root, "CMakeLists.txt")
    with open(cmake_path, encoding="utf-8") as f:
        cmake = f.read()
    tests_dir = os.path.join(root, "tests")
    for name in sorted(os.listdir(tests_dir)):
        if not name.endswith("_test.cc"):
            continue
        stem = name[: -len(".cc")]
        if not re.search(rf"\b{re.escape(stem)}\b", cmake):
            findings.error(
                "test-registration", f"tests/{name}",
                f"not registered in CMakeLists.txt (expected '{stem}' in "
                "the test-suite list)")


MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:oipa::)?Mutex\s+(?P<name>[A-Za-z_]\w*)\s*[;{=]")


def check_lock_hierarchy(root: str, findings: Findings) -> None:
    """Every Mutex declared outside src/util must appear (by name) in the
    README's Locking hierarchy section."""
    readme_path = os.path.join(root, "README.md")
    if not os.path.isfile(readme_path):
        return
    with open(readme_path, encoding="utf-8") as f:
        readme_lines = f.read().splitlines()
    section: list[str] = []
    in_section = False
    for line in readme_lines:
        if "Locking hierarchy" in line:
            in_section = True
        elif in_section and (line.startswith("## ") or
                             (line.startswith("**") and section)):
            break
        if in_section:
            section.append(line)
    section_text = "\n".join(section)
    if not section_text:
        findings.error(
            "lock-hierarchy", "README.md",
            'no "Locking hierarchy" section found — document lock '
            "ordering before adding mutexes")
        return
    for path in iter_cxx_files(root, "src"):
        rel = os.path.relpath(path, root)
        if rel.startswith(os.path.join("src", "util") + os.sep):
            continue
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for idx, line in enumerate(lines):
            m = MUTEX_DECL_RE.match(line)
            if not m:
                continue
            name = m.group("name")
            if re.search(rf"\b{re.escape(name)}\b", section_text):
                continue
            where = f"{rel}:{idx + 1}"
            if waived("lock-hierarchy", lines, idx, where, findings):
                continue
            findings.error(
                "lock-hierarchy", where,
                f"Mutex '{name}' is not documented in README.md's "
                "Locking hierarchy table — add a row (lock, what it "
                "guards, ordering constraints)")


def check_bench_baselines(root: str, findings: Findings) -> None:
    ci_path = os.path.join(root, ".github", "workflows", "ci.yml")
    if not os.path.isfile(ci_path):
        return
    with open(ci_path, encoding="utf-8") as f:
        ci_lines = f.read().splitlines()
    # Join shell line continuations so a gate invocation split across
    # lines ("check_perf_regression.py FOO \\\n  bench/BASELINE_FOO")
    # still matches as one statement.
    joined = re.sub(r"\\\n\s*", " ", "\n".join(ci_lines))
    produced: dict[str, int] = {}
    for idx, line in enumerate(ci_lines):
        for m in re.finditer(r"(BENCH_[A-Za-z0-9_]+)\.json", line):
            produced.setdefault(m.group(1), idx)
    for bench_name, idx in sorted(produced.items()):
        suffix = bench_name[len("BENCH_"):]
        where = f".github/workflows/ci.yml:{idx + 1}"
        baseline = f"BASELINE_{suffix}.json"
        has_baseline = os.path.isfile(os.path.join(root, "bench", baseline))
        gated = re.search(
            rf"check_perf_regression\.py[^\n]*{re.escape(baseline)}"
            rf"|{re.escape(baseline)}[^\n]*check_perf_regression\.py",
            joined)
        if has_baseline and gated:
            continue
        if waived("bench-baseline", ci_lines, idx, where, findings):
            continue
        missing = []
        if not has_baseline:
            missing.append(f"bench/{baseline} does not exist")
        if not gated:
            missing.append("no check_perf_regression.py gate in ci.yml")
        findings.error(
            "bench-baseline", where,
            f"{bench_name}.json is produced but ungated: "
            + "; ".join(missing))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repo-root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args()
    root = args.repo_root

    findings = Findings()

    for path in iter_cxx_files(root, "src"):
        rel = os.path.relpath(path, root)
        rules = [
            ("unseeded-rng", UNSEEDED_RNG_RE,
             "unseeded randomness — derive from an explicit uint64 seed"),
        ]
        if rel.replace(os.sep, "/") not in RAW_THREAD_OWNERS:
            rules.append(
                ("raw-thread", RAW_THREAD_RE,
                 "thread started outside util/threading — use ParallelFor "
                 "or BackgroundTask (util/threading.h)"))
        if rel.replace(os.sep, "/") not in ENV_READ_OWNERS:
            rules.append(
                ("env-read", ENV_READ_RE,
                 "environment read outside the knob owners — list a new "
                 "knob in ENV_READ_OWNERS and README.md's Environment "
                 "variables"))
        if not rel.startswith(os.path.join("src", "util") + os.sep):
            rules.append(
                ("raw-sync", RAW_SYNC_RE,
                 "raw std synchronization primitive — use oipa::Mutex / "
                 "oipa::MutexLock / oipa::CondVar (util/threading.h)"))
        if rel.startswith(
                os.path.join("src", "oipa", "api") + os.sep) or \
                rel.startswith(os.path.join("src", "serve") + os.sep) or \
                rel == os.path.join("src", "util", "fault_injector.h"):
            rules.append(
                ("api-check", API_CHECK_RE,
                 "CHECK abort in the StatusOr API layer — return a "
                 "Status instead (the serve daemon must answer bad "
                 "wire input with an error response, never abort)"))
        scan_cxx_file(path, rel, findings, rules)

    for subdir in ("bench", "examples", "tests"):
        if not os.path.isdir(os.path.join(root, subdir)):
            continue
        for path in iter_cxx_files(root, subdir):
            rel = os.path.relpath(path, root)
            scan_cxx_file(
                path, rel, findings,
                [("raw-sync", RAW_SYNC_RE,
                  "raw std synchronization primitive — use oipa::Mutex / "
                  "oipa::MutexLock / oipa::CondVar (util/threading.h)")])

    check_narrowed_flags(root, findings)
    check_process_globals(root, findings)
    check_test_registration(root, findings)
    check_bench_baselines(root, findings)
    check_lock_hierarchy(root, findings)
    count_suppressions(root, findings)

    for line in findings.bad_suppressions:
        print(f"ERROR {line}")
    for line in findings.errors:
        print(f"ERROR {line}")
    if findings.nolints:
        print(f"clang-tidy NOLINT suppressions: {len(findings.nolints)}")
        for line in findings.nolints:
            print(f"  {line}")
    if findings.waivers:
        print(f"lint:allow waivers: {len(findings.waivers)}")
        for line in findings.waivers:
            print(f"  {line}")
    total = len(findings.errors) + len(findings.bad_suppressions)
    if total:
        print(f"lint_invariants: {total} finding(s)")
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
