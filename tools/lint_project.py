#!/usr/bin/env python3
"""Project-invariant linter: the repo rules no generic tool knows.

Runs as a ctest (label: lint) and in the CI tidy+lint job.  Each rule
exists because violating it has already bitten (or would silently bite)
a documented contract of this codebase:

  artifact-write   Exported artifacts (BENCH_*.json, spec emissions, store
                   entries) must go through core::atomic_write_text so an
                   interrupted writer never leaves a torn file — raw
                   std::ofstream/fopen writers in bench/, tools/ and
                   examples/ bypass the temp+rename+fsync protocol.
  env-access       Environment access goes through core/env (read_bench_env
                   / read_store_env / read_obs_env): strict validation with
                   exit(2) on a typo'd or retired knob.  A stray std::getenv
                   silently misconfigures a run.
  no-rand          rand()/srand() would introduce a hidden global RNG; all
                   randomness derives from patterns/rng.hpp seeded streams
                   (bit-exact reproducibility depends on it).
  no-iostream-hot  <iostream> in the hot-path kernels (gpusim, numeric,
                   patterns, gemm) drags in static init order and
                   locale-sensitive formatting; those layers are pure
                   compute and must stay stream-free.
  no-locale        std::locale/setlocale anywhere in src/ or tools/ can
                   flip decimal formatting under the canonical-key and
                   JSON round-trip guarantees ('.' is load-bearing).
  energy-double    Energy sums (*_j fields/locals) accumulate over up to
                   millions of slices; float accumulation loses joules.
                   All energy arithmetic is double.
  no-detach        Detached threads outlive scope with no join point —
                   they race process teardown and poison TSan runs.  All
                   threads in src/ are joined.
  no-sleep-poll    std::this_thread::sleep_for/sleep_until in src/: the
                   library waits on condition variables (engine queue,
                   job completion, serve streamer wake), never on a timer.
                   A sleep-poll loop sets a latency floor and burns a core
                   when idle.  Tools may sleep for display intervals
                   (gpowerctl top); tests may back off while connecting.
  one-clock        Raw std::chrono::steady_clock reads outside core/obs
                   fork the time base: spans, metrics and bench timings
                   must agree about "now".  Time through core::obs
                   (now_ns / Span / StopWatch) only.
  span-name        Trace span names follow the domain.verb convention
                   (lowercase dotted segments, e.g. "engine.submit",
                   "replica.fleet").  trace_report.py groupings, the
                   check_trace --require/--require-args globs and the
                   README's span table all key on these names; a
                   camelCase or undotted one silently falls out of every
                   analysis.  Checked at Span/record_span/obs_end call
                   sites and k*SpanName literal arrays.
  cmake-complete   Every src/**/*.cpp must be listed in CMakeLists.txt;
                   an unregistered TU "builds" green while dead.
  specs-valid      Every committed examples/specs/*.json must parse and
                   validate through `gpowerctl validate` — a drifted spec
                   (renamed field, stale enum value) otherwise rots
                   silently until a user copies it.  Runs only when
                   --gpowerctl points at a built binary, so the linter
                   stays usable without a build tree.

Usage: lint_project.py [--root DIR] [--gpowerctl PATH]
       exit 0 clean, 1 with findings
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys

# (rule, regex, dirs, exempt paths, message)
Finding = tuple[str, pathlib.Path, int, str]

SRC_DIRS = ("src", "bench", "tools", "examples", "tests")
HOT_DIRS = ("src/gpusim", "src/numeric", "src/patterns", "src/gemm")
ARTIFACT_DIRS = ("bench", "tools", "examples")

# Deliberate exemptions, each with its reason pinned here so the list
# stays curated rather than growing ad hoc:
EXEMPT = {
    # The atomic-write implementation itself (fopen + fsync + rename).
    "artifact-write": {"src/core/store/result_store.cpp"},
    # The one sanctioned reader of the process environment.
    "env-access": {"src/core/env.cpp", "src/core/env.hpp"},
    # Tests write deliberately torn/corrupt fixtures to prove the store
    # treats them as misses.
    "artifact-write-tests": set(),
    # The one sanctioned steady_clock site (obs::now_ns).
    "one-clock": {"src/core/obs/obs.cpp"},
}

# span-name: "domain.verb" — at least two lowercase dotted segments.
SPAN_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
# Call sites that take a span name as their first argument.  \bSpan\b
# deliberately excludes SpanArgs.
SPAN_SITE_RE = re.compile(
    r"\bSpan\b\s*(\w+\s*)?\(|\brecord_span\s*\(|\bobs_end\s*\("
)
STRING_LITERAL_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


def strip_comments(text: str, keep_strings: bool = False) -> str:
    """Blank out // and /* */ comments and (unless keep_strings) string
    literals, preserving line structure so reported line numbers stay
    exact.  keep_strings=True is for rules that inspect literal contents
    (span-name) without tripping over strings quoted in comments."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw strings: skip to the matching delimiter unmangled.
                m = re.match(r'R"([^ ()\\\t\v\f\n]*)\(', text[i - 1 : i + 18])
                if i > 0 and text[i - 1] == "R" and m:
                    end = text.find(")" + m.group(1) + '"', i)
                    if end == -1:
                        end = n - 1
                    seg = text[i : end + len(m.group(1)) + 2]
                    out.append("".join("\n" if ch == "\n" else " " for ch in seg))
                    i += len(seg)
                    continue
                state = "str"
                out.append('"' if keep_strings else " ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append("'" if keep_strings else " ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append(text[i : i + 2] if keep_strings else "  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            if keep_strings:
                out.append(c)
            else:
                out.append(" " if c != "\n" else "\n")
        i += 1
    return "".join(out)


def rel(path: pathlib.Path, root: pathlib.Path) -> str:
    return path.relative_to(root).as_posix()


def iter_sources(root: pathlib.Path):
    for top in SRC_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".h"):
                yield path


def grep(code: str, pattern: str):
    regex = re.compile(pattern)
    for lineno, line in enumerate(code.splitlines(), start=1):
        if regex.search(line):
            yield lineno, line.strip()


def lint_file(path: pathlib.Path, root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    rpath = rel(path, root)
    raw = path.read_text(encoding="utf-8")
    code = strip_comments(raw)

    def add(rule: str, lineno: int, msg: str) -> None:
        findings.append((rule, path, lineno, msg))

    # env-access: std::getenv / ::getenv / bare getenv outside core/env.
    if rpath not in EXEMPT["env-access"]:
        for lineno, _ in grep(code, r"\bgetenv\s*\("):
            add("env-access", lineno,
                "environment access outside core/env — use read_bench_env/"
                "read_store_env/read_obs_env (strict validation, exit 2)")

    # no-rand: the C global RNG, anywhere.
    for lineno, _ in grep(code, r"(^|[^\w.:])s?rand\s*\("):
        add("no-rand", lineno,
            "rand()/srand() is a hidden global RNG — use patterns/rng.hpp "
            "seeded streams (bit-exact reproducibility)")

    # no-iostream-hot: stream machinery out of the compute kernels.
    if any(rpath.startswith(d + "/") for d in HOT_DIRS):
        for lineno, _ in grep(code, r'#\s*include\s*<iostream>'):
            add("no-iostream-hot", lineno,
                "<iostream> in a hot-path layer — kernels are pure compute; "
                "do I/O in bench/tools/core layers")

    # no-locale: locale machinery flips decimal formatting under the
    # canonical-key guarantee.
    if rpath.startswith(("src/", "tools/")):
        for lineno, _ in grep(code, r"std::locale|\bsetlocale\s*\("):
            add("no-locale", lineno,
                "locale use can flip numeric formatting — canonical keys "
                "and JSON round-trips require the C locale ('.')")

    # energy-double: no float declarations/casts for *_j energy values.
    for lineno, _ in grep(code, r"\bfloat\s+[A-Za-z_]*(_j|_joules)\b"):
        add("energy-double", lineno,
            "energy accumulator declared float — *_j sums run over up to "
            "millions of slices; use double")
    for lineno, _ in grep(code, r"static_cast<float>\(\s*[A-Za-z_.\[\]>-]*_j[\s)]"):
        add("energy-double", lineno,
            "energy value narrowed to float — keep *_j arithmetic double")

    # no-detach: every thread in the library is joined.
    if rpath.startswith("src/"):
        for lineno, _ in grep(code, r"\.detach\s*\(\s*\)"):
            add("no-detach", lineno,
                "detached thread races process teardown (and poisons TSan) "
                "— keep a handle and join")

    # no-sleep-poll: the library waits on events, not timers.
    if rpath.startswith("src/"):
        for lineno, _ in grep(code, r"\bsleep_(for|until)\s*\("):
            add("no-sleep-poll", lineno,
                "sleep in the library — wait on a condition variable that "
                "the producer signals instead of polling on a timer")

    # one-clock: all timing flows through core/obs so traces, metrics and
    # bench numbers share a single time base.
    if rpath not in EXEMPT["one-clock"]:
        for lineno, _ in grep(code, r"\bsteady_clock\b"):
            add("one-clock", lineno,
                "raw steady_clock outside core/obs — use core::obs::now_ns"
                "/Span/StopWatch so all timings share one clock")

    # span-name: span names at Span/record_span/obs_end call sites and in
    # k*SpanName literal arrays follow domain.verb.  Sites are detected in
    # the string-blanked code; names are extracted from a comment-stripped
    # view that keeps literals, so strings quoted in doc comments don't
    # false-positive.  Sites whose name is not a literal on the site line
    # or the next (e.g. a kReplicaSpanName[i] lookup) are covered at the
    # array definition instead.
    code_with_strings = strip_comments(raw, keep_strings=True)
    cws_lines = code_with_strings.splitlines()

    def literal_window(lineno: int, span: int = 2) -> str:
        return " ".join(cws_lines[lineno - 1 : lineno - 1 + span])

    for lineno, _ in grep(code, SPAN_SITE_RE.pattern):
        m = STRING_LITERAL_RE.search(literal_window(lineno))
        if m and not SPAN_NAME_RE.match(m.group(1)):
            add("span-name", lineno,
                f'span name "{m.group(1)}" is not domain.verb — '
                "trace_report/check_trace groupings key on lowercase "
                "dotted names")
    for lineno, _ in grep(code, r"\bk\w*SpanName\s*\["):
        for offset in range(4):
            window = cws_lines[lineno - 1 + offset : lineno + offset]
            if not window:
                break
            for m in STRING_LITERAL_RE.finditer(window[0]):
                if not SPAN_NAME_RE.match(m.group(1)):
                    add("span-name", lineno + offset,
                        f'span name "{m.group(1)}" is not domain.verb — '
                        "trace_report/check_trace groupings key on "
                        "lowercase dotted names")
            if "}" in window[0]:
                break

    # artifact-write: bench/tools/examples write artifacts only through
    # atomic_write_text.  (Tests may write deliberately corrupt fixtures.)
    if (any(rpath.startswith(d + "/") for d in ARTIFACT_DIRS)
            and rpath not in EXEMPT["artifact-write"]):
        for lineno, _ in grep(code,
                              r"\bofstream\b|\bfopen\s*\([^)]*,\s*.[wa]"):
            add("artifact-write", lineno,
                "raw file writer in an artifact-producing layer — route "
                "through core::atomic_write_text (temp+fsync+rename)")

    return findings


def lint_cmake(root: pathlib.Path) -> list[Finding]:
    """cmake-complete: every src/**/*.cpp appears in CMakeLists.txt."""
    findings: list[Finding] = []
    cmake_path = root / "CMakeLists.txt"
    cmake = cmake_path.read_text(encoding="utf-8")
    for path in sorted((root / "src").rglob("*.cpp")):
        rpath = rel(path, root)
        if rpath not in cmake:
            findings.append((
                "cmake-complete", cmake_path, 1,
                f"{rpath} is not registered in CMakeLists.txt — the TU is "
                "dead weight (never compiled, never tested)"))
    return findings


def lint_specs(root: pathlib.Path, gpowerctl: pathlib.Path) -> list[Finding]:
    """specs-valid: every committed examples/specs/*.json validates through
    the real parser (`gpowerctl validate`), covering single-scenario,
    campaign, and dag forms alike."""
    findings: list[Finding] = []
    specs_dir = root / "examples" / "specs"
    if not specs_dir.is_dir():
        return findings
    for spec in sorted(specs_dir.glob("*.json")):
        proc = subprocess.run(
            [str(gpowerctl), "validate", str(spec)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout).strip().splitlines()
            findings.append((
                "specs-valid", spec, 1,
                "committed spec fails `gpowerctl validate`: "
                + (detail[0] if detail else f"exit {proc.returncode}")))
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=pathlib.Path(__file__).parent.parent,
                        type=pathlib.Path, help="repository root")
    parser.add_argument("--gpowerctl", default=None, type=pathlib.Path,
                        help="built gpowerctl binary; enables the "
                             "specs-valid rule (skipped when absent)")
    args = parser.parse_args()
    root = args.root.resolve()

    findings: list[Finding] = []
    checked = 0
    for path in iter_sources(root):
        checked += 1
        findings.extend(lint_file(path, root))
    findings.extend(lint_cmake(root))
    if args.gpowerctl is not None and args.gpowerctl.exists():
        findings.extend(lint_specs(root, args.gpowerctl))

    for rule, path, lineno, msg in findings:
        print(f"{rel(path, root)}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"lint_project: {len(findings)} finding(s) in {checked} files")
        return 1
    print(f"lint_project: OK ({checked} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
