#!/usr/bin/env python3
"""Repo-invariant linter: enforce MVQ's cross-file structural rules.

Checks that cannot be expressed per-translation-unit (so neither the
compiler nor clang-tidy sees them):

  1. intrinsics  — arch headers (<immintrin.h>, <arm_neon.h>) and raw
     intrinsic tokens (_mm256_*, vld1q_*, __m256, float32x4_t, ...) may
     appear only in the per-ISA TUs src/common/simd_avx2.cpp and
     src/common/simd_neon.cpp. Everything else must go through the
     dispatch table in simd_dispatch.hpp.
  2. env-knobs   — every quoted "MVQ_*" literal must be registered in
     src/common/env.cpp's kKnobs table, and every registered knob must
     have a row in README.md's knob table.
  3. dispatch    — every function-pointer slot declared in the Kernels
     struct (simd_dispatch.hpp) must be populated in all three ISA
     tables (kScalarKernels, kAvx2Kernels, kNeonKernels); nullptr slots
     are a crash waiting for the first caller.
  4. header-guard — src/**/*.hpp include guards must be
     MVQ_<PATH>_HPP (path relative to src/, uppercased, / and . -> _).
  5. banned      — raw std::getenv/setenv (outside src/common/env.cpp),
     rand/srand (outside src/common/random.*), printf in src/ (use
     common/logging; bench mains and examples may print).

Run from any working directory, in a git checkout or a source export
(ctest runs it as `mvq_lint`); use --selftest to run the checks
against tests/lint_fixtures/ and assert each known-bad snippet is
flagged (ctest `lint_selftest`).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SIMD_TUS = {"src/common/simd_avx2.cpp", "src/common/simd_neon.cpp"}
ENV_TU = "src/common/env.cpp"
RANDOM_PREFIX = "src/common/random"
DISPATCH_HPP = "src/common/simd_dispatch.hpp"
DISPATCH_TABLES = {
    "src/common/simd_dispatch.cpp": "kScalarKernels",
    "src/common/simd_avx2.cpp": "kAvx2Kernels",
    "src/common/simd_neon.cpp": "kNeonKernels",
}
FIXTURE_DIR = "tests/lint_fixtures"
CODE_SUFFIXES = (".cpp", ".hpp")
CODE_DIRS = ("src", "tests", "bench", "examples")

INTRINSIC_RE = re.compile(
    r"immintrin\.h|arm_neon\.h|x86intrin\.h"
    r"|\b_mm\d*_\w+|\b__m(?:128|256|512)[di]?\b"
    r"|\bv(?:ld1q?|st1q?|fmaq|fmsq|addq|subq|mulq|dupq|movq|maxvq|getq)_\w+"
    r"|\bfloat32x\d+(?:x\d+)?_t\b|\bint32x\d+_t\b")
KNOB_LITERAL_RE = re.compile(r'"(MVQ_[A-Z0-9_]+)"')
KNOB_TABLE_ENTRY_RE = re.compile(r'^\s*\{"(MVQ_[A-Z0-9_]+)",', re.MULTILINE)
README_ROW_RE = re.compile(r"^\|\s*`(MVQ_[A-Z0-9_]+)", re.MULTILINE)
SLOT_RE = re.compile(r"\(\*(\w+)\)\s*\(")
GUARD_IFNDEF_RE = re.compile(r"^\s*#ifndef\s+(\w+)", re.MULTILINE)
GUARD_DEFINE_RE = re.compile(r"^\s*#define\s+(\w+)", re.MULTILINE)
GETENV_RE = re.compile(r"\b(?:std::)?(?:getenv|setenv|unsetenv|putenv)\s*\(")
RAND_RE = re.compile(r"\b(?:std::)?s?rand\s*\(")
PRINTF_RE = re.compile(r"\bprintf\s*\(")


def repo_root() -> Path:
    # From the script's own path, not the caller's working directory:
    # ctest runs it from the build tree, which may live outside the
    # checkout.
    return Path(__file__).resolve().parent.parent


def strip_comments(text: str) -> str:
    """Remove //-line and /* */ block comments, preserving string
    literals (the env-knob check needs them) and line numbers (block
    comments keep their newlines so error lines stay accurate)."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"' or c == "'":
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i:i + 2])
                    i += 2
                    continue
                out.append(text[i])
                i += 1
            if i < n:
                out.append(quote)
                i += 1
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


# ------------------------------------------------------------- checks
# Each check takes (repo-relative path, comment-stripped text) and
# returns a list of "path:line: message" strings, so the self-test can
# replay them against fixture snippets under pretend paths.

def check_intrinsics(path: str, text: str) -> list[str]:
    if path in SIMD_TUS:
        return []
    errors = []
    for m in INTRINSIC_RE.finditer(text):
        errors.append(
            f"{path}:{line_of(text, m.start())}: intrinsic or arch header "
            f"'{m.group(0)}' outside the per-ISA TUs "
            f"({', '.join(sorted(SIMD_TUS))}); go through the dispatch "
            "table in simd_dispatch.hpp")
    return errors


def check_knob_literals(path: str, text: str,
                        registered: set[str]) -> list[str]:
    errors = []
    for m in KNOB_LITERAL_RE.finditer(text):
        if m.group(1) not in registered:
            errors.append(
                f"{path}:{line_of(text, m.start())}: env knob "
                f"'{m.group(1)}' is not registered in {ENV_TU} (kKnobs); "
                "every MVQ_* variable must be declared there")
    return errors


def check_dispatch_table(path: str, text: str, table: str,
                         slots: list[str]) -> list[str]:
    m = re.search(r"constexpr\s+Kernels\s+" + table
                  + r"\s*=\s*\{(.*?)\};", text, re.DOTALL)
    if not m:
        return [f"{path}: dispatch table '{table}' not found"]
    body = m.group(1)
    errors = []
    if "nullptr" in body:
        errors.append(
            f"{path}:{line_of(text, m.start())}: dispatch table '{table}' "
            "contains nullptr slots; every Kernels entry must be populated")
    entries = re.findall(r"&\w+", body)
    if len(entries) != len(slots):
        errors.append(
            f"{path}:{line_of(text, m.start())}: dispatch table '{table}' "
            f"populates {len(entries)} of {len(slots)} function-pointer "
            f"slots declared in {DISPATCH_HPP} ({', '.join(slots)})")
    return errors


def expected_guard(path: str) -> str:
    rel = path[len("src/"):] if path.startswith("src/") else path
    return "MVQ_" + re.sub(r"[^A-Za-z0-9]", "_", rel).upper()


def check_header_guard(path: str, text: str) -> list[str]:
    want = expected_guard(path)
    ifndef = GUARD_IFNDEF_RE.search(text)
    define = GUARD_DEFINE_RE.search(text)
    if not ifndef or not define or ifndef.group(1) != define.group(1):
        return [f"{path}:1: missing or mismatched include guard "
                f"(want #ifndef/#define {want})"]
    if ifndef.group(1) != want:
        return [f"{path}:{line_of(text, ifndef.start())}: include guard "
                f"'{ifndef.group(1)}' does not match path (want {want})"]
    return []


def check_banned(path: str, text: str) -> list[str]:
    errors = []
    if path != ENV_TU:
        for m in GETENV_RE.finditer(text):
            errors.append(
                f"{path}:{line_of(text, m.start())}: raw environment "
                "access; use the read-once registry in common/env.hpp "
                "(mvq::env::flag/int_/str)")
    if not path.startswith(RANDOM_PREFIX):
        for m in RAND_RE.finditer(text):
            errors.append(
                f"{path}:{line_of(text, m.start())}: C rand()/srand(); "
                "use mvq::Rng (common/random.hpp) for reproducibility")
    if path.startswith("src/"):
        for m in PRINTF_RE.finditer(text):
            errors.append(
                f"{path}:{line_of(text, m.start())}: printf in the "
                "library; use common/logging.hpp (info/warn/fatal)")
    return errors


# --------------------------------------------------------- repo driver

def code_files(root: Path) -> list[str]:
    # A directory walk, not `git ls-files`, so the lint also runs in a
    # source export without .git. Nothing under CODE_DIRS is git-ignored.
    rels = (p.relative_to(root).as_posix()
            for d in CODE_DIRS for p in (root / d).rglob("*")
            if p.suffix in CODE_SUFFIXES and p.is_file())
    return sorted(r for r in rels if not r.startswith(FIXTURE_DIR))


def read_rel(root: Path, rel: str) -> str:
    return (root / rel).read_text(encoding="utf-8")


def registered_knobs(root: Path) -> set[str]:
    return set(KNOB_TABLE_ENTRY_RE.findall(read_rel(root, ENV_TU)))


def dispatch_slots(root: Path) -> list[str]:
    text = strip_comments(read_rel(root, DISPATCH_HPP))
    m = re.search(r"struct\s+Kernels\s*\{(.*?)\n\};", text, re.DOTALL)
    body = m.group(1) if m else ""
    return SLOT_RE.findall(body)


def lint_repo(root: Path) -> list[str]:
    errors: list[str] = []

    registered = registered_knobs(root)
    slots = dispatch_slots(root)
    if len(slots) < 2:
        errors.append(f"{DISPATCH_HPP}: could not parse Kernels "
                      "function-pointer slots (linter regex drifted?)")

    documented = set(README_ROW_RE.findall(read_rel(root, "README.md")))
    for knob in sorted(registered - documented):
        errors.append(f"README.md: registered env knob '{knob}' has no "
                      "row in the environment-variable table")

    for rel in code_files(root):
        text = strip_comments(read_rel(root, rel))
        errors.extend(check_intrinsics(rel, text))
        errors.extend(check_knob_literals(rel, text, registered))
        if rel.endswith(".hpp") and rel.startswith("src/"):
            errors.extend(check_header_guard(rel, text))
        errors.extend(check_banned(rel, text))

    for rel, table in DISPATCH_TABLES.items():
        text = strip_comments(read_rel(root, rel))
        errors.extend(check_dispatch_table(rel, text, table, slots))

    return errors


# ------------------------------------------------------------ selftest

# fixture file -> (pretend repo path, check runner). Each fixture is a
# known-bad snippet; the self-test fails unless its check flags it.
def selftest(root: Path) -> int:
    registered = registered_knobs(root)
    slots = dispatch_slots(root)
    cases = {
        "bad_intrinsics.cpp": (
            "src/tensor/bad_intrinsics.cpp",
            lambda p, t: check_intrinsics(p, t)),
        "bad_knob.cpp": (
            "src/core/bad_knob.cpp",
            lambda p, t: check_knob_literals(p, t, registered)),
        "bad_dispatch.cpp": (
            "src/common/bad_dispatch.cpp",
            lambda p, t: check_dispatch_table(p, t, "kBadKernels", slots)),
        "bad_guard.hpp": (
            "src/nn/bad_guard.hpp",
            lambda p, t: check_header_guard(p, t)),
        "bad_getenv.cpp": (
            "src/common/bad_getenv.cpp",
            lambda p, t: check_banned(p, t)),
        "bad_printf_rand.cpp": (
            "src/tensor/bad_printf_rand.cpp",
            lambda p, t: check_banned(p, t)),
    }
    failures = []
    fixture_root = root / FIXTURE_DIR
    for name, (pretend, run) in sorted(cases.items()):
        path = fixture_root / name
        if not path.exists():
            failures.append(f"{FIXTURE_DIR}/{name}: fixture missing")
            continue
        text = strip_comments(path.read_text(encoding="utf-8"))
        found = run(pretend, text)
        if not found:
            failures.append(f"{FIXTURE_DIR}/{name}: check reported no "
                            "errors for a known-bad snippet")
        else:
            print(f"ok: {name} -> {len(found)} error(s), e.g. {found[0]}")

    # A clean snippet must stay clean (guards against over-broad regexes).
    good = ('#ifndef MVQ_TENSOR_GOOD_HPP\n#define MVQ_TENSOR_GOOD_HPP\n'
            'namespace mvq { inline int mmHelper() { return 0; } }\n'
            '#endif // MVQ_TENSOR_GOOD_HPP\n')
    noise = (check_intrinsics("src/tensor/good.hpp", good)
             + check_banned("src/tensor/good.hpp", good)
             + check_header_guard("src/tensor/good.hpp", good))
    if noise:
        failures.append("clean snippet falsely flagged: " + noise[0])

    if failures:
        print("\n".join(failures))
        print(f"\nselftest: {len(failures)} failure(s)")
        return 1
    print(f"selftest: all {len(cases)} fixtures flagged, clean snippet "
          "clean")
    return 0


def main() -> int:
    root = repo_root()
    if "--selftest" in sys.argv[1:]:
        return selftest(root)
    errors = lint_repo(root)
    if errors:
        print("\n".join(errors))
        print(f"\nmvq-lint: {len(errors)} violation(s)")
        return 1
    print(f"mvq-lint: ok ({len(code_files(root))} files, "
          f"{len(registered_knobs(root))} knobs, "
          f"{len(dispatch_slots(root))} dispatch slots)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
