#!/usr/bin/env python3
"""Repo-invariant linter and analyzer for pilote.

Four stages, selected with --stage (default: all).

`--stage style` enforces project conventions that the compiler cannot:

  * include guards named PILOTE_<PATH>_H_ (path relative to src/, or the
    literal directory for tests/, bench/, examples/)
  * no `using namespace` at namespace/global scope in headers
  * no raw assert()/abort() in src/ -- invariants use PILOTE_CHECK so
    failures are reported with file/line and a streamed message
  * no <iostream> in headers (it drags in static init and bloats every TU;
    logging.h is the sanctioned output path)
  * headers are self-contained (each compiles as its own translation unit)
  * metric names at registration sites (PILOTE_METRIC_* macros and the
    registry Get{Counter,Gauge,Histogram}[Family] calls) follow the
    telemetry naming convention: a lowercase `subsystem/name` path, time
    unit suffixes (_ms/_us/_ns/_seconds) only on histograms, and the
    `_total` suffix only on counters

`--stage concurrency` enforces the repo side of the Clang thread-safety
contract (src/common/thread_annotations.h) -- invariants that even
-Wthread-safety cannot see:

  * raw std::mutex / std::shared_mutex / std::condition_variable outside
    thread_annotations.h are rejected (everything goes through the
    annotated Mutex/SharedMutex/CondVar capability wrappers)
  * in a class owning a Mutex/SharedMutex, every data member must carry
    PILOTE_GUARDED_BY / PILOTE_PT_GUARDED_BY or be const, std::atomic,
    std::thread, a lock/condvar, or carry a `// unguarded: <reason>` marker
  * a Result<T>-returning call used as a bare expression statement is a
    discarded error (complements [[nodiscard]], which (void)-casts and
    non-Werror builds can silence)
  * std::atomic operations must state an explicit std::memory_order (the
    relaxed-counter policy is a reviewable decision at every site, never an
    accidental seq_cst default)

`--stage hotpath` enforces the hot-path discipline contract
(src/common/hot_path.h): it builds a lightweight intra-repo call graph
(function definitions by brace scan, call sites by identifier matching —
the same deliberately name-based precision as the concurrency stage),
takes the transitive closure of every function marked PILOTE_HOT_PATH,
and rejects, anywhere in that closure:

  * heap allocation: `new`, std::make_unique/make_shared, growing
    container calls (push_back/emplace/resize/reserve/insert/assign),
    construction of local Tensor/std::vector/std::string/... values
  * string building: std::to_string, stringstreams
  * writer-lock acquisition: MutexLock / WriterLock (ReaderLock is the
    sanctioned steady-state lock)
  * exceptions: `throw`
  * blocking I/O: fstreams, PILOTE_LOG, printf-family, std::cout/cerr,
    std::this_thread::sleep_for/until

PILOTE_CHECK / PILOTE_DCHECK statements are exempt (their streamed
message only materializes on the abort path). `// hotpath-ok: <reason>`
on a line (or the comment line directly above) exempts one statement; on
a function's definition head it exempts the whole body and prunes the
function from the closure (for name-collision pulls that are not on the
steady-state path, and for leaf kernels whose output allocation is the
documented per-call budget). Accessor-ish names (size, rows, data, ...)
do not propagate the closure — by repo convention those are trivial
inline accessors, and following every `size(` would pull in the world.

`--stage lifetime` flags the dangling-reference bug class — views and
captures that outlive the buffer or object they point into. Four checks,
same name-based precision as the other stages:

  * ref-capture: a lambda with a by-reference capture (`[&]`, `[&x]`,
    `[this]`) passed to a deferred-execution sink (std::thread/jthread/
    async construction, pool Submit, queue Push/TryPush, emplace_back of
    workers, callback/failpoint registration) — the lambda runs after the
    enclosing frame may be gone. Bare `this` handed to a std::thread
    constructor counts too (member-fn thread entry points).
  * return-local: a function whose return type is a reference, pointer,
    string_view, or Span returning (a view into) a function-local owner
    (std::string/vector/Tensor/... local or by-value parameter), or the
    `.c_str()`/`.data()` of a temporary (`return std::string{...}.c_str()`).
  * stored-view: assigning `&container[i]`, `.data()`, `.c_str()`,
    `.begin()`/`.end()` of a known growable container (vector, string,
    deque, Tensor — contiguous storage that reallocates) into a member or
    outliving struct field; the next growth invalidates the stored view.
  * iter-invalidation: mutating a container (push_back/erase/resize/
    ResizeRows/...) inside a range-for over that same container.

`// lifetime-ok: <reason>` on the flagged statement's first line (or the
comment line directly above) records an audited suppression. The runtime
complement is src/common/span.h: Span/ConstSpan views that bounds- and
generation-check accesses in debug builds (Tensor bumps its generation
on reallocation) and compile down to pointer+size in release.

Run directly, via the `lint` CMake target, or as the `repo_lint` /
`repo_analyzer` / `repo_hotpath` / `repo_lifetime` ctest tests:

  python3 tools/pilote_lint.py --root . [--stage STAGE] [--compiler g++]
                               [--no-self-contained] [--json-out PATH]

Exit status is 0 when clean, 1 when any invariant is violated.
`--json-out` additionally writes the findings as a JSON artifact
(file/line/message records) for CI upload.
"""

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile

HEADER_DIRS = ("src", "tests", "bench", "examples")
SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")
HEADER_EXTENSIONS = (".h", ".hpp")
SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")

# Files allowed to call abort()/assert directly (the CHECK machinery itself).
ABORT_ALLOWLIST = {
    "src/common/macros.h",
    "src/common/numerics_guard.cc",
}

USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\s+[\w:]+\s*;")
ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
ABORT_RE = re.compile(r"(?<![\w.:])(?:std::)?abort\s*\(\s*\)")
IOSTREAM_RE = re.compile(r'^\s*#\s*include\s*<iostream>')
INCLUDE_GUARD_IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)\s*$")


def find_files(root, dirs, extensions):
    out = []
    for d in dirs:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(extensions):
                    out.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(out)


def expected_guard(rel_path):
    """src/common/macros.h -> PILOTE_COMMON_MACROS_H_ ; tests/test_util.h ->
    PILOTE_TESTS_TEST_UTIL_H_ (the src/ prefix is dropped, others kept)."""
    parts = rel_path.split(os.sep)
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"\.(h|hpp)$", "", stem)
    stem = re.sub(r"[^A-Za-z0-9]", "_", stem)
    return "PILOTE_" + stem.upper() + "_H_"


def strip_comments_and_strings(line, state):
    """Removes // and /* */ comments and string/char literals from a line so
    pattern checks don't fire inside them. `state` carries the in-block-comment
    flag across lines; returns (stripped_line, state)."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if state["in_block_comment"]:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), state
            state["in_block_comment"] = False
            i = end + 2
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            state["in_block_comment"] = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), state


def check_header_guard(root, rel_path, errors):
    want = expected_guard(rel_path)
    with open(os.path.join(root, rel_path), encoding="utf-8") as f:
        lines = f.read().splitlines()
    guard = None
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        m = INCLUDE_GUARD_IFNDEF_RE.match(line)
        if m:
            guard = m.group(1)
        break
    if guard is None:
        errors.append(f"{rel_path}:1: missing include guard (expected {want})")
    elif guard != want:
        errors.append(
            f"{rel_path}:1: include guard {guard} does not match convention "
            f"{want}")


def check_file_contents(root, rel_path, errors):
    is_header = rel_path.endswith(HEADER_EXTENSIONS)
    in_src = rel_path.split(os.sep)[0] == "src"
    state = {"in_block_comment": False}
    with open(os.path.join(root, rel_path), encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line, state = strip_comments_and_strings(raw.rstrip("\n"), state)
            if is_header and USING_NAMESPACE_RE.match(line):
                errors.append(
                    f"{rel_path}:{lineno}: `using namespace` in a header "
                    "leaks into every includer; use explicit qualification "
                    "or a namespace alias in a function body")
            if is_header and IOSTREAM_RE.match(line):
                errors.append(
                    f"{rel_path}:{lineno}: <iostream> in a header; include "
                    "it in the .cc or use logging.h")
            if in_src and rel_path not in ABORT_ALLOWLIST:
                if ASSERT_RE.search(line):
                    errors.append(
                        f"{rel_path}:{lineno}: raw assert(); use "
                        "PILOTE_CHECK / PILOTE_DCHECK so the failure is "
                        "attributed and active in release builds")
                if ABORT_RE.search(line):
                    errors.append(
                        f"{rel_path}:{lineno}: raw abort(); use "
                        "PILOTE_CHECK(false) << ... so the failure carries "
                        "file/line and a message")


# ---------------------------------------------------------------------------
# Metric-name convention check
# ---------------------------------------------------------------------------

# Registration sites where a metric name appears as a string literal. The
# Family variants are listed before their prefixes so the alternation
# prefers the longer identifier.
METRIC_SITE_RE = re.compile(
    r"\b(PILOTE_METRIC_COUNT|PILOTE_METRIC_GAUGE_SET|"
    r"PILOTE_METRIC_HISTOGRAM|GetCounterFamily|GetGaugeFamily|"
    r"GetHistogramFamily|GetCounter|GetGauge|GetHistogram)\s*\(\s*\"([^\"]*)\"")

METRIC_KIND = {
    "PILOTE_METRIC_COUNT": "counter",
    "GetCounter": "counter",
    "GetCounterFamily": "counter",
    "PILOTE_METRIC_GAUGE_SET": "gauge",
    "GetGauge": "gauge",
    "GetGaugeFamily": "gauge",
    "PILOTE_METRIC_HISTOGRAM": "histogram",
    "GetHistogram": "histogram",
    "GetHistogramFamily": "histogram",
}

# subsystem/name: at least one slash, lowercase [a-z0-9_] segments.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(/[a-z][a-z0-9_]*)+$")

# Durations are distributions: a scalar counter or gauge named *_ms hides
# the tail that the windowed quantiles exist to expose.
METRIC_TIME_SUFFIXES = ("_ms", "_us", "_ns", "_seconds")


def strip_comments_keep_strings(text):
    """Removes // and /* */ comments from a whole file while preserving
    string literal contents and line structure (newlines inside block
    comments are kept so match positions map back to line numbers). The
    per-line stripper empties string literals, so metric names -- which
    live inside the literals -- need this variant."""
    out = []
    i, n = 0, len(text)
    in_block = False
    while i < n:
        c = text[i]
        if in_block:
            if text.startswith("*/", i):
                in_block = False
                i += 2
            else:
                if c == "\n":
                    out.append("\n")
                i += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            in_block = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i:i + 2])
                    i += 2
                else:
                    out.append(text[i])
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def check_metric_names(root, rel_path, errors):
    with open(os.path.join(root, rel_path), encoding="utf-8") as f:
        text = strip_comments_keep_strings(f.read())
    for m in METRIC_SITE_RE.finditer(text):
        site, name = m.group(1), m.group(2)
        kind = METRIC_KIND[site]
        lineno = text.count("\n", 0, m.start(2)) + 1
        where = f"{rel_path}:{lineno}"
        if not METRIC_NAME_RE.match(name):
            errors.append(
                f"{where}: metric name \"{name}\" does not follow the "
                "subsystem/name convention (lowercase [a-z0-9_] segments "
                "joined by '/', e.g. \"serve/request_ms\")")
            continue
        time_suffix = next(
            (s for s in METRIC_TIME_SUFFIXES if name.endswith(s)), None)
        if time_suffix is not None and kind != "histogram":
            errors.append(
                f"{where}: {kind} \"{name}\" carries the duration suffix "
                f"{time_suffix}; durations are distributions -- record "
                "them through a histogram (or drop the unit suffix)")
        if name.endswith("_total") and kind != "counter":
            errors.append(
                f"{where}: {kind} \"{name}\" uses the _total suffix, "
                "which the metric naming convention reserves for counters "
                "(a running count of events)")


# Compiler stderr lines quoted under a failed self-containedness compile.
SELF_CONTAINED_STDERR_LINES = 5


def compile_header_alone(root, tmp, rel_path, compiler):
    """Syntax-checks one header as its own translation unit. Returns the
    finding, or None when it compiles."""
    stub = os.path.join(tmp, re.sub(r"[^A-Za-z0-9]", "_", rel_path) + ".cc")
    with open(stub, "w", encoding="utf-8") as f:
        f.write(f'#include "{os.path.abspath(os.path.join(root, rel_path))}"\n')
    cmd = [
        compiler, "-std=c++20", "-fsyntax-only",
        "-I", os.path.join(root, "src"),
        "-I", root,
        stub,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    lines = proc.stderr.strip().splitlines()
    first_error = next((l for l in lines if "error" in l),
                       lines[0] if lines else "")
    quoted = "".join(f"\n    {l}" for l in lines[:SELF_CONTAINED_STDERR_LINES])
    return (f"{rel_path}:1: header is not self-contained: {first_error} "
            f"(compiler exit code {proc.returncode}){quoted}")


def check_self_contained(root, headers, compiler, errors):
    """Each header must compile on its own: generate `#include "x.h"` TUs and
    run the compiler in syntax-only mode, one compile per CPU at a time."""
    workers = os.cpu_count() or 1
    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        findings = pool.map(
            lambda rel_path: compile_header_alone(root, tmp, rel_path, compiler),
            headers)
        errors.extend(sorted(f for f in findings if f is not None))


# ---------------------------------------------------------------------------
# Concurrency analyzer stage
# ---------------------------------------------------------------------------

# The capability wrapper layer is the only file allowed to touch the raw
# standard-library synchronization types it wraps.
RAW_SYNC_ALLOWLIST = {
    os.path.join("src", "common", "thread_annotations.h"),
}

RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|condition_variable|condition_variable_any|"
    r"lock_guard|scoped_lock|unique_lock|shared_lock)\b")

GUARD_ANNOTATION_RE = re.compile(r"\bPILOTE_(?:PT_)?GUARDED_BY\s*\(")
# A member whose declared type is one of the capability wrappers (a lock the
# class owns, or a condvar which is internally synchronized by contract).
LOCK_MEMBER_RE = re.compile(
    r"\b(?:pilote::)?(?:Mutex|SharedMutex)\s+[A-Za-z_]\w*")
LOCK_TYPE_RE = re.compile(r"\b(?:pilote::)?(?:Mutex|SharedMutex|CondVar)\b")
UNGUARDED_MARKER_RE = re.compile(r"//\s*unguarded\s*:")
SELF_SYNC_MEMBER_RE = re.compile(
    r"\bstd::(?:atomic\b|atomic_flag\b|thread\b|jthread\b|once_flag\b)")
CONST_MEMBER_RE = re.compile(r"^(?:mutable\s+)?(?:static\s+)?const\b")
# `Foo* const ptr_;` — the member itself is immutable after construction
# (the pointee's thread-safety is its own concern), same as leading const.
PTR_CONST_MEMBER_RE = re.compile(r"\*\s*const\s+[A-Za-z_]\w*")
MEMBER_SKIP_RE = re.compile(
    r"^(?:static\b|constexpr\b|using\b|typedef\b|friend\b|enum\b|"
    r"template\b|struct\b|class\b|union\b|explicit\b|virtual\b|operator\b|"
    r"~|PILOTE_|[A-Z_]+\()")
CLASS_HEAD_RE = re.compile(r"\b(class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?"
                           r"([A-Za-z_]\w*)(?:\s*final)?(?:\s*:[^;{]*)?$")
ENUM_HEAD_RE = re.compile(r"\benum\s+(class|struct)\b")

# Only member names that are unique to std::atomic in practice; `clear`
# and `wait` exist on containers/condvars and would drown in noise.
ATOMIC_OP_RE = re.compile(
    r"[.\->]\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|"
    r"test_and_set)\s*\(")
ATOMIC_DECL_RE = re.compile(r"\bstd::atomic(?:_flag)?\s*<[^;=]*?>\s+([A-Za-z_]\w*)"
                            r"|\bstd::atomic_flag\s+([A-Za-z_]\w*)")

RESULT_FN_DECL_RE = re.compile(
    r"\bResult<.+?>\s+(?:\*\s*)?(?:[A-Za-z_]\w*(?:<[^<>]*>)?::)*"
    r"([A-Za-z_]\w*)\s*\(")
# A declaration of the same name with a NON-Result return type makes the
# name ambiguous for a token-level lint (e.g. EdgeLearner::LearnNewClasses
# returns TrainReport while SessionManager::LearnNewClasses returns
# Result<TrainReport>); ambiguous names are excluded rather than guessed.
ANY_FN_DECL_RE = re.compile(
    r"\b([A-Za-z_][\w:]*(?:<[^<>]*>)?[&*]?)\s+"
    r"(?:[A-Za-z_]\w*(?:<[^<>]*>)?::)*([A-Za-z_]\w*)\s*\(")
NOT_A_RETURN_TYPE = {
    "return", "co_return", "co_yield", "co_await", "new", "delete", "throw",
    "else", "case", "goto", "using", "typedef", "sizeof", "if", "while",
    "for", "switch", "do", "not", "and", "or", "const", "constexpr",
    "static", "inline", "virtual", "explicit", "friend", "template",
}
BARE_CALL_RE = re.compile(
    r"^\s*(?:[A-Za-z_]\w*(?:<[^<>]*>)?\s*(?:::|\.|->)\s*)*([A-Za-z_]\w*)\s*\(")
STMT_KEYWORD_RE = re.compile(
    r"^\s*(?:return|co_return|co_await|co_yield|if|else|while|for|do|switch|"
    r"case|goto|new|delete|throw|sizeof|static_assert|using|typedef)\b")

# PILOTE_FAILPOINT(...) expands to a Status; a bare statement silently
# swallows the injected fault and defeats the whole chaos suite. The name
# argument is a string literal, which stripping reduces to empty quotes.
BARE_FAILPOINT_RE = re.compile(r'^\s*PILOTE_FAILPOINT\s*\(\s*(?:"")?\s*\)\s*;')


def stripped_lines_of(path):
    """The file's lines with comments and string/char literals removed, plus
    the raw lines (for `// unguarded:` marker detection, which lives in
    comments on purpose)."""
    with open(path, encoding="utf-8") as f:
        raw = f.read().splitlines()
    state = {"in_block_comment": False}
    stripped = []
    for line in raw:
        s, state = strip_comments_and_strings(line, state)
        # Preprocessor directives never contribute declarations and their
        # unterminated bodies (macro definitions) confuse the scanners.
        if s.lstrip().startswith("#") or s.rstrip().endswith("\\"):
            s = ""
        stripped.append(s)
    return stripped, raw


def check_raw_sync_types(root, rel_path, stripped, errors):
    if rel_path in RAW_SYNC_ALLOWLIST:
        return
    for lineno, line in enumerate(stripped, start=1):
        m = RAW_SYNC_RE.search(line)
        if m:
            errors.append(
                f"{rel_path}:{lineno}: raw std::{m.group(1)}; use the "
                "annotated Mutex/SharedMutex/CondVar/MutexLock wrappers from "
                "common/thread_annotations.h so Clang -Wthread-safety sees "
                "the capability")


def collect_classes(stripped):
    """Char-level scan producing, for each class/struct definition, its name
    and the member-declaration statements at class scope (function bodies and
    nested scopes are skipped). Each member is (first_line, last_line, text).
    """
    classes = []
    ctx = []          # open scopes: dicts with kind 'class'/'other'
    buf = []          # current statement text, accumulated across lines
    buf_line = None   # first line of the current statement
    pending = None    # (buf, buf_line) saved across a just-closed `}` so a
                      # brace-or-equals initialized member keeps its head
    for lineno, line in enumerate(stripped, start=1):
        for ch in line:
            if pending is not None and not ch.isspace():
                if ch in ";,":
                    buf, buf_line = pending  # `T m_{x};` — restore the head
                else:
                    buf, buf_line = [], None  # it was a function body
                pending = None
            if ch == "{":
                head = "".join(buf).strip()
                m = CLASS_HEAD_RE.search(head)
                if m and not ENUM_HEAD_RE.search(head):
                    ctx.append({"kind": "class", "name": m.group(2),
                                "members": []})
                else:
                    ctx.append({"kind": "other", "saved": buf,
                                "saved_line": buf_line})
                buf, buf_line = [], None
            elif ch == "}":
                top = ctx.pop() if ctx else None
                if top and top["kind"] == "class":
                    classes.append(top)
                    pending = None
                    buf, buf_line = [], None
                elif top:
                    pending = (top["saved"], top["saved_line"])
            elif ch == ";":
                if ctx and ctx[-1]["kind"] == "class":
                    text = "".join(buf).strip()
                    text = re.sub(
                        r"^(?:(?:public|private|protected)\s*:\s*)+", "",
                        text).strip()
                    if text:
                        ctx[-1]["members"].append(
                            (buf_line or lineno, lineno, text))
                buf, buf_line = [], None
            else:
                if buf or not ch.isspace():
                    buf.append(ch)
                    if buf_line is None:
                        buf_line = lineno
        if buf:
            buf.append(" ")
    return classes


def statement_has_unguarded_marker(raw, first_line, last_line):
    """True if any source line of the statement, or a comment-only line
    immediately above it, carries `// unguarded: <reason>`."""
    for ln in range(first_line, min(last_line, len(raw)) + 1):
        if UNGUARDED_MARKER_RE.search(raw[ln - 1]):
            return True
    ln = first_line - 1
    while ln >= 1 and raw[ln - 1].strip().startswith("//"):
        if UNGUARDED_MARKER_RE.search(raw[ln - 1]):
            return True
        ln -= 1
    return False


def check_guarded_members(root, rel_path, stripped, raw, errors):
    if rel_path in RAW_SYNC_ALLOWLIST:
        return
    for cls in collect_classes(stripped):
        owns_lock = any(LOCK_MEMBER_RE.search(text)
                        for _, _, text in cls["members"])
        if not owns_lock:
            continue
        for first, last, text in cls["members"]:
            if MEMBER_SKIP_RE.match(text):
                continue
            if GUARD_ANNOTATION_RE.search(text):
                continue
            if LOCK_TYPE_RE.search(text):
                continue
            if SELF_SYNC_MEMBER_RE.search(text):
                continue
            if CONST_MEMBER_RE.match(text):
                continue
            if PTR_CONST_MEMBER_RE.search(text):
                continue
            if "(" in text:   # method / ctor declaration, not a data member
                continue
            if "=" not in text and "{" not in text and " " not in text:
                continue      # stray token, not a declaration
            if statement_has_unguarded_marker(raw, first, last):
                continue
            name_m = re.search(
                r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:=[^=].*|\{.*\})?$",
                text)
            name = name_m.group(1) if name_m else text
            errors.append(
                f"{rel_path}:{first}: member '{name}' of lock-owning "
                f"{cls['name']} has no PILOTE_GUARDED_BY; annotate it, make "
                "it const/std::atomic, or mark it `// unguarded: <reason>`")


def find_matching_paren(text, open_pos):
    """Index of the `)` matching text[open_pos] == `(`, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def check_atomic_memory_order(root, rel_path, stripped, errors):
    text = "\n".join(stripped)
    line_of = []
    ln = 1
    for ch in text:
        line_of.append(ln)
        if ch == "\n":
            ln += 1
    # Names declared std::atomic in this file, for the operator check below.
    atomic_names = set()
    for m in ATOMIC_DECL_RE.finditer(text):
        atomic_names.add(m.group(1) or m.group(2))
    for m in ATOMIC_OP_RE.finditer(text):
        open_pos = text.index("(", m.end(1))
        close_pos = find_matching_paren(text, open_pos)
        if close_pos == -1:
            continue
        if "memory_order" in text[open_pos:close_pos]:
            continue
        lineno = line_of[m.start(1)]
        errors.append(
            f"{rel_path}:{lineno}: atomic {m.group(1)}() without an explicit "
            "std::memory_order; state the ordering (memory_order_relaxed for "
            "independent counters) so it is a reviewed decision, not an "
            "accidental seq_cst")
    # `++x` / `x += d` / `x = v` on atomics are implicit seq_cst operations.
    for name in atomic_names:
        for m in re.finditer(
                r"(?:\+\+|--)\s*" + re.escape(name) + r"\b|"
                r"\b" + re.escape(name) +
                r"\s*(?:\+\+|--|[+\-|&^]=|=(?![=]))", text):
            span = text[m.start():m.end()]
            if "=" in span and "std::atomic" in stripped[line_of[m.start()] - 1]:
                continue  # the declaration's initializer
            lineno = line_of[m.start()]
            errors.append(
                f"{rel_path}:{lineno}: operator on std::atomic '{name}' is "
                "an implicit seq_cst op; use load/store/fetch_* with an "
                "explicit std::memory_order")


def collect_result_function_names(root, files):
    names = set()
    non_result = set()
    for rel_path in files:
        stripped, _ = stripped_lines_of(os.path.join(root, rel_path))
        for line in stripped:
            for m in RESULT_FN_DECL_RE.finditer(line):
                names.add(m.group(1))
            for m in ANY_FN_DECL_RE.finditer(line):
                ret = m.group(1)
                if ret.startswith("Result<") or ret.endswith("Result") \
                        or ret in NOT_A_RETURN_TYPE:
                    continue
                non_result.add(m.group(2))
    names.discard("operator")
    return names - non_result


def check_discarded_results(root, rel_path, stripped, result_fns, errors):
    if not result_fns:
        return
    text = "\n".join(stripped)
    offset = 0
    offsets = []
    for line in stripped:
        offsets.append(offset)
        offset += len(line) + 1
    prev_sig = ""  # last non-empty stripped line seen before the current one
    for idx, line in enumerate(stripped):
        here = line.strip()
        if not here:
            continue
        m = BARE_CALL_RE.match(line)
        starts_statement = prev_sig == "" or prev_sig[-1] in ";{}:)"
        prev_sig = here
        if not m or not starts_statement:
            continue
        if m.group(1) not in result_fns or STMT_KEYWORD_RE.match(line):
            continue
        open_pos = text.index("(", offsets[idx] + m.end(1))
        close_pos = find_matching_paren(text, open_pos)
        if close_pos == -1:
            continue
        rest = text[close_pos + 1:close_pos + 64].lstrip()
        if not rest.startswith(";"):
            continue  # chained (.ok(), ->value()), assigned, or an operand
        errors.append(
            f"{rel_path}:{idx + 1}: result of Result-returning "
            f"'{m.group(1)}(...)' is discarded; check .ok() / use "
            "PILOTE_ASSIGN_OR_RETURN, or cast through a named status if the "
            "failure is truly ignorable")


def check_discarded_failpoints(root, rel_path, stripped, errors):
    for idx, line in enumerate(stripped):
        if BARE_FAILPOINT_RE.match(line):
            errors.append(
                f"{rel_path}:{idx + 1}: the Status of PILOTE_FAILPOINT(...) "
                "is discarded, so the injected fault would be swallowed; "
                "wrap it in PILOTE_RETURN_IF_ERROR or handle the Status")


# ---------------------------------------------------------------------------
# Hot-path analyzer stage
# ---------------------------------------------------------------------------

HOT_PATH_MARKER = "PILOTE_HOT_PATH"
HOTPATH_OK_RE = re.compile(r"//\s*hotpath-ok\s*:")

# Heads starting with these never open a function body.
NON_FUNCTION_HEAD_RE = re.compile(
    r"^\s*(?:class|struct|union|enum|namespace|extern)\b")
CONTROL_KEYWORDS = {
    "if", "else", "for", "while", "switch", "catch", "do", "return",
    "sizeof", "alignof", "decltype", "static_assert", "new", "delete",
    "throw", "co_await", "co_return", "co_yield",
}
# Call-site names that never propagate the closure: by repo convention
# these are trivial inline accessors (Tensor::rows, BoundedQueue::size,
# ...), and resolving them by bare name would pull in the entire repo.
ACCESSOR_NAMES = {
    "size", "empty", "data", "begin", "end", "front", "back", "rows",
    "cols", "dim", "rank", "numel", "shape", "vec", "row", "get", "at",
    "ok", "value", "status", "code", "count", "bytes", "name", "id",
    "learner", "options", "capacity", "pending", "window_length", "dims",
    "distance", "label",
}

HOTPATH_CHECKS = [
    ("heap-new", re.compile(r"(?<![\w.])new\b"),
     "operator new"),
    ("heap-new", re.compile(r"\bstd::make_(?:unique|shared)\b"),
     "std::make_unique/make_shared"),
    ("container-growth",
     re.compile(r"(?:\.|->)\s*(?:push_back|emplace_back|emplace|insert|"
                r"resize|reserve|assign|append)\s*\("),
     "growing container call"),
    ("local-alloc",
     re.compile(r"^\s*(?:const\s+)?(?:pilote::)?(?:Tensor|std::vector|"
                r"std::string|std::deque|std::map|std::unordered_map|"
                r"std::set|std::unordered_set|std::function|std::list)"
                r"\s*(?:<[^;=()]*>)?\s+[A-Za-z_]\w*\s*[({=;]"),
     "allocating local object"),
    ("local-alloc", re.compile(r"(?<![\w:])(?:pilote::)?Tensor\s*\("),
     "Tensor construction"),
    ("string-build",
     re.compile(r"\bstd::to_string\s*\(|\bstd::o?i?stringstream\b"),
     "string building"),
    ("writer-lock",
     re.compile(r"\b(?:MutexLock|WriterLock)\s+[A-Za-z_]\w*\s*[({]"),
     "exclusive lock acquisition"),
    ("throw", re.compile(r"(?<![\w.])throw\b"),
     "exception throw"),
    ("blocking-io",
     re.compile(r"\bstd::o?i?fstream\b|\bPILOTE_LOG\s*\(|\bstd::cout\b|"
                r"\bstd::cerr\b|(?<![\w.])f?printf\s*\(|"
                r"\bstd::this_thread::sleep_(?:for|until)\b"),
     "blocking I/O"),
]

CHECK_STMT_RE = re.compile(r"^\s*PILOTE_D?CHECK")
CALL_SITE_RE = re.compile(r"(?:^|[^\w.>:])([A-Za-z_]\w*)\s*\(")
METHOD_CALL_RE = re.compile(r"(?:\.|->|::)\s*([A-Za-z_]\w*)\s*\(")


def parse_function_head(head):
    """(bare_name, display_name) when `head{` opens a function body, else
    None. `head` is the accumulated statement text before the brace."""
    head = head.strip()
    if not head or "(" not in head or NON_FUNCTION_HEAD_RE.match(head):
        return None
    head = re.sub(r"^template\s*<[^>]*>\s*", "", head)
    p = head.find("(")
    if "=" in head[:p]:
        return None  # lambda assignment or initializer
    m = re.search(r"([A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)*)\s*$", head[:p])
    if not m:
        return None  # lambda or operator overload
    qual = m.group(1)
    bare = qual.rsplit("::", 1)[-1]
    if bare in CONTROL_KEYWORDS or bare == "operator":
        return None
    close = find_matching_paren(head, p)
    if close == -1:
        return None
    tail = head[close + 1:]
    if ";" in tail or "=" in tail:
        return None  # member with brace-init, `= default`, ...
    return bare, qual


def collect_functions(stripped):
    """Brace-tracking scan yielding every function definition: bare name,
    qualified display name, head/open/close line numbers."""
    functions = []
    buf, buf_line = [], None
    depth = 0
    current = None
    for lineno, line in enumerate(stripped, start=1):
        for ch in line:
            if ch == "{":
                if current is None:
                    head_text = "".join(buf)
                    parsed = parse_function_head(head_text)
                    if parsed:
                        current = {
                            "name": parsed[0], "qual": parsed[1],
                            "head": head_text.strip(),
                            "head_line": buf_line or lineno,
                            "open_line": lineno, "close_line": None,
                            "fn_depth": depth,
                        }
                buf, buf_line = [], None
                depth += 1
            elif ch == "}":
                depth -= 1
                if current is not None and depth == current["fn_depth"]:
                    current["close_line"] = lineno
                    functions.append(current)
                    current = None
                buf, buf_line = [], None
            elif ch == ";":
                buf, buf_line = [], None
            else:
                if buf or not ch.isspace():
                    buf.append(ch)
                    if buf_line is None:
                        buf_line = lineno
        if buf:
            buf.append(" ")
    return functions


def body_lines(fn, stripped):
    """(lineno, text) for the function's body, with the head fragment on
    the opening line and the trailing fragment on the closing line cut so
    signatures are not mistaken for local declarations."""
    out = []
    for ln in range(fn["open_line"], (fn["close_line"] or 0) + 1):
        text = stripped[ln - 1]
        if ln == fn["open_line"]:
            brace = text.find("{")
            if brace != -1:
                text = text[brace + 1:]
        if ln == fn["close_line"]:
            brace = text.rfind("}")
            if brace != -1:
                text = text[:brace]
        out.append((ln, text))
    return out


def non_check_body_lines(fn, stripped):
    """body_lines() minus PILOTE_CHECK/PILOTE_DCHECK statements (including
    their continuation lines). The fatal-check path may format messages and
    allocate; it fires at most once per process, so neither its calls nor
    its allocations count against the hot path."""
    in_check = False
    for lineno, text in body_lines(fn, stripped):
        if in_check:
            if text.rstrip().endswith(";"):
                in_check = False
            continue
        if CHECK_STMT_RE.match(text):
            if not text.rstrip().endswith(";"):
                in_check = True
            continue
        yield lineno, text


def call_sites(fn, stripped):
    names = set()
    for _, text in non_check_body_lines(fn, stripped):
        for m in CALL_SITE_RE.finditer(text):
            names.add(m.group(1))
        for m in METHOD_CALL_RE.finditer(text):
            names.add(m.group(1))
    return {n for n in names
            if n not in CONTROL_KEYWORDS and n not in ACCESSOR_NAMES}


def statement_has_hotpath_ok(raw, first_line, last_line=None):
    """True if the raw line range, or a comment-only line immediately above
    it, carries `// hotpath-ok: <reason>`."""
    last_line = last_line or first_line
    for ln in range(first_line, min(last_line, len(raw)) + 1):
        if HOTPATH_OK_RE.search(raw[ln - 1]):
            return True
    ln = first_line - 1
    while ln >= 1 and raw[ln - 1].strip().startswith("//"):
        if HOTPATH_OK_RE.search(raw[ln - 1]):
            return True
        ln -= 1
    return False


def find_hot_path_roots(stripped):
    """Bare names of functions declared or defined with PILOTE_HOT_PATH.
    The marker and the declarator may be split across lines, so a few
    following lines are joined before parsing."""
    roots = set()
    for idx, line in enumerate(stripped):
        if HOT_PATH_MARKER not in line:
            continue
        joined = " ".join(stripped[idx:idx + 4])
        joined = joined.split(HOT_PATH_MARKER, 1)[1]
        p = joined.find("(")
        if p == -1:
            continue
        m = re.search(r"([A-Za-z_]\w*)\s*$", joined[:p].strip())
        if m:
            roots.add(m.group(1))
    return roots


def run_hotpath_stage(root, errors):
    src_files = find_files(root, ("src",), SOURCE_EXTENSIONS)
    files = {}
    index = {}   # bare name -> [(rel_path, fn)]
    roots = set()
    for rel_path in src_files:
        stripped, raw = stripped_lines_of(os.path.join(root, rel_path))
        files[rel_path] = (stripped, raw)
        for fn in collect_functions(stripped):
            index.setdefault(fn["name"], []).append((rel_path, fn))
        roots |= find_hot_path_roots(stripped)

    if not roots:
        return

    def head_exempt(rel_path, fn):
        _, raw = files[rel_path]
        return statement_has_hotpath_ok(raw, fn["head_line"],
                                        fn["open_line"])

    # BFS over bare names from the marked roots; a head-level hotpath-ok
    # prunes that definition (its body is neither checked nor traversed).
    via = {name: None for name in roots if name in index}
    queue = sorted(via)
    while queue:
        name = queue.pop(0)
        for rel_path, fn in index.get(name, ()):
            if head_exempt(rel_path, fn):
                continue
            stripped, _ = files[rel_path]
            for callee in sorted(call_sites(fn, stripped)):
                if callee in index and callee not in via:
                    via[callee] = name
                    queue.append(callee)

    def chain(name):
        parts = [name]
        while via.get(parts[-1]):
            parts.append(via[parts[-1]])
        return " <- ".join(parts)

    for name in sorted(via):
        for rel_path, fn in index.get(name, ()):
            if head_exempt(rel_path, fn):
                continue
            stripped, raw = files[rel_path]
            for lineno, text in non_check_body_lines(fn, stripped):
                if not text.strip():
                    continue
                for check_id, pattern, what in HOTPATH_CHECKS:
                    if not pattern.search(text):
                        continue
                    if statement_has_hotpath_ok(raw, lineno):
                        continue
                    errors.append(
                        f"{rel_path}:{lineno}: [hotpath:{check_id}] {what} "
                        f"in '{fn['qual']}' (hot via {chain(name)}); fix it "
                        "or mark the line `// hotpath-ok: <reason>`")
                    break


# ---------------------------------------------------------------------------
# Lifetime stage (--stage lifetime)
# ---------------------------------------------------------------------------

LIFETIME_OK_RE = re.compile(r"//\s*lifetime-ok\s*:")

# Call names whose argument lambdas execute after the calling frame may
# have returned: thread entry points, pool/queue submission, callback and
# failpoint registration. Name-based, like the hotpath call graph.
DEFERRED_SINK_RE = re.compile(
    r"(?<!\w)(thread|jthread|async|Submit|Push|TryPush|emplace_back|"
    r"push_back|SetCallback|RegisterCallback|RegisterFailpoint|Defer)\s*\(")
# `std::thread worker(...)` declaration form: the argument paren follows
# the variable name, not the type.
THREAD_DECL_SINK_RE = re.compile(
    r"(?<!\w)(thread|jthread)\s+[A-Za-z_]\w*\s*\(")
# Sinks where a bare `this` argument is itself a deferred escape (the
# `std::thread(&Class::Loop, this)` member-entry-point form).
THREAD_CTOR_SINKS = {"thread", "jthread", "async"}

# Owner types whose storage dies with the enclosing scope (for
# return-local) or reallocates on growth (for stored-view; the growable
# subset below).
OWNER_TYPE_PATTERN = (
    r"(?:std::(?:string|basic_string|vector|deque|list|map|unordered_map|"
    r"set|unordered_set|array|ostringstream|istringstream|stringstream)|"
    r"(?:pilote::)?Tensor)")
LOCAL_OWNER_RE = re.compile(
    r"^\s*(?:const\s+)?" + OWNER_TYPE_PATTERN +
    r"\s*(?:<[^;=()]*>)?\s+([A-Za-z_]\w*)\s*[({=;\[]")
# Contiguous-storage types that invalidate raw pointers/iterators on
# growth. (Node-based maps/sets keep element addresses stable, so they
# are owners above but not growables here.)
GROWABLE_TYPE_PATTERN = (
    r"(?:std::(?:string|basic_string|vector|deque)|(?:pilote::)?Tensor)")
GROWABLE_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?" + GROWABLE_TYPE_PATTERN +
    r"\s*(?:<[^;=()]*>)?\s+([A-Za-z_]\w*)\s*[({=;\[]?")

CONTAINER_MUTATORS = (
    r"(?:push_back|emplace_back|emplace|push_front|pop_front|pop_back|"
    r"insert|erase|resize|reserve|clear|assign|ResizeRows|shrink_to_fit)")


def statement_has_lifetime_ok(raw, first_line, last_line=None):
    """True if the raw line range, or a comment-only line immediately above
    it, carries `// lifetime-ok: <reason>`."""
    last_line = last_line or first_line
    for ln in range(first_line, min(last_line, len(raw)) + 1):
        if LIFETIME_OK_RE.search(raw[ln - 1]):
            return True
    ln = first_line - 1
    while ln >= 1 and raw[ln - 1].strip().startswith("//"):
        if LIFETIME_OK_RE.search(raw[ln - 1]):
            return True
        ln -= 1
    return False


def joined_with_line_map(stripped):
    """Joins stripped lines into one text blob plus a char-index -> 1-based
    line number map, so regexes can cross statement line breaks."""
    text = "\n".join(stripped)
    line_of = []
    ln = 1
    for ch in text:
        line_of.append(ln)
        if ch == "\n":
            ln += 1
    return text, line_of


def split_top_level_args(args_text):
    parts, depth, buf = [], 0, []
    for ch in args_text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return [p.strip() for p in parts]


def lambda_capture_lists(args_text):
    """Yields (offset, capture_list_text) for every lambda introducer in the
    argument text. A `[` is a lambda introducer (not a subscript or array
    bound) when the previous non-space char is not an identifier char,
    `]`, or `)`."""
    for m in re.finditer(r"\[", args_text):
        i = m.start()
        j = i - 1
        while j >= 0 and args_text[j].isspace():
            j -= 1
        if j >= 0 and (args_text[j].isalnum() or args_text[j] in "_])"):
            continue
        close = args_text.find("]", i)
        if close == -1:
            continue
        yield i, args_text[i + 1:close]


def risky_captures(capture_list):
    """Capture tokens that bind by reference: `&`, `&name`, `&name = expr`,
    `this`. `=`, by-value names, init-captures, and `*this` are safe."""
    risky = []
    for tok in split_top_level_args(capture_list):
        if not tok:
            continue
        if tok == "this" or tok.startswith("&"):
            risky.append(tok)
    return risky


def check_deferred_ref_captures(root, rel_path, stripped, raw, errors):
    text, line_of = joined_with_line_map(stripped)
    sites = [(m.start(), m.end() - 1, m.group(1))
             for m in DEFERRED_SINK_RE.finditer(text)]
    sites += [(m.start(), m.end() - 1, m.group(1))
              for m in THREAD_DECL_SINK_RE.finditer(text)]
    for start, open_pos, sink in sorted(sites):
        close_pos = find_matching_paren(text, open_pos)
        if close_pos == -1:
            continue
        args_text = text[open_pos + 1:close_pos]
        sink_line = line_of[start]
        findings = []
        for off, caps in lambda_capture_lists(args_text):
            for tok in risky_captures(caps):
                findings.append((
                    line_of[open_pos + 1 + off],
                    f"lambda captures `{tok}` by reference and is passed to "
                    f"deferred sink '{sink}'"))
        if sink in THREAD_CTOR_SINKS:
            for arg in split_top_level_args(args_text):
                if arg == "this":
                    findings.append((
                        sink_line,
                        f"`this` passed to '{sink}' outlives the "
                        "constructing frame"))
        for lineno, what in findings:
            if statement_has_lifetime_ok(raw, sink_line, lineno):
                continue
            errors.append(
                f"{rel_path}:{sink_line}: [lifetime:ref-capture] {what}; "
                "the callee runs after this frame may be gone -- capture by "
                "value or annotate `// lifetime-ok: <reason>`")


def return_kind(head):
    """Classifies a function head's return type: 'ref', 'ptr', 'view'
    (string_view/Span), or None for by-value / unparseable heads."""
    head = re.sub(r"^\s*template\s*<[^>]*>\s*", "", head.strip())
    p = head.find("(")
    if p == -1:
        return None
    decl = head[:p]
    m = re.search(r"((?:~\s*)?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*$",
                  decl)
    if not m:
        return None
    ret = decl[:m.start()].strip()
    if not ret:
        return None
    if "string_view" in ret or re.search(r"\b(?:Basic)?(?:Const)?Span\s*<",
                                         ret):
        return "view"
    if ret.endswith("&"):
        return "ref"
    if ret.endswith("*"):
        return "ptr"
    return None


def param_owner_names(head):
    """Names of by-value owner-typed parameters (their storage dies with
    the frame just like a local)."""
    p = head.find("(")
    if p == -1:
        return set()
    close = find_matching_paren(head, p)
    if close == -1:
        return set()
    names = set()
    for prm in split_top_level_args(head[p + 1:close]):
        if not prm or "&" in prm or "*" in prm:
            continue
        m = re.match(r"(?:const\s+)?" + OWNER_TYPE_PATTERN +
                     r"\s*(?:<[^;=]*>)?\s+([A-Za-z_]\w*)\s*$", prm)
        if m:
            names.add(m.group(1))
    return names


def return_statements(fn, stripped):
    """Yields (first_line, last_line, joined_statement) for every `return`
    statement in the function body."""
    acc = None
    first = None
    for ln, line_text in body_lines(fn, stripped):
        if acc is None:
            if not re.match(r"\s*return\b", line_text):
                continue
            acc, first = line_text.strip(), ln
        else:
            acc += " " + line_text.strip()
        if acc.rstrip().endswith(";"):
            yield first, ln, acc
            acc = None


TEMP_BUFFER_RETURN_RE = re.compile(r"[)}]\s*\.\s*(?:c_str|data)\s*\(")
VIEW_TEMP_STRING_RE = re.compile(r"^std::(?:string|to_string)\s*[({]")


def check_dangling_returns(root, rel_path, stripped, raw, errors):
    for fn in collect_functions(stripped):
        kind = return_kind(fn.get("head", ""))
        if kind is None:
            continue
        locals_set = param_owner_names(fn.get("head", ""))
        for _, line_text in body_lines(fn, stripped):
            if re.search(r"\bstatic\b", line_text):
                continue  # function-local statics outlive the frame
            dm = LOCAL_OWNER_RE.match(line_text)
            if dm:
                locals_set.add(dm.group(1))
        for first, last, stmt in return_statements(fn, stripped):
            expr = re.sub(r"^\s*return\b", "", stmt).strip()
            expr = expr.rstrip(";").strip()
            if not expr:
                continue
            if statement_has_lifetime_ok(raw, first, last):
                continue

            def fire(what):
                errors.append(
                    f"{rel_path}:{first}: [lifetime:return-local] "
                    f"'{fn['qual']}' returns a {kind} {what}; the storage "
                    "dies when this frame returns -- return by value or "
                    "annotate `// lifetime-ok: <reason>`")

            if kind in ("ptr", "view") and TEMP_BUFFER_RETURN_RE.search(expr):
                fire("into the internal buffer of a temporary")
                continue
            if kind == "view" and VIEW_TEMP_STRING_RE.match(expr):
                fire("over a temporary std::string")
                continue
            mb = re.match(r"(&)?\s*([A-Za-z_]\w*)", expr)
            if not mb:
                continue
            addr_of, name = mb.group(1), mb.group(2)
            if name not in locals_set:
                continue
            rest = expr[mb.end():].lstrip()
            if kind == "ref":
                fire(f"tied to local '{name}'")
            elif kind == "ptr" and (
                    addr_of or
                    re.match(r"\.\s*(?:data|c_str)\s*\(", rest)):
                fire(f"into local '{name}'")
            elif kind == "view" and not addr_of:
                fire(f"viewing local '{name}'")


STORE_STMT_RE = re.compile(
    r"^\s*((?:this\s*->\s*)?[A-Za-z_]\w*"
    r"(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*=(?![=])\s*(.+)$")


def member_growable_names(stripped):
    names = set()
    for cls in collect_classes(stripped):
        for _, _, member_text in cls["members"]:
            m = GROWABLE_DECL_RE.match(member_text)
            if m:
                names.add(m.group(1))
    return names


def check_stored_container_views(root, rel_path, stripped, raw, errors):
    growables = member_growable_names(stripped)
    for fn in collect_functions(stripped):
        for _, line_text in body_lines(fn, stripped):
            dm = GROWABLE_DECL_RE.match(line_text)
            if dm and not re.search(r"\bstatic\b", line_text):
                growables.add(dm.group(1))
    if not growables:
        return
    names_alt = "|".join(sorted(re.escape(n) for n in growables))
    view_of_growable_re = re.compile(
        r"(?:&\s*(?:" + names_alt + r")\s*(?:\[|\.\s*(?:front|back)\s*\())|"
        r"(?:(?<![\w.])(?:" + names_alt +
        r")\s*\.\s*(?:data|c_str|begin|end|cbegin|cend)\s*\(\s*\))")
    for lineno, line_text in enumerate(stripped, start=1):
        # Split into statement fragments so a store sharing its line with a
        # function head or another statement is still anchored at its start.
        for fragment in re.split(r"[;{}]", line_text):
            m = STORE_STMT_RE.match(fragment)
            if not m:
                continue
            report_stored_view(rel_path, raw, errors, lineno, m,
                               view_of_growable_re)


def report_stored_view(rel_path, raw, errors, lineno, m, view_of_growable_re):
    lhs, rhs = m.group(1), m.group(2)
    last = re.split(r"\.|->", lhs)[-1].strip()
    member_ish = (last.endswith("_") or "." in lhs or "->" in lhs)
    if not member_ish:
        return
    vm = view_of_growable_re.search(rhs)
    if not vm:
        return
    if statement_has_lifetime_ok(raw, lineno):
        return
    errors.append(
        f"{rel_path}:{lineno}: [lifetime:stored-view] `{lhs.strip()}` "
        f"stores a pointer/iterator into growable container storage "
        f"(`{vm.group(0).strip()}`); the next growth reallocates and "
        "leaves it dangling -- store an index/Span re-derived per use "
        "or annotate `// lifetime-ok: <reason>`")


def find_matching_brace(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


RANGE_FOR_CONTAINER_RE = re.compile(
    r"^[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*$")


def check_range_for_mutation(root, rel_path, stripped, raw, errors):
    text, line_of = joined_with_line_map(stripped)
    for m in re.finditer(r"\bfor\s*\(", text):
        open_pos = m.end() - 1
        close_pos = find_matching_paren(text, open_pos)
        if close_pos == -1:
            continue
        head = text[open_pos + 1:close_pos]
        # Find the range-for ':' at top nesting level (not '::').
        colon = -1
        depth = 0
        for i, ch in enumerate(head):
            if ch in "([{<":
                depth += 1
            elif ch in ")]}>":
                depth -= 1
            elif (ch == ":" and depth == 0 and
                  head[i - 1:i] != ":" and head[i + 1:i + 2] != ":"):
                colon = i
                break
        if colon == -1:
            continue
        container = head[colon + 1:].strip()
        if not RANGE_FOR_CONTAINER_RE.match(container):
            continue
        # Loop body: braced block or single statement.
        i = close_pos + 1
        while i < len(text) and text[i].isspace():
            i += 1
        if i < len(text) and text[i] == "{":
            body_end = find_matching_brace(text, i)
        else:
            body_end = text.find(";", i)
        if body_end == -1:
            continue
        body = text[i:body_end + 1]
        mut_re = re.compile(
            r"(?<![\w.>])" + re.escape(container) + r"\s*(?:\.|->)\s*" +
            CONTAINER_MUTATORS + r"\s*\(")
        for mm in mut_re.finditer(body):
            mut_line = line_of[i + mm.start()]
            if statement_has_lifetime_ok(raw, mut_line):
                continue
            errors.append(
                f"{rel_path}:{mut_line}: [lifetime:iter-invalidation] "
                f"`{container}` is mutated inside a range-for over itself "
                f"(loop at line {line_of[m.start()]}); the loop's hidden "
                "iterators are invalidated -- collect changes and apply "
                "after the loop, or annotate `// lifetime-ok: <reason>`")


def run_lifetime_stage(root, errors):
    src_files = find_files(root, ("src",), SOURCE_EXTENSIONS)
    for rel_path in src_files:
        stripped, raw = stripped_lines_of(os.path.join(root, rel_path))
        check_deferred_ref_captures(root, rel_path, stripped, raw, errors)
        check_dangling_returns(root, rel_path, stripped, raw, errors)
        check_stored_container_views(root, rel_path, stripped, raw, errors)
        check_range_for_mutation(root, rel_path, stripped, raw, errors)


def run_style_stage(root, args, headers, sources, errors):
    for h in headers:
        check_header_guard(root, h, errors)
    for f in sources:
        check_file_contents(root, f, errors)
        if f.endswith((".h", ".hpp", ".cc", ".cpp")) and \
                f.split(os.sep)[0] in HEADER_DIRS:
            check_metric_names(root, f, errors)
    if not args.no_self_contained:
        check_self_contained(root, headers, args.compiler, errors)


def run_concurrency_stage(root, errors):
    src_files = find_files(root, ("src",), SOURCE_EXTENSIONS)
    all_files = find_files(root, HEADER_DIRS, SOURCE_EXTENSIONS)
    result_fns = collect_result_function_names(root, all_files)
    for rel_path in src_files:
        stripped, raw = stripped_lines_of(os.path.join(root, rel_path))
        check_raw_sync_types(root, rel_path, stripped, errors)
        check_guarded_members(root, rel_path, stripped, raw, errors)
        check_atomic_memory_order(root, rel_path, stripped, errors)
    for rel_path in all_files:
        stripped, _ = stripped_lines_of(os.path.join(root, rel_path))
        check_discarded_results(root, rel_path, stripped, result_fns, errors)
        check_discarded_failpoints(root, rel_path, stripped, errors)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--stage",
                        choices=("style", "concurrency", "hotpath",
                                 "lifetime", "all"),
                        default="all", help="which invariant stage to run")
    parser.add_argument("--compiler", default="c++",
                        help="compiler used for the self-containedness check")
    parser.add_argument("--no-self-contained", action="store_true",
                        help="skip the (slower) header self-containedness check")
    parser.add_argument("--json-out", default=None, metavar="PATH",
                        help="also write findings as a JSON artifact")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    headers = find_files(root, HEADER_DIRS, HEADER_EXTENSIONS)
    sources = find_files(root, SOURCE_DIRS, SOURCE_EXTENSIONS)

    errors = []
    if args.stage in ("style", "all"):
        run_style_stage(root, args, headers, sources, errors)
    if args.stage in ("concurrency", "all"):
        run_concurrency_stage(root, errors)
    if args.stage in ("hotpath", "all"):
        run_hotpath_stage(root, errors)
    if args.stage in ("lifetime", "all"):
        run_lifetime_stage(root, errors)

    if args.json_out:
        findings = []
        for e in errors:
            m = re.match(r"(.*?):(\d+): (.*)", e)
            if m:
                findings.append({"file": m.group(1),
                                 "line": int(m.group(2)),
                                 "message": m.group(3)})
            else:
                findings.append({"file": None, "line": None, "message": e})
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump({"stage": args.stage,
                       "violations": len(errors),
                       "findings": findings}, f, indent=2)
            f.write("\n")

    if errors:
        for e in errors:
            print(e)
        print(f"pilote_lint[{args.stage}]: {len(errors)} violation(s)")
        return 1
    print(f"pilote_lint[{args.stage}]: OK "
          f"({len(headers)} headers, {len(sources)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
