#!/usr/bin/env python3
"""Repo invariant linter — the rules that neither the compiler nor ctest
enforce on their own. Run from anywhere:

  tools/fvl_lint.py [--root REPO] [--self-test]

Rules:
  nodiscard     Every Status/Result<T>-returning function declared in a
                src/fvl header carries [[nodiscard]] (and the class-level
                [[nodiscard]] on Status/Result themselves stays put). A
                dropped error is a silently-swallowed failure.
  parse-abort   Blob/wire parsing functions (Parse*/Decode*/Read*/
                TryExtractFrame/Deserialize taking a string_view) in the
                untrusted-input files must not contain FVL_CHECK/FVL_DCHECK/
                abort(): malformed bytes from a peer must come back as a
                Status, never take the process down. Invariant checks on
                already-validated data (accessors) are exempt by signature.
  naked-mutex   No std::mutex / std::condition_variable members inside
                src/fvl outside util/thread_annotations.h — library code
                uses the annotated fvl::Mutex/fvl::CondVar wrappers so the
                Clang thread-safety lane sees every lock.
  test-registry Every tests/*_test.cc is registered in FVL_TESTS in
                tests/CMakeLists.txt and vice versa: a test that never runs
                is worse than no test, it radiates false confidence.
  bench-keys    Every column a JSON-emitting bench declares is a decided
                column in tools/bench_trend.py: TRACKED, ID_COLUMNS, or
                KNOWN_UNTRACKED. New metrics must pick a gating status.
  tail-format   The serialized tail layout is a wire contract: a change to
                the bodies of LabelStore::AppendTail/ParseTail must bump
                LabelStore::kTailFormatVersion AND re-pin the golden-blob
                constant in tests/label_store_test.cc. The rule compares
                digests of those regions against tools/tail_format.lock;
                after a deliberate, reviewed change run
                `tools/fvl_lint.py --update-tail-lock` to refresh it. Every
                version also needs its migration note: docs/MIGRATION.md
                must have a heading naming "tail format vN" for the
                current kTailFormatVersion N.
  trend-zero    Behavioral probe of the perf gate itself: runs
                tools/bench_trend.py against seeded fixtures whose baseline
                metric is exactly 0 and demands that a large worsening still
                fails (absolute epsilon) and that a benign one is logged
                with a loud [ skipped ] marker — the gate must never
                silently ungate zero baselines.

Exit codes: 0 clean, 1 violations (printed one per line), 2 bad invocation.
--self-test seeds violations (at least one per rule) in temp trees and fails
loudly if any rule misses its seed — the linter lints itself.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

# --- rule: nodiscard --------------------------------------------------------

DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s+)?(?:static\s+|virtual\s+)?"
    r"(?:\[\[nodiscard\]\]\s+)?(Status|Result<.*>)\s+(\w+)\s*\(")


def check_nodiscard(root):
    violations = []
    status_h = os.path.join(root, "src/fvl/util/status.h")
    if os.path.exists(status_h):
        text = open(status_h).read()
        for cls in ("Status", "Result"):
            if not re.search(r"class\s+\[\[nodiscard\]\]\s+" + cls, text):
                violations.append(
                    f"{status_h}: class {cls} lost its class-level "
                    "[[nodiscard]]")
    for dirpath, _, files in os.walk(os.path.join(root, "src/fvl")):
        for name in sorted(files):
            if not name.endswith(".h"):
                continue
            path = os.path.join(dirpath, name)
            for lineno, line in enumerate(open(path), 1):
                stripped = line.lstrip()
                if stripped.startswith("//"):
                    continue
                match = DECL_RE.match(line)
                if match and "[[nodiscard]]" not in line:
                    violations.append(
                        f"{path}:{lineno}: {match.group(1)}-returning "
                        f"'{match.group(2)}' is missing [[nodiscard]]")
    return violations


# --- rule: parse-abort ------------------------------------------------------

PARSE_FILES = (
    "src/fvl/net/wire.cc",
    "src/fvl/core/label_store.cc",
    "src/fvl/core/index.cc",
)
PARSE_FN_RE = re.compile(
    r"^[\w:<>,\s&*]*?\b((?:\w+::)?(?:Parse|Decode|Read|TryExtract|"
    r"Deserial)\w*)\s*\(([^)]*(?:\n[^)]*)*?)\)\s*(?:const\s*)?{",
    re.MULTILINE)
BANNED_IN_PARSE = re.compile(r"\b(FVL_CHECK|FVL_DCHECK|abort)\s*\(")


def function_body(text, open_brace):
    """Returns text of the balanced {...} starting at open_brace."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace:i + 1]
    return text[open_brace:]


def check_parse_abort(root):
    violations = []
    for rel in PARSE_FILES:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            continue
        text = open(path).read()
        for match in PARSE_FN_RE.finditer(text):
            name, params = match.group(1), match.group(2)
            if "string_view" not in params:
                continue  # accessor over validated data, not a blob parser
            body = function_body(text, match.end() - 1)
            banned = BANNED_IN_PARSE.search(body)
            if banned:
                lineno = text[:match.start()].count("\n") + 1
                violations.append(
                    f"{path}:{lineno}: parse-path '{name}' contains "
                    f"{banned.group(1)} — malformed input must surface as a "
                    "Status, not abort the process")
    return violations


# --- rule: naked-mutex ------------------------------------------------------

NAKED_RE = re.compile(r"\bstd::(mutex|condition_variable(?:_any)?)\b")
NAKED_EXEMPT = ("src/fvl/util/thread_annotations.h",)


def check_naked_mutex(root):
    violations = []
    for dirpath, _, files in os.walk(os.path.join(root, "src/fvl")):
        for name in sorted(files):
            if not (name.endswith(".h") or name.endswith(".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if rel in NAKED_EXEMPT:
                continue
            for lineno, line in enumerate(open(path), 1):
                if line.lstrip().startswith("//"):
                    continue
                match = NAKED_RE.search(line.split("//")[0])
                if match:
                    violations.append(
                        f"{path}:{lineno}: naked std::{match.group(1)} — use "
                        "the annotated fvl::Mutex/fvl::CondVar wrappers "
                        "(fvl/util/thread_annotations.h)")
    return violations


# --- rule: raw-io -----------------------------------------------------------
#
# All POSIX file/mmap calls live in util/file.h + util/blob_source.{h,cc}
# (and socket calls in net/socket.cc): one place turns errno into Status,
# one place owns descriptors and mappings. A naked call elsewhere is a
# leak/abort waiting to happen and invisible to the error-taxonomy tests.
# C stdio streams (fopen/fprintf for text reports) are not covered — the
# rule is about the fd/mmap layer archive bytes travel through.

RAW_IO_RE = re.compile(
    r"(?:(?<![\w:.>])(?:::\s*)?(open|openat|mmap|munmap|madvise)\s*\()"
    r"|(?:::\s*(read|write|close|fstat|pread|pwrite)\s*\()")
RAW_IO_EXEMPT = (
    "src/fvl/util/file.h",
    "src/fvl/util/blob_source.h",
    "src/fvl/util/blob_source.cc",
    "src/fvl/net/socket.cc",  # the socket RAII wrapper, file.h's net twin
)
RAW_IO_DIRS = ("src/fvl", "bench", "examples", "tests")


def check_raw_io(root):
    violations = []
    for top in RAW_IO_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in sorted(files):
                if not (name.endswith(".h") or name.endswith(".cc")):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                if rel in RAW_IO_EXEMPT:
                    continue
                for lineno, line in enumerate(open(path), 1):
                    if line.lstrip().startswith("//"):
                        continue
                    match = RAW_IO_RE.search(line.split("//")[0])
                    if match:
                        call = match.group(1) or match.group(2)
                        violations.append(
                            f"{path}:{lineno}: naked {call}() — file I/O "
                            "goes through FileHandle/MmapRegion "
                            "(fvl/util/file.h) or BlobSource "
                            "(fvl/util/blob_source.h)")
    return violations


# --- rule: test-registry ----------------------------------------------------

def check_test_registry(root):
    violations = []
    cmake_path = os.path.join(root, "tests/CMakeLists.txt")
    tests_dir = os.path.join(root, "tests")
    if not os.path.exists(cmake_path):
        return [f"{cmake_path}: missing"]
    text = open(cmake_path).read()
    match = re.search(r"set\(FVL_TESTS\s*(.*?)\)", text, re.DOTALL)
    if not match:
        return [f"{cmake_path}: no set(FVL_TESTS ...) block"]
    registered = set(match.group(1).split())
    on_disk = {name[:-3] for name in os.listdir(tests_dir)
               if name.endswith("_test.cc")}
    for name in sorted(on_disk - registered):
        violations.append(
            f"{tests_dir}/{name}.cc exists but is not in FVL_TESTS — it "
            "never runs under ctest")
    for name in sorted(registered - on_disk):
        violations.append(
            f"tests/CMakeLists.txt registers '{name}' but tests/{name}.cc "
            "does not exist")
    return violations


# --- rule: bench-keys -------------------------------------------------------

BENCH_JSON_SOURCES = (
    "bench/bench_service_throughput.cc",
    "bench/bench_merge_query.cc",
    "bench/bench_mmap_serve.cc",
    "bench/ycsb_driver.cc",
    "bench/bench_fig17_label_length.cc",
    "bench/bench_fig21_multiview_space.cc",
)
TABLE_CTOR_RE = re.compile(r"TablePrinter\s+\w+\s*\(\s*\{(.*?)\}\s*\)",
                           re.DOTALL)
STRING_RE = re.compile(r'"([^"]+)"')


def bench_trend_columns(root):
    """TRACKED | ID_COLUMNS | KNOWN_UNTRACKED from tools/bench_trend.py."""
    namespace = {}
    path = os.path.join(root, "tools/bench_trend.py")
    source = open(path).read()
    # Execute only the constant definitions (everything before the first
    # def) so importing never runs main() or requires artifacts.
    exec(source.split("\ndef ", 1)[0], namespace)  # noqa: S102
    return (set(namespace["TRACKED"]) | set(namespace["ID_COLUMNS"])
            | set(namespace["KNOWN_UNTRACKED"]))


def check_bench_keys(root):
    violations = []
    known = bench_trend_columns(root)
    for rel in BENCH_JSON_SOURCES:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            continue
        text = open(path).read()
        for ctor in TABLE_CTOR_RE.finditer(text):
            for column in STRING_RE.findall(ctor.group(1)):
                if column not in known:
                    lineno = text[:ctor.start()].count("\n") + 1
                    violations.append(
                        f"{path}:{lineno}: bench column '{column}' is "
                        "unknown to tools/bench_trend.py — add it to "
                        "TRACKED, ID_COLUMNS, or KNOWN_UNTRACKED")
    return violations


# --- rule: tail-format ------------------------------------------------------

TAIL_LOCK = "tools/tail_format.lock"
TAIL_HEADER = "src/fvl/core/label_store.h"
TAIL_SOURCE = "src/fvl/core/label_store.cc"
TAIL_GOLDEN_TEST = "tests/label_store_test.cc"
TAIL_MIGRATION_DOC = "docs/MIGRATION.md"
TAIL_FN_RE = re.compile(r"LabelStore::(?:AppendTail|ParseTail)[^{;]*{")
TAIL_VERSION_RE = re.compile(r"kTailFormatVersion\s*=\s*(\d+)")
TAIL_GOLDEN_RE = re.compile(r'kGoldenHex\[\]\s*=\s*((?:\s*"[0-9a-f]*")+)')


def tail_format_state(root):
    """(version, layout_digest, golden_digest) of the tree, or (error, ...).

    layout_digest covers the bodies of LabelStore::AppendTail and
    LabelStore::ParseTail — the two functions that define the serialized
    tail byte layout; golden_digest covers the pinned kGoldenHex blob.
    """
    header_path = os.path.join(root, TAIL_HEADER)
    source_path = os.path.join(root, TAIL_SOURCE)
    test_path = os.path.join(root, TAIL_GOLDEN_TEST)
    for path in (header_path, source_path, test_path):
        if not os.path.exists(path):
            return f"{path}: missing", None, None
    version_match = TAIL_VERSION_RE.search(open(header_path).read())
    if not version_match:
        return f"{header_path}: no kTailFormatVersion constant", None, None
    source = open(source_path).read()
    bodies = [function_body(source, match.end() - 1)
              for match in TAIL_FN_RE.finditer(source)]
    if len(bodies) < 2:
        return (f"{source_path}: cannot locate both LabelStore::AppendTail "
                "and LabelStore::ParseTail"), None, None
    golden_match = TAIL_GOLDEN_RE.search(open(test_path).read())
    if not golden_match:
        return f"{test_path}: no pinned kGoldenHex constant", None, None
    layout = hashlib.sha256("\n".join(bodies).encode()).hexdigest()
    golden = hashlib.sha256(
        re.sub(r"\s", "", golden_match.group(1)).encode()).hexdigest()
    return int(version_match.group(1)), layout, golden


def update_tail_lock(root):
    version, layout, golden = tail_format_state(root)
    if layout is None:
        print(f"fvl_lint: cannot update tail lock: {version}")
        return 1
    with open(os.path.join(root, TAIL_LOCK), "w") as f:
        json.dump({"tail_format_version": version, "layout_digest": layout,
                   "golden_digest": golden}, f, indent=2)
        f.write("\n")
    print(f"fvl_lint: {TAIL_LOCK} updated (version {version})")
    return 0


def check_tail_format(root):
    version, layout, golden = tail_format_state(root)
    if layout is None:
        return [version]  # the error string from tail_format_state
    lock_path = os.path.join(root, TAIL_LOCK)
    if not os.path.exists(lock_path):
        return [f"{lock_path}: missing — run tools/fvl_lint.py "
                "--update-tail-lock to pin the current tail layout"]
    try:
        lock = json.load(open(lock_path))
    except json.JSONDecodeError as error:
        return [f"{lock_path}: unparseable: {error}"]
    violations = []
    doc_path = os.path.join(root, TAIL_MIGRATION_DOC)
    heading = re.compile(rf"^#+ .*\btail format v{version}\b",
                         re.IGNORECASE | re.MULTILINE)
    if not (os.path.exists(doc_path) and heading.search(open(doc_path).read())):
        violations.append(
            f"{TAIL_MIGRATION_DOC}: no heading naming 'tail format "
            f"v{version}' — every kTailFormatVersion ({TAIL_HEADER}) needs a "
            "migration note saying what happens to older archives")
    locked_version = lock.get("tail_format_version")
    if layout != lock.get("layout_digest") and version == locked_version:
        violations.append(
            f"{TAIL_SOURCE}: AppendTail/ParseTail changed but "
            f"kTailFormatVersion is still {version} — a layout change must "
            "bump the version ({}) and re-pin the golden blob; a "
            "layout-neutral refactor is re-pinned with tools/fvl_lint.py "
            "--update-tail-lock".format(TAIL_HEADER))
    if version != locked_version and golden == lock.get("golden_digest"):
        violations.append(
            f"{TAIL_HEADER}: kTailFormatVersion bumped ({locked_version} -> "
            f"{version}) but the kGoldenHex blob in {TAIL_GOLDEN_TEST} is "
            "unchanged — re-pin the golden-blob test for the new layout, "
            "then run tools/fvl_lint.py --update-tail-lock")
    return violations


# --- rule: trend-zero -------------------------------------------------------

def write_trend_fixture(directory, value):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "BENCH_probe.json"), "w") as f:
        json.dump({"tables": [{"table": "svc", "rows": [
            {"mix": "probe", "snapshot_delta_ms": value}]}]}, f)


def run_bench_trend(script, current, baseline):
    proc = subprocess.run(
        [sys.executable, script, "--current", current, "--baseline",
         baseline, "--zero-epsilon", "1"],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def check_trend_zero(root):
    """Runs the perf gate against fixtures whose baseline metric is 0.

    A percentage gate has no scale at a zero baseline; the gate must fall
    back to an absolute epsilon (still failing a real worsening) and must
    log the comparison loudly instead of silently skipping it. This rule
    checks the *behavior*, so a refactor of bench_trend.py that quietly
    reintroduces the silent `continue` fails CI.
    """
    script = os.path.join(root, "tools/bench_trend.py")
    if not os.path.exists(script):
        return [f"{script}: missing"]
    violations = []
    with tempfile.TemporaryDirectory(prefix="fvl_lint_trend_zero_") as tmp:
        baseline = os.path.join(tmp, "baseline")
        write_trend_fixture(baseline, 0)
        regressed = os.path.join(tmp, "regressed")
        write_trend_fixture(regressed, 50)
        benign = os.path.join(tmp, "benign")
        write_trend_fixture(benign, 0.5)
        code, _ = run_bench_trend(script, regressed, baseline)
        if code != 1:
            violations.append(
                f"{script}: snapshot_delta_ms 0 -> 50 with epsilon 1 exited "
                f"{code}, want 1 — zero-baseline metrics are ungated")
        code, out = run_bench_trend(script, benign, baseline)
        if code != 0:
            violations.append(
                f"{script}: snapshot_delta_ms 0 -> 0.5 with epsilon 1 "
                f"exited {code}, want 0")
        elif "skipped" not in out:
            violations.append(
                f"{script}: a zero-baseline comparison within epsilon left "
                "no 'skipped' marker in the log — it is being silently "
                "dropped")
    return violations


RULES = {
    "nodiscard": check_nodiscard,
    "parse-abort": check_parse_abort,
    "naked-mutex": check_naked_mutex,
    "raw-io": check_raw_io,
    "test-registry": check_test_registry,
    "bench-keys": check_bench_keys,
    "tail-format": check_tail_format,
    "trend-zero": check_trend_zero,
}


# --- self-test --------------------------------------------------------------

def write(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(content)


def seed_tail_tree(root, version):
    """Writes the three files tail_format_state reads, at `version`."""
    write(root, "src/fvl/core/label_store.h",
          f"static constexpr int kTailFormatVersion = {version};\n")
    write(root, "src/fvl/core/label_store.cc",
          "void LabelStore::AppendTail(std::string* blob) const {\n"
          "  // layout\n"
          "}\n"
          "Result<LabelStore> LabelStore::ParseTail(\n"
          "    std::string_view blob) {\n"
          "  return {};\n"
          "}\n")
    write(root, "tests/label_store_test.cc",
          'constexpr char kGoldenHex[] = "aabbcc";\n')


# Seeded violations for --self-test: seed name -> the rule that must catch
# it. Every rule has a seed named after it; some rules have more.
SEEDS = {rule: rule for rule in RULES}
SEEDS["tail-migration-note"] = "tail-format"


def seed_violation(seed, root):
    """Builds a minimal tree under root violating exactly one rule."""
    if seed == "nodiscard":
        write(root, "src/fvl/util/status.h",
              "class [[nodiscard]] Status {};\n"
              "template <typename T> class [[nodiscard]] Result {};\n")
        write(root, "src/fvl/core/thing.h",
              "class Thing {\n public:\n"
              "  Status Frob(int x);\n"  # missing [[nodiscard]]
              "};\n")
    elif seed == "parse-abort":
        write(root, "src/fvl/net/wire.cc",
              "Result<Request> DecodeRequest(std::string_view payload) {\n"
              "  FVL_CHECK(!payload.empty());\n"
              "  return {};\n"
              "}\n")
    elif seed == "naked-mutex":
        write(root, "src/fvl/util/thing.h",
              "class Thing {\n private:\n"
              "  std::mutex mu_;\n"
              "};\n")
    elif seed == "raw-io":
        write(root, "src/fvl/core/sneaky.cc",
              "void Load() {\n"
              "  int fd = ::open(\"/tmp/x\", O_RDONLY);\n"
              "}\n")
    elif seed == "test-registry":
        write(root, "tests/CMakeLists.txt",
              "set(FVL_TESTS\n  registered_test\n)\n")
        write(root, "tests/registered_test.cc", "// fine\n")
        write(root, "tests/orphan_test.cc", "// never runs\n")
    elif seed == "bench-keys":
        write(root, "tools/bench_trend.py",
              "TRACKED = {'merged_qps': True}\n"
              "ID_COLUMNS = {'runs'}\n"
              "KNOWN_UNTRACKED = {'merge_ms'}\n")
        write(root, "bench/bench_merge_query.cc",
              'TablePrinter table({"runs", "merge_ms", "mystery_metric"});\n')
    elif seed == "tail-format":
        # A layout edit (different AppendTail body than the lock pinned)
        # without a version bump: the wire break the rule exists to catch.
        seed_tail_tree(root, 2)
        write(root, "docs/MIGRATION.md", "## Label-store tail format v2\n")
        write(root, "tools/tail_format.lock",
              json.dumps({"tail_format_version": 2,
                          "layout_digest": "0" * 64,
                          "golden_digest": "1" * 64}))
    elif seed == "tail-migration-note":
        # A version bump re-pinned by the book (the lock matches the tree)
        # whose migration note was never written: MIGRATION.md still stops
        # at the previous version.
        seed_tail_tree(root, 3)
        write(root, "docs/MIGRATION.md", "## Label-store tail format v2\n")
        version, layout, golden = tail_format_state(root)
        write(root, "tools/tail_format.lock",
              json.dumps({"tail_format_version": version,
                          "layout_digest": layout, "golden_digest": golden}))
    elif seed == "trend-zero":
        # The pre-fix bench_trend.py: zero-baseline metrics silently
        # `continue`d, so every comparison against a 0 baseline exited 0
        # with no log line. The rule must catch that behavior.
        write(root, "tools/bench_trend.py",
              "#!/usr/bin/env python3\n"
              "import sys\n"
              "sys.exit(0)  # old behavior: zero baselines never gate\n")


def self_test():
    failures = []
    for seed, rule in SEEDS.items():
        with tempfile.TemporaryDirectory(prefix=f"fvl_lint_{seed}_") as tmp:
            seed_violation(seed, tmp)
            found = RULES[rule](tmp)
            if found:
                print(f"self-test [{seed}]: caught seeded violation: "
                      f"{found[0]}")
            else:
                failures.append(seed)
                print(f"self-test [{seed}]: MISSED its seeded violation")
    if failures:
        print(f"fvl_lint self-test: {len(failures)} seed(s) missed: "
              f"{', '.join(failures)}")
        return 1
    print(f"fvl_lint self-test: all {len(SEEDS)} seeds caught "
          f"({len(RULES)} rules)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule catches a seeded violation")
    parser.add_argument("--update-tail-lock", action="store_true",
                        help="re-pin tools/tail_format.lock to the current "
                             "AppendTail/ParseTail layout and golden blob "
                             "(after a deliberate, reviewed format change)")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src/fvl")):
        print(f"fvl_lint: {root} does not look like the repo root")
        sys.exit(2)

    if args.update_tail_lock:
        sys.exit(update_tail_lock(root))

    total = 0
    for rule, checker in RULES.items():
        violations = checker(root)
        for violation in violations:
            print(f"[{rule}] {violation}")
        total += len(violations)
    if total:
        print(f"fvl_lint: {total} violation(s)")
        sys.exit(1)
    print(f"fvl_lint: clean ({len(RULES)} rules)")
    sys.exit(0)


if __name__ == "__main__":
    main()
