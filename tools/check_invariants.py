#!/usr/bin/env python3
"""Project-invariant linter: rules the compiler can't see.

Five rules, each a hard CI gate (lint job + ctest):

  naked-primitives    No std::mutex / std::lock_guard / std::scoped_lock /
                      std::unique_lock / std::condition_variable / ... in
                      src/ outside common/thread_annotations.h. Everything
                      must go through the annotated gts::Mutex wrappers or
                      Clang Thread Safety Analysis has a blind spot.
  fault-sites         Every fault-site key tripped in src/ (Trip /
                      TripDelayMicros string literals) appears in the
                      fault-site table of docs/SERVING.md, and vice versa.
  bench-series        Every "gts-*" series prefix emitted by bench/*.cc has
                      at least one matching entry in bench/baselines/
                      BENCH_*.json, and every gts-* baseline entry traces
                      back to a source prefix (no orphaned gates).
  epoch-guard-blocking  A local epoch::Guard is never held across a
                      blocking Submit*() call or a future .get()/.wait()
                      in src/ — a pinned epoch across a queue wait stalls
                      reclamation for every writer. (unique_ptr::get() is
                      fine; the rule matches Submit calls and get/wait on
                      future-named receivers. ReadSnapshot's member guard
                      is exempt by design: snapshots pin deliberately.)
  doc-refs            Every *.md path named in a comment (C++ // and /* */
                      comments, Python # comments and docstrings) under
                      src/, bench/ or tools/ exists — relative to the repo
                      root or to the naming file, or, for a bare file name,
                      anywhere in the repo. Pointers to docs that were never
                      written are how readers get lost.

Exit 0 when clean; exit 1 listing violations. --self-test runs every rule
against embedded good/bad snippets and fails if any rule misses its bad
snippet or flags its good one.
"""

import argparse
import io
import json
import os
import pathlib
import re
import sys
import tempfile
import tokenize

NAKED_PRIMITIVES = [
    "std::mutex",
    "std::timed_mutex",
    "std::recursive_mutex",
    "std::shared_mutex",
    "std::lock_guard",
    "std::scoped_lock",
    "std::unique_lock",
    "std::shared_lock",
    "std::condition_variable",
]
WRAPPER_HEADER = pathlib.Path("src/common/thread_annotations.h")

FAULT_SITE_RE = re.compile(r'\b(?:Trip|TripDelayMicros)\s*\(\s*"([^"]+)"')
BENCH_SERIES_RE = re.compile(r'"(gts-[A-Za-z0-9/_@.,=-]*)"')
MD_REF_RE = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b")
GUARD_DECL_RE = re.compile(r"\bepoch::Guard\s+\w+\s*\(")
BLOCKING_RE = re.compile(
    r"\bSubmit\w*\s*\(|\b\w*[Ff]ut\w*(?:ure)?s?(?:\[[^\]]*\])?"
    r"\s*\.\s*(?:get|wait)\s*\("
)


def strip_comments(text, keep_comments=False):
    """Remove // and /* */ comments, preserving line numbers and strings.

    With keep_comments, return the opposite: only the comment text, with
    code and string literals blanked (line numbers still preserved).
    """
    out = []
    comments = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"' or c == "'":
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i : i + 2])
                    i += 2
                else:
                    out.append(text[i])
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        elif text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
            comments.append(text[i:end])
            i = end
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            comments.append(text[i:end])
            out.append("\n" * text.count("\n", i, end))
            i = end
        else:
            if c == "\n":
                comments.append(c)
            out.append(c)
            i += 1
    return "".join(comments if keep_comments else out)


def source_files(root, subdir, exts=(".h", ".cc")):
    base = root / subdir
    if not base.is_dir():
        return []
    return sorted(p for p in base.rglob("*") if p.suffix in exts)


def check_naked_primitives(root):
    violations = []
    for path in source_files(root, "src"):
        if path == root / WRAPPER_HEADER:
            continue
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            for token in NAKED_PRIMITIVES:
                if token in line:
                    violations.append(
                        f"{path.relative_to(root)}:{lineno}: naked {token} — "
                        "use the annotated wrappers in "
                        "src/common/thread_annotations.h"
                    )
    return violations


def doc_fault_sites(root):
    """Keys from the fault-site table in docs/SERVING.md."""
    doc = root / "docs" / "SERVING.md"
    if not doc.is_file():
        return None
    keys = set()
    in_section = False
    for line in doc.read_text().splitlines():
        if line.startswith("#"):
            in_section = "fault" in line.lower()
            continue
        if in_section and line.startswith("|"):
            m = re.match(r"\|\s*`([^`]+)`\s*\|", line)
            if m:
                keys.add(m.group(1))
    return keys


def check_fault_sites(root):
    code_keys = set()
    for path in source_files(root, "src"):
        text = strip_comments(path.read_text())
        code_keys.update(FAULT_SITE_RE.findall(text))
    doc_keys = doc_fault_sites(root)
    if doc_keys is None:
        return ["docs/SERVING.md not found — fault-site table unverifiable"]
    violations = []
    for key in sorted(code_keys - doc_keys):
        violations.append(
            f"fault site '{key}' is tripped in src/ but missing from the "
            "docs/SERVING.md fault-site table"
        )
    for key in sorted(doc_keys - code_keys):
        violations.append(
            f"fault site '{key}' is documented in docs/SERVING.md but no "
            "src/ code trips it"
        )
    return violations


def baseline_names(root):
    names = []
    for path in sorted((root / "bench" / "baselines").glob("BENCH_*.json")):
        data = json.loads(path.read_text())
        for row in data.get("results", data.get("benchmarks", [])):
            if "name" in row:
                names.append(row["name"])
    return names


def check_bench_series(root):
    prefixes = set()
    for path in source_files(root, "bench", exts=(".cc",)):
        text = strip_comments(path.read_text())
        for literal in BENCH_SERIES_RE.findall(text):
            # A bare family name ("gts-serve") names the whole series
            # family; terminate it so it can't claim "gts-serve-stream".
            prefixes.add(literal if "/" in literal else literal + "/")
    names = baseline_names(root)
    if not names:
        return ["no bench/baselines/BENCH_*.json found — series unverifiable"]
    violations = []
    for prefix in sorted(prefixes):
        if not any(name.startswith(prefix) for name in names):
            violations.append(
                f"bench series prefix '{prefix}' is emitted by bench/ but "
                "has no entry in bench/baselines/BENCH_*.json — regenerate "
                "the baseline or the perf gate silently skips it"
            )
    for name in sorted(set(names)):
        if name.startswith("gts-") and not any(
            name.startswith(p) for p in prefixes
        ):
            violations.append(
                f"baseline series '{name}' matches no prefix emitted by "
                "bench/*.cc — stale gate, regenerate the baseline"
            )
    return violations


def check_epoch_guard_blocking(root):
    violations = []
    for path in source_files(root, "src"):
        text = strip_comments(path.read_text())
        for m in GUARD_DECL_RE.finditer(text):
            depth = 0
            i = m.end()
            scope_end = len(text)
            while i < len(text):
                c = text[i]
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
                    if depth < 0:
                        scope_end = i
                        break
                i += 1
            scope = text[m.end() : scope_end]
            for b in BLOCKING_RE.finditer(scope):
                lineno = text.count("\n", 0, m.end() + b.start()) + 1
                call = b.group(0).strip()
                violations.append(
                    f"{path.relative_to(root)}:{lineno}: '{call}' while a "
                    "local epoch::Guard is pinned — a blocked reader stalls "
                    "epoch reclamation; drop the guard (or use ReadSnapshot) "
                    "before blocking"
                )
    return violations


def python_comments(text):
    """Comment and docstring text of a Python file, one entry per line."""
    lines = [""] * (text.count("\n") + 1)
    statement_start = True
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            row = tok.start[0] - 1
            if tok.type == tokenize.COMMENT or (
                tok.type == tokenize.STRING and statement_start
            ):
                for k, part in enumerate(tok.string.split("\n")):
                    lines[row + k] += " " + part
            if tok.type not in (tokenize.COMMENT, tokenize.NL):
                statement_start = tok.type in (
                    tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT
                )
    except (tokenize.TokenError, SyntaxError):
        pass
    return "\n".join(lines)


def markdown_names(root):
    """Base names of every *.md file in the repo (build trees skipped)."""
    names = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if not d.startswith(".") and not d.startswith("build")
        ]
        names.update(f for f in filenames if f.endswith(".md"))
    return names


def check_doc_refs(root):
    violations = []
    md_names = markdown_names(root)
    for subdir in ("src", "bench", "tools"):
        for path in source_files(root, subdir, exts=(".h", ".cc", ".py")):
            text = path.read_text()
            comments = (
                python_comments(text)
                if path.suffix == ".py"
                else strip_comments(text, keep_comments=True)
            )
            for lineno, line in enumerate(comments.splitlines(), 1):
                for ref in MD_REF_RE.findall(line):
                    if (root / ref).is_file() or (path.parent / ref).is_file():
                        continue
                    if "/" not in ref and ref in md_names:
                        continue
                    violations.append(
                        f"{path.relative_to(root)}:{lineno}: comment names "
                        f"'{ref}', which does not exist — point at the doc "
                        "that holds the content, or say it inline"
                    )
    return violations


RULES = {
    "naked-primitives": check_naked_primitives,
    "fault-sites": check_fault_sites,
    "bench-series": check_bench_series,
    "epoch-guard-blocking": check_epoch_guard_blocking,
    "doc-refs": check_doc_refs,
}


# --- self-test -------------------------------------------------------------

GOOD_SOURCE = """\
#include "common/thread_annotations.h"
// std::mutex in a comment is fine.
const char* kFixture = "GHOST.md";  // See docs/SERVING.md and SERVING.md.
namespace gts {
struct S {
  Mutex mu_;
  int v_ GUARDED_BY(mu_) = 0;
};
void Reclaim() {
  epoch::Guard guard(&dom);
  auto* raw = owner.get();   /* unique_ptr::get(), not a future */
  (void)raw;
}
void Later(Session* s) { s->Submit(Req{}); }  // no guard pinned here
void Site() { fault::Registry::Instance().Trip("demo.site", 0); }
}  // namespace gts
"""

BAD_NAKED = "#include <mutex>\nstd::mutex mu;\n"
BAD_FAULT = (
    'void Extra() { fault::Registry::Instance().Trip("demo.rogue", 0); }\n'
)
BAD_DOC_REF = "/* Rationale in DESIGN.md. */\nint x;\n"
GOOD_TOOL = '''\
"""Checks docs/SERVING.md."""
# Reads README.md.
FIXTURE = "see GHOST.md"
'''
BAD_TOOL = '''\
def f():
    """Follows docs/GHOST.md."""
'''
BAD_GUARD = """\
void Wait(Session* s) {
  epoch::Guard guard(&dom);
  auto fut = s->Submit(Req{});
  fut.get();
}
"""

GOOD_DOC = """\
# Serving

### Deterministic fault injection

| site | where | key |
|---|---|---|
| `demo.site` | demo | none |

### Knobs

| `unrelated_knob` | not a fault site |
"""

GOOD_BENCH = 'const char* kName = "gts-demo";\n'
BAD_BENCH = GOOD_BENCH + 'const char* kOther = "gts-demo-unbaselined/x";\n'
GOOD_BASELINE = {"results": [{"name": "gts-demo/knn@threads=1"}]}
BAD_BASELINE = {
    "results": [
        {"name": "gts-demo/knn@threads=1"},
        {"name": "gts-stale/old"},
    ]
}


def write_tree(root, src, doc, bench, baseline):
    (root / "src" / "common").mkdir(parents=True)
    (root / "src" / "common" / "thread_annotations.h").write_text(
        "// wrapper header: the one place std::mutex may appear\n"
        "#include <mutex>\nnamespace gts { using Std = std::mutex; }\n"
    )
    (root / "src" / "demo.cc").write_text(src)
    (root / "tools").mkdir()
    (root / "tools" / "demo_tool.py").write_text(GOOD_TOOL)
    (root / "README.md").write_text("# Demo\n")
    (root / "docs").mkdir()
    (root / "docs" / "SERVING.md").write_text(doc)
    (root / "bench" / "baselines").mkdir(parents=True)
    (root / "bench" / "demo_bench.cc").write_text(bench)
    (root / "bench" / "baselines" / "BENCH_demo.json").write_text(
        json.dumps(baseline)
    )


def self_test():
    failures = []

    def expect(label, violations, want_hit):
        if want_hit and not violations:
            failures.append(f"{label}: bad snippet NOT caught")
        elif not want_hit and violations:
            failures.append(f"{label}: good snippet flagged: {violations}")
        else:
            print(f"ok   {label}")

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp) / "good"
        write_tree(root, GOOD_SOURCE, GOOD_DOC, GOOD_BENCH, GOOD_BASELINE)
        for name, rule in RULES.items():
            expect(f"{name} (clean tree)", rule(root), want_hit=False)

        cases = [
            ("naked-primitives", "src/extra.cc", BAD_NAKED),
            ("fault-sites", "src/extra.cc", BAD_FAULT),
            ("epoch-guard-blocking", "src/extra.cc", BAD_GUARD),
            ("bench-series", "bench/demo_bench.cc", BAD_BENCH),
            ("doc-refs", "src/extra.cc", BAD_DOC_REF),
            ("doc-refs", "tools/demo_tool.py", BAD_TOOL),
        ]
        for idx, (rule_name, rel, content) in enumerate(cases):
            bad = pathlib.Path(tmp) / f"bad{idx}"
            write_tree(bad, GOOD_SOURCE, GOOD_DOC, GOOD_BENCH, GOOD_BASELINE)
            (bad / rel).write_text(content)
            expect(f"{rule_name} (seeded)", RULES[rule_name](bad), True)

        # bench-series reverse direction: stale baseline entry.
        stale = pathlib.Path(tmp) / "stale"
        write_tree(stale, GOOD_SOURCE, GOOD_DOC, GOOD_BENCH, BAD_BASELINE)
        expect("bench-series (stale baseline)", RULES["bench-series"](stale),
               want_hit=True)

        # fault-sites reverse direction: documented-but-untripped key.
        undoc = pathlib.Path(tmp) / "undoc"
        extra_doc = GOOD_DOC.replace(
            "| `demo.site` | demo | none |",
            "| `demo.site` | demo | none |\n| `demo.ghost` | gone | none |",
        )
        write_tree(undoc, GOOD_SOURCE, extra_doc, GOOD_BENCH, GOOD_BASELINE)
        expect("fault-sites (ghost doc row)", RULES["fault-sites"](undoc),
               want_hit=True)

    if failures:
        print(f"\nself-test: {len(failures)} failure(s)")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print("\nself-test: all rules catch their bad snippets.")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "root", nargs="?", default=".", type=pathlib.Path,
        help="repository root (default: cwd)",
    )
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root.resolve()
    all_violations = []
    for name, rule in RULES.items():
        violations = rule(root)
        status = "FAIL" if violations else "ok"
        print(f"{status:4} {name}: {len(violations)} violation(s)")
        all_violations.extend(violations)
    if all_violations:
        print()
        for v in all_violations:
            print(f"  {v}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
