#!/usr/bin/env bash
# Documentation checker (ctest label `docs`).
#
# Nine guarantees:
#   1. Every intra-repo markdown link in the maintained docs (README.md,
#      DESIGN.md, EXPERIMENTS.md, ROADMAP.md, CHANGES.md, docs/**) points
#      at a file that exists. External links (http/https/mailto) and pure
#      anchors are skipped; a link's #fragment is stripped before the
#      check. ISSUE.md / PAPERS.md / SNIPPETS.md are generated inputs and
#      are not checked.
#   2. docs/ARCHITECTURE.md names every subsystem directory under src/ —
#      adding a module without documenting it fails the build.
#   3. ctest labels stay in sync both ways: every label referenced from
#      README.md / DESIGN.md (`-L <label>` invocations and the README
#      label table) is declared in tests/CMakeLists.txt or
#      examples/CMakeLists.txt, and every declared label has a row in the
#      README label table — adding a suite label without documenting how
#      to run it fails the build.
#   4. docs/THREAT_MODEL.md's "Gate call sites" table stays honest: the
#      function each row names (the first backticked name in its second
#      column) is defined in the file that row names, so the table cannot
#      point at a deleted or moved gate.
#   5. Every metric name README.md, DESIGN.md or docs/** cites in
#      backticks and that ends in `.count`, `.real_us`, `.cpu_ms` or `.ms`
#      appears as a string literal somewhere under src/, so the docs
#      cannot keep citing a deleted counter. A trailing label selector
#      (`a.count{result=ok}`) is stripped first; names with a brace list
#      (`a.{b,c}.count`) are skipped.
#   6. Every repo path README.md, DESIGN.md or docs/** cites in backticks
#      (a span starting with src/, tests/, bench/, tools/ or examples/)
#      exists, so the docs cannot keep citing a deleted file. Only the
#      span's first word counts (`tools/audit_verify --store` is a
#      command); a `:line` suffix is stripped; `{a,b}` lists expand to
#      one path each; `*` and a `<placeholder>` are globs that must match
#      something; and a bare binary name passes when `<name>.cpp` exists.
#   7. Every REVELIO_* environment variable README.md, DESIGN.md or
#      docs/** names is read by a `getenv("REVELIO_...")` under src/, so
#      the docs cannot keep citing a deleted knob.
#   8. Under each "### `src/<dir>`" heading of docs/ARCHITECTURE.md, every
#      backticked file name in the list that opens a bullet
#      (`rng.{hpp,cpp}`, `bytes.hpp`, ...; brace lists expand) exists in
#      src/<dir>, so the walkthrough cannot keep describing a deleted
#      file under its bare name, which guarantee 6 does not see.
#   9. Every failure_step literal passed to `reject("...")` in
#      src/revelio/relying_party.cpp is passed to a `reject("...")` call
#      exactly once in all of src/, and has a row in docs/THREAT_MODEL.md's
#      "Gate call sites" table: each relying-party gate rejects from one
#      call site, so one event gets one failure step and one audit cause.
#
# Usage: tools/check_docs.sh [repo-root]   (defaults to the script's repo)
set -euo pipefail

repo_root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

python3 - "$repo_root" <<'PY'
import glob
import os
import re
import sys

root = sys.argv[1]
failures = []

# --- 1. intra-repo markdown links -----------------------------------------
doc_files = []
for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
             "CHANGES.md"):
    path = os.path.join(root, name)
    if os.path.exists(path):
        doc_files.append(path)
docs_dir = os.path.join(root, "docs")
if os.path.isdir(docs_dir):
    for dirpath, _, names in os.walk(docs_dir):
        doc_files.extend(os.path.join(dirpath, n) for n in sorted(names)
                         if n.endswith(".md"))

# [text](target) — skip images' leading ! by matching the bracket pair
# itself; inline code spans are stripped first so `[i % C]`-style snippets
# aren't mistaken for links.
link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
code_re = re.compile(r"`[^`]*`")
checked = 0
for path in doc_files:
    rel = os.path.relpath(path, root)
    with open(path) as f:
        text = code_re.sub("", f.read())
    for target in link_re.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        resolved = os.path.normpath(
            os.path.join(os.path.dirname(path), target))
        checked += 1
        if not os.path.exists(resolved):
            failures.append(f"{rel}: broken link -> {target}")
print(f"checked {checked} intra-repo links across {len(doc_files)} docs")

# --- 2. ARCHITECTURE.md covers every src/ subsystem ------------------------
arch_path = os.path.join(root, "docs", "ARCHITECTURE.md")
if not os.path.exists(arch_path):
    failures.append("docs/ARCHITECTURE.md is missing")
else:
    with open(arch_path) as f:
        arch = f.read()
    subsystems = sorted(
        d for d in os.listdir(os.path.join(root, "src"))
        if os.path.isdir(os.path.join(root, "src", d)))
    for d in subsystems:
        if f"src/{d}" not in arch:
            failures.append(
                f"docs/ARCHITECTURE.md does not mention src/{d}")
    print(f"architecture doc covers {len(subsystems)} src/ subsystems")

# --- 3. ctest labels: docs <-> tests/ and examples/ CMakeLists.txt ----------
cmake_path = os.path.join(root, "tests", "CMakeLists.txt")
if not os.path.exists(cmake_path):
    failures.append("tests/CMakeLists.txt is missing")
else:
    cmake = ""
    for rel in ("tests/CMakeLists.txt", "examples/CMakeLists.txt"):
        path = os.path.join(root, rel)
        if os.path.exists(path):
            with open(path) as f:
                cmake += f.read()
    declared = set()
    # Matches both `LABELS tsan` and `LABELS "fleet;chaos;tsan"`.
    for group in re.findall(r'LABELS\s+"?([A-Za-z0-9;_-]+)"?', cmake):
        declared.update(group.split(";"))

    readme_path = os.path.join(root, "README.md")
    design_path = os.path.join(root, "DESIGN.md")
    with open(readme_path) as f:
        readme = f.read()
    design = ""
    if os.path.exists(design_path):
        with open(design_path) as f:
            design = f.read()

    # Labels the docs tell readers to run: `-L <label>` invocations plus
    # the README label table's first column (backticked label per row).
    referenced = set(re.findall(r"-L\s+([A-Za-z0-9_-]+)", readme + design))
    table_labels = set(re.findall(r"^\| `([A-Za-z0-9_-]+)` \|", readme,
                                  re.MULTILINE))
    referenced |= table_labels

    for label in sorted(referenced - declared):
        failures.append(
            f"docs reference ctest label '{label}' but no CMakeLists.txt "
            "declares it")
    for label in sorted(declared - table_labels):
        failures.append(
            f"tests/ or examples/CMakeLists.txt declares ctest label "
            f"'{label}' but the README label table has no row for it")
    print(f"ctest labels in sync: {len(declared)} declared, "
          f"{len(referenced)} referenced")

# --- 4. the gate table names functions where they are defined ------------
threat_path = os.path.join(root, "docs", "THREAT_MODEL.md")
if os.path.exists(threat_path):
    with open(threat_path) as f:
        threat = f.read()
    section = threat.split("## Gate call sites", 1)
    if len(section) < 2:
        failures.append("docs/THREAT_MODEL.md has no 'Gate call sites' "
                        "section")
        section = ["", ""]
    section = section[1].split("\n## ", 1)[0]
    rows = 0
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 4 or not cells[0].startswith("`"):
            continue  # header, separator or prose
        rows += 1
        name = re.search(r"`([A-Za-z_][\w:]*)`", cells[1])
        path = re.search(r"`([^`]+)`", cells[-1])
        if not name or not path:
            failures.append(f"gate table row {cells[0]} names no function "
                            "or no file")
            continue
        source_path = os.path.join(root, path.group(1))
        if not os.path.exists(source_path):
            failures.append(f"gate table row {cells[0]}: no file "
                            f"{path.group(1)}")
            continue
        with open(source_path) as f:
            source = f.read()
        # A definition starts in column 0 (return type, then the qualified
        # name); calls are indented.
        definition = re.compile(r"^\S[^\n;]*\b" + re.escape(name.group(1)) +
                                r"\(", re.MULTILINE)
        if not definition.search(source):
            failures.append(f"gate table row {cells[0]}: "
                            f"{name.group(1)} is not defined in "
                            f"{path.group(1)}")
    if rows == 0:
        failures.append("docs/THREAT_MODEL.md's gate table has no rows")
    print(f"gate table: {rows} rows name functions defined where they say")
    table_steps = set(re.findall(r"^\|\s*`([\w]+)`\s*\|", section,
                                 re.MULTILINE))
else:
    table_steps = set()

# --- 9. each relying-party failure_step is rejected from one call site -------
reject_re = re.compile(r'\breject\(\s*"([\w]+)"')
verifier_path = os.path.join(root, "src", "revelio", "relying_party.cpp")
if not os.path.exists(verifier_path):
    failures.append("src/revelio/relying_party.cpp is missing")
else:
    with open(verifier_path) as f:
        steps = sorted(set(reject_re.findall(f.read())))
    src_rejects = []
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for n in sorted(names):
            if n.endswith((".cpp", ".hpp", ".h", ".cc")):
                with open(os.path.join(dirpath, n)) as f:
                    src_rejects += reject_re.findall(f.read())
    for step in steps:
        sites = src_rejects.count(step)
        if sites != 1:
            failures.append(f'src/: reject("{step}" appears {sites} times; '
                            "each gate rejects from exactly one call site")
        if step not in table_steps:
            failures.append(f"docs/THREAT_MODEL.md's gate table has no row "
                            f"for failure_step `{step}`")
    print(f"relying-party failure steps: {len(steps)} with one call site "
          "and a gate-table row")

# --- 5. cited metric names exist in src/ -----------------------------------
metric_docs = [os.path.join(root, n) for n in ("README.md", "DESIGN.md")
               if os.path.exists(os.path.join(root, n))]
metric_docs += [p for p in doc_files
                if os.path.relpath(p, root).startswith("docs" + os.sep)]
metric_re = re.compile(r"^([A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*"
                       r"\.(?:count|real_us|cpu_ms|ms))(?:\{[^{}]*\})?$")
cited = {}
citations = 0
for path in metric_docs:
    with open(path) as f:
        for span in re.findall(r"`([^`\n]+)`", f.read()):
            m = metric_re.match(span)
            if m:
                citations += 1
                cited.setdefault(m.group(1), os.path.relpath(path, root))
literals = set()
for dirpath, _, names in os.walk(os.path.join(root, "src")):
    for n in names:
        if n.endswith((".cpp", ".hpp", ".h", ".cc")):
            with open(os.path.join(dirpath, n)) as f:
                literals.update(re.findall(r'"([^"\n]*)"', f.read()))
for name, rel in sorted(cited.items()):
    if name not in literals:
        failures.append(f"{rel}: metric `{name}` is not a string literal "
                        "in src/")
print(f"metric names: {citations} citations of {len(cited)} names checked "
      "against src/ string literals")

# --- 6. cited repo paths exist ----------------------------------------------
def expand_braces(path):
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    return [e for alt in m.group(1).split(",")
            for e in expand_braces(path[:m.start()] + alt + path[m.end():])]

def path_exists(path):
    pattern = re.sub(r"<[^<>]*>", "*", path)
    if glob.glob(os.path.join(root, pattern)):
        return True
    return os.path.exists(os.path.join(root, pattern + ".cpp"))

path_citations = 0
for path in metric_docs:
    rel = os.path.relpath(path, root)
    with open(path) as f:
        for span in re.findall(r"`([^`\n]+)`", f.read()):
            if not span.startswith(("src/", "tests/", "bench/", "tools/",
                                    "examples/")):
                continue
            path_citations += 1
            cited_path = re.sub(r":[0-9][0-9,-]*$", "", span.split()[0])
            for candidate in expand_braces(cited_path):
                if not path_exists(candidate):
                    failures.append(f"{rel}: cited path `{candidate}` "
                                    "does not exist")
print(f"repo paths: {path_citations} citations checked")

# --- 7. cited environment variables are read in src/ ------------------------
read_vars = set()
for dirpath, _, names in os.walk(os.path.join(root, "src")):
    for n in names:
        if n.endswith((".cpp", ".hpp", ".h", ".cc")):
            with open(os.path.join(dirpath, n)) as f:
                read_vars.update(re.findall(
                    r'getenv\(\s*"(REVELIO_[A-Z0-9_]+)"', f.read()))
cited_vars = set()
for path in metric_docs:
    rel = os.path.relpath(path, root)
    with open(path) as f:
        for var in sorted(set(re.findall(r"\bREVELIO_[A-Z0-9_]+",
                                         f.read()))):
            cited_vars.add(var)
            if var not in read_vars:
                failures.append(f"{rel}: environment variable {var} is not "
                                "read by a getenv under src/")
print(f"environment variables: {len(cited_vars)} cited, "
      f"{len(read_vars)} read in src/")

# --- 8. ARCHITECTURE.md's per-directory bullets name files that exist ------
if os.path.exists(arch_path):
    section_dir = None
    bullet_files = 0
    lead_re = re.compile(r"^- ((?:`[^`]+`(?:,\s*|\s+and\s+)?)+)")
    file_re = re.compile(r"^[\w.-]+\.(?:\{[\w,]+\}|\w+)$")
    for line in arch.splitlines():
        heading = re.match(r"^### `src/([\w-]+)`", line)
        if heading:
            section_dir = heading.group(1)
            continue
        if line.startswith(("## ", "### ")):
            section_dir = None
            continue
        lead = lead_re.match(line) if section_dir else None
        if not lead:
            continue
        for span in re.findall(r"`([^`]+)`", lead.group(1)):
            if not file_re.match(span):
                continue
            for name in expand_braces(span):
                bullet_files += 1
                if not os.path.exists(
                        os.path.join(root, "src", section_dir, name)):
                    failures.append(
                        f"docs/ARCHITECTURE.md: `src/{section_dir}` bullet "
                        f"names `{name}`, which does not exist there")
    print(f"architecture bullets: {bullet_files} file names checked")

if failures:
    print("documentation check failure(s):", file=sys.stderr)
    for f_ in failures:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
print("documentation checks passed")
PY
