#!/usr/bin/env python3
"""janus_lint: concurrency lint for the janus tree (DESIGN.md §10.4).

Five rules, each encoding an invariant the real-thread engine's
correctness argument depends on but that no compiler checks:

  R1 atomic-memory-order
     Every member operation on a variable *declared* `std::atomic` in
     the same file must pass an explicit std::memory_order argument.
     The seq_cst defaults would be correct but hide the proof: the
     hazard-slot argument in ShardedRuntime.cpp depends on knowing
     exactly which accesses are seq_cst. StripedCounter/Counter
     wrappers expose a `.load()` of their own and are exempt because
     their names are never declared `std::atomic` (the stripes inside
     them carry explicit orders).

  R2 snapshot-hazard-scope
     `Published.load(...)` is an epoch-protected snapshot-pointer read:
     it may only appear in a function that first either acquires a
     CommitMutex (a guard or manual .lock() over the epoch's free
     path) or publishes a hazard in a `Hazards[shard]` slot
     (DESIGN.md §11.2). A bare read races recycleShardStates().

  R3 lock-hierarchy
     The documented hierarchy is single-level: CommitMutex is the
     root, and shard mutexes (detector caches) are leaves acquired
     alone. The rule flags any guard over a tracked mutex while
     another tracked guard is still in scope, and any manual
     .lock()/.unlock() on them (RAII only). Exception: the sharded
     runtime's *per-shard* commit mutexes (indexed
     `Shards[i].CommitMutex`) follow the documented multi-lock
     protocol — ascending acquire, reverse release (DESIGN.md §11.3)
     — which no single RAII guard can express; the indexed form is
     therefore exempt from the manual-lock check.

  R4 obs-gating
     `->span(`, `->instant(` and latency-histogram `.record(` calls are
     only free when compiled out, so they must appear in a function
     that obtained its observer through the `janusObs(...)` gate (which
     folds to nullptr under JANUS_OBS=OFF).

  R5 spec-table-discipline
     Every entry in `conflict::SpecTables[]` (SpecTable.h) is a
     hand-written commutativity verdict sitting on the detector's
     hot path AND carrying a safety obligation, so each entry's
     function must be declared `constexpr` (evaluable at compile
     time, no hidden state) and `noexcept` (the detector calls it
     under commit-critical sections), and the shipped tables must be
     replayed by a verify test (tests/verify_test.cpp must call
     checkShippedSpecTables) so an unsound entry cannot land
     unconvicted. Checked repo-wide, independent of the scanned
     roots.

A finding can be waived with `// JANUS_LINT_ALLOW(<rule>): <reason>`
on the same line, or on a comment-only line above (the waiver then
applies to the next code line); the reason is mandatory.

Exit status: 0 clean, 1 findings, 2 usage/IO error.
"""

import re
import sys
from pathlib import Path

ATOMIC_DECL = re.compile(
    r"\bstd::atomic(?:_flag)?\s*(?:<[^;{}()]*>)?\s+(\w+)\s*(?:\[[^\]]*\])?\s*[{=;(]"
)
ATOMIC_OPS = (
    "load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    "compare_exchange_weak|compare_exchange_strong|test_and_set|clear"
)
GUARD_DECL = re.compile(
    r"\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\s*<[^>]*>\s*"
    r"\w+\s*\(\s*([\w.\[\]\->]+)\s*[),]"
)
# The documented hierarchy root (ShardedRuntime.h). Shard mutexes are
# leaves; matching plain "Mutex" members through S./S-> catches them.
HIERARCHY = ("CommitMutex",)
FUNC_START = re.compile(r"^[A-Za-z_~].*\(")
ALLOW = re.compile(r"JANUS_LINT_ALLOW\((\w[\w-]*)\)\s*:\s*\S")

LINE_COMMENT = re.compile(r"//.*$")
STRING_LIT = re.compile(r'"(?:[^"\\]|\\.)*"')


class Finding:
    def __init__(self, path, line, rule, msg):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def strip_noise(line, in_block):
    """Blank out comments and string literals, preserving length-ish."""
    out = []
    i, n = 0, len(line)
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                out.append(" " * (n - i))
                i = n
            else:
                out.append(" " * (end + 2 - i))
                i = end + 2
                in_block = False
            continue
        ch = line[i]
        if ch == "/" and i + 1 < n and line[i + 1] == "/":
            out.append(" " * (n - i))
            i = n
        elif ch == "/" and i + 1 < n and line[i + 1] == "*":
            in_block = True
            i += 2
            out.append("  ")
        elif ch == '"':
            m = STRING_LIT.match(line, i)
            if m:
                out.append('"' + " " * (len(m.group(0)) - 2) + '"')
                i = m.end()
            else:
                out.append(ch)
                i += 1
        elif ch == "'" and i + 2 < n:
            # Char literal (incl. escapes); crude but sufficient here.
            m = re.match(r"'(?:[^'\\]|\\.)'", line[i:])
            if m:
                out.append("' '" if len(m.group(0)) == 3 else "'  '")
                i += len(m.group(0))
            else:
                out.append(ch)
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out), in_block


def call_args(lines, row, col):
    """Text of a call's argument list starting at lines[row][col]=='('."""
    depth = 0
    parts = []
    for r in range(row, min(row + 8, len(lines))):
        text = lines[r][col if r == row else 0 :]
        for j, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    parts.append(text[: j + 1])
                    return "".join(parts)
        parts.append(text)
    return "".join(parts)


def lint_file(path, raw_lines):
    findings = []
    # Pass 0: strip comments/strings; remember waivers per line.
    lines = []
    waived = {}  # line index -> set of waived rules
    pending = set()  # waivers on comment-only lines: apply to next code line
    in_block = False
    for idx, raw in enumerate(raw_lines):
        rules = {m.group(1) for m in ALLOW.finditer(raw)}
        clean, in_block = strip_noise(raw.rstrip("\n"), in_block)
        lines.append(clean)
        if clean.strip():
            if rules or pending:
                waived.setdefault(idx, set()).update(rules | pending)
            pending = set()
        else:
            pending |= rules

    def report(idx, rule, msg):
        if rule not in waived.get(idx, set()):
            findings.append(Finding(path, idx + 1, rule, msg))

    # Pass 1 prep: names declared std::atomic anywhere in this file.
    atomics = set()
    for clean in lines:
        for m in ATOMIC_DECL.finditer(clean):
            atomics.add(m.group(1))
    atomic_call = (
        re.compile(
            r"\b(" + "|".join(re.escape(a) for a in sorted(atomics)) + r")\.(" + ATOMIC_OPS + r")\s*(\()"
        )
        if atomics
        else None
    )

    # Function-scoped state, reset at every column-0 definition line.
    hazard_ok = False  # R2: saw a CommitMutex guard or a Hazards[] slot
    obs_gated = False  # R4: saw janusObs(
    depth = 0
    guard_stack = []  # R3: (mutex name, brace depth at acquisition)

    for idx, clean in enumerate(lines):
        if FUNC_START.match(clean) and depth == 0:
            hazard_ok = False
            obs_gated = False
            guard_stack = []

        # --- R3: maintain the guard stack before judging this line.
        opened = clean.count("{")
        closed = clean.count("}")

        gm = GUARD_DECL.search(clean)
        if gm:
            expr = gm.group(1)
            name = expr.split(".")[-1].split("->")[-1]
            tracked = name in HIERARCHY or name == "Mutex"
            if tracked and guard_stack:
                held = ", ".join(g[0] for g in guard_stack)
                report(
                    idx,
                    "lock-hierarchy",
                    f"acquiring {name} while holding {held} "
                    "(hierarchy is single-level; see ShardedRuntime.h)",
                )
            if tracked:
                guard_stack.append((name, depth))
        for mu in HIERARCHY:
            # Indexed per-shard mutexes (`Shards[i].CommitMutex`) use
            # the ascending-acquire / reverse-release multi-lock
            # protocol (DESIGN.md §11.3) that RAII cannot express.
            if re.search(rf"\b{mu}\s*\.\s*(?:lock|unlock)\s*\(", clean) and \
                    not re.search(rf"\]\s*\.\s*{mu}\s*\.", clean):
                report(
                    idx,
                    "lock-hierarchy",
                    f"manual {mu}.lock()/unlock(); use a scoped guard",
                )

        if re.search(r"\bjanusObs\s*\(", clean):
            obs_gated = True
        if re.search(r"\bCommitMutex\b", clean) and gm:
            hazard_ok = True
        if re.search(r"\bCommitMutex\s*\.\s*lock\s*\(", clean):
            hazard_ok = True
        # Publishing (or aliasing) a per-shard hazard slot protects
        # subsequent Published reads the same way.
        if re.search(r"\bHazards\s*\[", clean):
            hazard_ok = True

        # --- R2: snapshot-pointer read needs the hazard/guard first.
        for m in re.finditer(r"\bPublished\s*\.\s*load\s*\(", clean):
            if not hazard_ok:
                report(
                    idx,
                    "snapshot-hazard-scope",
                    "Published.load() without a preceding CommitMutex "
                    "guard or Hazards[] publication in this function",
                )

        # --- R1: atomic ops need an explicit memory order.
        if atomic_call:
            for m in atomic_call.finditer(clean):
                args = call_args(lines, idx, m.start(3))
                op = m.group(2)
                if "memory_order" not in args:
                    report(
                        idx,
                        "atomic-memory-order",
                        f"{m.group(1)}.{op}{args.strip()[:40]} lacks an "
                        "explicit std::memory_order",
                    )

        # --- R4: tracing calls only via the janusObs() gate.
        if re.search(r"->\s*(?:span|instant)\s*\(", clean) or re.search(
            r"(?:Latency|Wait)\s*\(\s*\)\s*\.\s*record\s*\(", clean
        ):
            if not obs_gated:
                report(
                    idx,
                    "obs-gating",
                    "tracing/metric call in a function that never went "
                    "through the janusObs() gate (JANUS_OBS=OFF would "
                    "still pay for it)",
                )

        depth += opened - closed
        if depth < 0:
            depth = 0
        # A guard declared at depth D dies when its block closes, i.e.
        # the moment depth drops below D.
        while guard_stack and guard_stack[-1][1] > depth:
            guard_stack.pop()

    return findings


SPEC_ENTRY = re.compile(r"\{AdtKind::(\w+),\s*&(\w+),\s*\"([^\"]+)\"\}")


def lint_spec_tables(repo_root):
    """R5: SpecTables[] entries constexpr/noexcept + verify coverage."""
    findings = []
    header = repo_root / "src" / "janus" / "conflict" / "SpecTable.h"
    if not header.exists():
        return findings
    try:
        text = header.read_text(encoding="utf-8")
    except OSError:
        return findings

    def line_of(substr):
        for i, line in enumerate(text.splitlines()):
            if substr in line:
                return i + 1
        return 1

    entries = SPEC_ENTRY.findall(text)
    if not entries:
        findings.append(
            Finding(
                str(header),
                line_of("SpecTables[]"),
                "spec-table-discipline",
                "SpecTables[] initializer not found or not parsable "
                "({AdtKind::K, &fn, \"name\"} entries expected)",
            )
        )
        return findings
    for _kind, fn, name in entries:
        decl = re.search(rf"^[^\n]*\bSpecVerdict\s+{fn}\s*\(", text, re.M)
        if not decl or "constexpr" not in decl.group(0):
            findings.append(
                Finding(
                    str(header),
                    line_of(f"SpecVerdict {fn}"),
                    "spec-table-discipline",
                    f"spec table '{name}' ({fn}) is not declared constexpr",
                )
            )
        head = text[decl.end():].split("{", 1)[0] if decl else ""
        if "noexcept" not in head:
            findings.append(
                Finding(
                    str(header),
                    line_of(f"SpecVerdict {fn}"),
                    "spec-table-discipline",
                    f"spec table '{name}' ({fn}) is not declared noexcept",
                )
            )
    verify_test = repo_root / "tests" / "verify_test.cpp"
    try:
        covered = "checkShippedSpecTables" in verify_test.read_text(
            encoding="utf-8"
        )
    except OSError:
        covered = False
    if not covered:
        findings.append(
            Finding(
                str(header),
                line_of("SpecTables[]"),
                "spec-table-discipline",
                "shipped SpecTables are not replayed by a verify test "
                "(tests/verify_test.cpp must call checkShippedSpecTables)",
            )
        )
    return findings


def main(argv):
    roots = [Path(a) for a in argv[1:]] or [Path("src"), Path("tools")]
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(sorted(root.rglob("*.h")))
            files.extend(sorted(root.rglob("*.cpp")))
        else:
            print(f"janus_lint: no such path: {root}", file=sys.stderr)
            return 2
    findings = []
    for f in files:
        try:
            raw = f.read_text(encoding="utf-8").splitlines()
        except OSError as e:
            print(f"janus_lint: cannot read {f}: {e}", file=sys.stderr)
            return 2
        findings.extend(lint_file(str(f), raw))
    findings.extend(lint_spec_tables(Path(__file__).resolve().parents[1]))
    for fi in findings:
        print(fi)
    print(
        f"janus_lint: {len(files)} files, {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
