#!/usr/bin/env python3
"""Validate janus observability artifacts: Chrome trace-event JSON
files produced by `janus run --trace-out` (janus::obs; DESIGN.md §8)
and binary `.jrec` flight-recorder dumps produced by `--record-out`
(obs/Recorder.h; DESIGN.md §13). Files ending in `.jrec` get the
binary checks; everything else is treated as a trace.

Trace checks, in order:
  - the file parses as JSON and has the expected top-level shape
    (`schema_version`, `traceEvents` array, `displayTimeUnit`);
  - every event's name is a member of the span taxonomy (unknown event
    types are how exporter/instrumentation drift shows up first);
  - every event's phase is one that the exporter is allowed to emit
    ('X' complete, 'i' instant, 'M' metadata) and carries the fields
    that phase requires (non-negative ts/dur, instant scope);
  - begin/end phases ('B'/'E'), which the exporter must never emit,
    are flagged as unclosed-span bugs if they appear unbalanced (and
    as drift if they appear at all).

`.jrec` checks, in order:
  - fixed prefix (magic "JREC", version 1) and the FNV-1a-64 trailer
    checksum over everything before it;
  - the flat JSON header parses and carries every key replay needs;
  - the event count ties out exactly against the file size (40-byte
    records, nothing trailing but the checksum);
  - every record has a known kind, a known abort reason, a lane within
    the recorded lane count, and a strictly increasing global sequence
    number;
  - commit clocks form overlaid dense sequences off a common base (a
    single run gives exactly 1..N; serve dumps overlay one dense
    sequence per batch, so clock multiplicities must be contiguous and
    non-increasing — a hole means events were lost).

Usage: check_trace.py FILE [FILE2 ...]
Exit status: 0 when every file passes, 1 otherwise.

Stdlib only; used by tools/ci.sh (obs and replay stages) and by hand.
"""

import json
import struct
import sys

# The span taxonomy of DESIGN.md §8 (run spans plus the trainer's
# offline-phase spans) plus the metadata records naming the lanes.
# Anything else in a trace is drift between the engines'
# instrumentation and this contract.
SPAN_NAMES = {
    "begin", "body", "turn-wait", "detect", "replay", "commit",
    "backoff", "serial", "sat",
    "train-exec", "train-mine", "train-relax", "train-pairs",
    "train-verify",
}
INSTANT_NAMES = {"abort", "validate-fail"}
METADATA_NAMES = {"process_name", "thread_name"}
KNOWN_PHASES = {"X", "i", "M", "B", "E", "C"}
# Counter tracks ('C', pid 2) come from obs::counterTrackEvents: one
# track per hot location, named "contention:<location>".
COUNTER_PREFIX = "contention:"


# .jrec constants, mirroring obs/Recorder.cpp (the format contract).
JREC_MAGIC = b"JREC"
JREC_VERSION = 1
JREC_EVENT_BYTES = 40
JREC_KINDS = {1: "begin", 2: "commit", 3: "abort", 4: "shard-acquire",
              5: "escalation", 6: "cancel", 7: "serve-tag"}
JREC_ABORT_REASONS = {1, 2, 3, 4}  # conflict, injected, exception, cancelled
JREC_HEADER_KEYS = {
    "workload", "engine", "seed", "threads", "shards", "production",
    "rounds", "detector", "abstraction", "fallback", "faults", "reason",
    "written", "overwritten", "lanes", "sample_every",
}


def fnv1a64(data):
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def check_jrec(path):
    """Returns a list of error strings for the .jrec dump at *path*."""
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        return [f"{path}: unreadable: {e}"]

    if len(data) < 12 + 8 + 8:
        return [f"{path}: truncated (shorter than any valid .jrec)"]
    if data[:4] != JREC_MAGIC:
        return [f"{path}: bad magic (not a .jrec file)"]
    version, header_len = struct.unpack_from("<II", data, 4)
    if version != JREC_VERSION:
        return [f"{path}: unsupported version {version}"]

    want = struct.unpack_from("<Q", data, len(data) - 8)[0]
    if fnv1a64(data[:-8]) != want:
        return [f"{path}: checksum mismatch (corrupt or truncated)"]

    if 12 + header_len + 8 + 8 > len(data):
        return [f"{path}: header length exceeds file size"]
    try:
        header = json.loads(data[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        return [f"{path}: malformed header: {e}"]
    if not isinstance(header, dict):
        return [f"{path}: header is not a JSON object"]
    for key in sorted(JREC_HEADER_KEYS - header.keys()):
        err(f"header is missing {key!r}")

    pos = 12 + header_len
    count = struct.unpack_from("<Q", data, pos)[0]
    pos += 8
    if pos + count * JREC_EVENT_BYTES + 8 != len(data):
        err(f"event count {count} does not match the file size")
        return errors

    lanes = header.get("lanes", 0)
    written = header.get("written", 0)
    if isinstance(written, int) and count > written:
        err(f"{count} events but the header says only {written} were "
            f"written")

    kind_counts = {}
    commit_clocks = []
    prev_seq = 0
    for i in range(count):
        seq, clock, _time_us, _tid, _attempt, aux, kind, _mode, lane = \
            struct.unpack_from("<QQQIIIBBH", data, pos)
        pos += JREC_EVENT_BYTES
        if kind not in JREC_KINDS:
            err(f"event #{i}: unknown kind {kind}")
            continue
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        if seq <= prev_seq:
            err(f"event #{i}: sequence {seq} not strictly increasing "
                f"(previous {prev_seq})")
        prev_seq = seq
        if kind == 3 and aux not in JREC_ABORT_REASONS:
            err(f"event #{i}: unknown abort reason {aux}")
        if isinstance(lanes, int) and lanes > 0 and lane >= lanes:
            err(f"event #{i}: lane {lane} out of range (header says "
                f"{lanes} lanes)")
        if kind == 2:
            commit_clocks.append(clock)

    # Commit clocks: each engine run stamps a dense sequence from a
    # common base, so the overlay of every run in the dump must cover a
    # contiguous clock range with non-increasing multiplicities (serve
    # dumps overlay one run per batch; a gap means lost events).
    if commit_clocks:
        lo, hi = min(commit_clocks), max(commit_clocks)
        mult = {}
        for c in commit_clocks:
            mult[c] = mult.get(c, 0) + 1
        prev = None
        for c in range(lo, hi + 1):
            n = mult.get(c, 0)
            if n == 0:
                err(f"commit clock {c} missing from the dense range "
                    f"[{lo}, {hi}]")
                break
            if prev is not None and n > prev:
                err(f"commit clock {c} occurs {n} times, more than "
                    f"clock {c - 1} ({prev}) — not an overlay of dense "
                    f"sequences")
                break
            prev = n

    if not errors:
        shape = ", ".join(f"{kind_counts.get(k, 0)} {v}"
                          for k, v in sorted(JREC_KINDS.items())
                          if kind_counts.get(k, 0))
        print(f"{path}: OK ({count} events: {shape}; workload "
              f"{header.get('workload')!r}, reason "
              f"{header.get('reason')!r})")
    return errors


def check_file(path):
    """Returns a list of error strings for the trace at *path*."""
    if path.endswith(".jrec"):
        return check_jrec(path)
    errors = []

    def err(msg, idx=None):
        where = f"{path}" if idx is None else f"{path}: event #{idx}"
        errors.append(f"{where}: {msg}")

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]
    if not isinstance(doc.get("schema_version"), int):
        err("missing integer schema_version")
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        err(f"bad displayTimeUnit {doc.get('displayTimeUnit')!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        err("traceEvents missing or not an array")
        return errors

    open_spans = {}  # (pid, tid) -> list of begin names.
    counts = {"X": 0, "i": 0, "M": 0, "C": 0}
    for idx, ev in enumerate(events):
        if not isinstance(ev, dict):
            err("event is not an object", idx)
            continue
        name = ev.get("name")
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            err(f"unknown phase {ph!r} (name {name!r})", idx)
            continue

        if ph == "M":
            if name not in METADATA_NAMES:
                err(f"unknown metadata record {name!r}", idx)
            continue

        counts[ph] = counts.get(ph, 0) + 1
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            err(f"{name!r} has bad ts {ts!r}", idx)

        if ph == "X":
            if name not in SPAN_NAMES:
                err(f"unknown span type {name!r}", idx)
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                err(f"span {name!r} has bad dur {dur!r}", idx)
        elif ph == "i":
            if name not in INSTANT_NAMES:
                err(f"unknown instant type {name!r}", idx)
        elif ph == "C":
            if not (isinstance(name, str)
                    and name.startswith(COUNTER_PREFIX)):
                err(f"unknown counter track {name!r}", idx)
            if ev.get("pid") != 2:
                err(f"counter {name!r} not on the counter process "
                    f"(pid 2)", idx)
            if not isinstance(ev.get("args"), dict):
                err(f"counter {name!r} has no args object", idx)
        elif ph == "B":
            open_spans.setdefault((ev.get("pid"), ev.get("tid")),
                                  []).append(name)
        elif ph == "E":
            stack = open_spans.get((ev.get("pid"), ev.get("tid")), [])
            if not stack:
                err(f"end event {name!r} closes nothing", idx)
            else:
                stack.pop()

    for (pid, tid), stack in open_spans.items():
        for name in stack:
            errors.append(f"{path}: unclosed span {name!r} on "
                          f"pid={pid} tid={tid}")

    if counts["X"] + counts["i"] == 0:
        err("trace contains no spans or instants at all")
    if not errors:
        print(f"{path}: OK ({counts['X']} spans, {counts['i']} instants, "
              f"{len(events)} events)")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        for e in check_file(path):
            print(e, file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
