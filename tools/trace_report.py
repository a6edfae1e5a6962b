#!/usr/bin/env python3
"""Aggregates a gpupower Chrome-trace JSON file (GPUPOWER_TRACE /
`gpowerctl --trace-out`) into where-did-the-time-go tables:

  by span name      count, total, SELF time (total minus direct children),
                    mean and max duration per distinct span name;
  by scenario       the same totals grouped by the scenario canonical key
                    each span carries in args.key (engine.submit /
                    queue.wait / replica.* / activity.memo / reduce.* /
                    store.* spans are attributed).  A span without a key
                    inherits the key of the span enclosing it on the same
                    thread, so a replica's stages (inputs.build and its
                    inputs.* sub-spans, activity.estimate) count under
                    the replica's scenario.  Spans with no keyed ancestor
                    are reported as a remainder line.

Self time uses the exporter's guarantees (ts-sorted events, proper
per-tid nesting — see tools/check_trace.py): a per-thread stack charges
every span's duration against its direct parent, so a parent's self time
is what IT spent, not what its subtree spent.  Spans in
CROSS_THREAD_SPANS (queue.wait) are stamped on a different thread than
their ring and never nest; they aggregate by name but are exempt from the
stack.

Scenario keys are kind-prefixed canonical keys
('fleet\\x1f{"scenario":"fleet","experiment":{...},...}', the compact
normalised spec JSON, a few KB for fleet specs) — tables show the kind
plus a stable 12-hex digest and a clipped preview; --json emits the full
keys.

Usage:
  tools/trace_report.py TRACE.json [--top N] [--json] [--out FILE]
                        [--min-scenarios N]
  tools/trace_report.py --selftest

Exit codes: 0 ok, 1 malformed trace or unmet --min-scenarios, 2 usage /
unreadable input.  CI runs this over the traced fleet_capping smoke
(--min-scenarios asserts the attribution pipeline end to end) and uploads
the --out document next to the trace; the --selftest (exact self-time
arithmetic on synthetic traces) runs as an ordinary ctest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

# Keep in sync with tools/check_trace.py: sub-quantum spans collapse to
# equal float microsecond stamps (slack, µs), and these spans are stamped
# cross-thread so they never take part in per-tid nesting.
EPSILON_US = 1e-3
CROSS_THREAD_SPANS = {"queue.wait"}

# The scenario-key kind separator (core canonical_scenario_key): the key
# is "<kind>\x1f<normalised spec JSON>".
KIND_SEPARATOR = "\x1f"


def fail(path: str, message: str) -> None:
    print(f"trace_report: {path}: {message}", file=sys.stderr)


class Aggregate:
    """Count / total / self / max accumulator for one group."""

    __slots__ = ("count", "total_us", "self_us", "max_us")

    def __init__(self) -> None:
        self.count = 0
        self.total_us = 0.0
        self.self_us = 0.0
        self.max_us = 0.0

    def add(self, dur_us: float, self_us: float) -> None:
        self.count += 1
        self.total_us += dur_us
        self.self_us += self_us
        self.max_us = max(self.max_us, dur_us)


class Report:
    def __init__(self) -> None:
        self.events = 0
        self.by_name: dict[str, Aggregate] = {}
        self.by_key: dict[str, Aggregate] = {}
        self.unattributed_self_us = 0.0

    def record(self, name: str, key: str | None, dur_us: float,
               self_us: float) -> None:
        self.by_name.setdefault(name, Aggregate()).add(dur_us, self_us)
        if key is not None:
            self.by_key.setdefault(key, Aggregate()).add(dur_us, self_us)
        else:
            self.unattributed_self_us += self_us


def analyze(doc: object, path: str) -> Report | None:
    """Builds the aggregates; returns None on a malformed document.

    Validation here is shape-only (check_trace.py is the full validator):
    enough to guarantee the stack arithmetic below is well-defined.
    """
    if not isinstance(doc, dict) or not isinstance(
        doc.get("traceEvents"), list
    ):
        fail(path, "not a Chrome-trace document (missing traceEvents list)")
        return None

    report = Report()
    # Per-tid stack of open frames [end_us, name, key, self_us, dur_us];
    # events arrive ts-sorted, so a new span either closes the innermost
    # frames or nests inside the top one.
    stacks: dict[int, list[list]] = {}

    def close(frame: list) -> None:
        report.record(frame[1], frame[2], frame[4], max(frame[3], 0.0))

    for i, event in enumerate(doc["traceEvents"]):
        if not isinstance(event, dict):
            fail(path, f"traceEvents[{i}]: not an object")
            return None
        name = event.get("name")
        ts = event.get("ts")
        dur = event.get("dur")
        if (
            not isinstance(name, str)
            or not isinstance(ts, (int, float))
            or not isinstance(dur, (int, float))
            or dur < 0
        ):
            fail(path, f"traceEvents[{i}]: malformed span record")
            return None
        report.events += 1
        args = event.get("args")
        key = args.get("key") if isinstance(args, dict) else None
        if key is not None and not isinstance(key, str):
            key = None

        if name in CROSS_THREAD_SPANS:
            report.record(name, key, dur, dur)
            continue
        end = ts + dur
        stack = stacks.setdefault(event.get("tid", 0), [])
        while stack and ts >= stack[-1][0] - EPSILON_US:
            close(stack.pop())
        if stack:
            stack[-1][3] -= dur  # charge the direct parent
            if key is None:
                key = stack[-1][2]  # attribute under the enclosing span
        stack.append([end, name, key, dur, dur])
    for stack in stacks.values():
        while stack:
            close(stack.pop())
    return report


def key_kind(key: str) -> str:
    return key.split(KIND_SEPARATOR, 1)[0]


def key_label(key: str) -> str:
    """Stable short form of a canonical key: kind + 12-hex digest."""
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]
    return f"{key_kind(key)}:{digest}"


def sorted_items(groups: dict[str, Aggregate]) -> list[tuple[str, Aggregate]]:
    return sorted(groups.items(), key=lambda kv: -kv[1].self_us)


def print_table(title: str, headers: list[str],
                rows: list[list[str]]) -> None:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    print(f"\n{title}")
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def print_report(report: Report, path: str, top: int) -> None:
    print(
        f"trace_report: {path}: {report.events} event(s), "
        f"{len(report.by_name)} span name(s), "
        f"{len(report.by_key)} scenario key(s)"
    )
    name_rows = [
        [
            name,
            str(agg.count),
            f"{agg.total_us / 1e3:.3f}",
            f"{agg.self_us / 1e3:.3f}",
            f"{agg.total_us / agg.count / 1e3:.3f}",
            f"{agg.max_us / 1e3:.3f}",
        ]
        for name, agg in sorted_items(report.by_name)[:top]
    ]
    print_table(
        f"by span name (top {min(top, len(report.by_name))} by self time)",
        ["span", "count", "total ms", "self ms", "mean ms", "max ms"],
        name_rows,
    )
    if report.by_key:
        key_rows = [
            [
                key_label(key),
                str(agg.count),
                f"{agg.total_us / 1e3:.3f}",
                f"{agg.self_us / 1e3:.3f}",
            ]
            for key, agg in sorted_items(report.by_key)[:top]
        ]
        print_table(
            f"by scenario (top {min(top, len(report.by_key))} by self time)",
            ["scenario", "spans", "total ms", "self ms"],
            key_rows,
        )
        print(
            f"\nunattributed self time: "
            f"{report.unattributed_self_us / 1e3:.3f} ms"
        )


def report_json(report: Report, path: str) -> dict:
    return {
        "trace": path,
        "events": report.events,
        "by_name": [
            {
                "name": name,
                "count": agg.count,
                "total_us": agg.total_us,
                "self_us": agg.self_us,
                "max_us": agg.max_us,
            }
            for name, agg in sorted_items(report.by_name)
        ],
        "by_scenario": [
            {
                "key": key,
                "kind": key_kind(key),
                "label": key_label(key),
                "count": agg.count,
                "total_us": agg.total_us,
                "self_us": agg.self_us,
            }
            for key, agg in sorted_items(report.by_key)
        ],
        "unattributed_self_us": report.unattributed_self_us,
    }


def selftest() -> int:
    def span(name, ts, dur, tid=1, key=None, **extra):
        event = {
            "name": name,
            "cat": "gpupower",
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": ts,
            "dur": dur,
        }
        args = dict(extra)
        if key is not None:
            args["key"] = key
        if args:
            event["args"] = args
        return event

    k1 = "fleet\x1fgpu=a100;cap=415.2"
    k2 = "static\x1fgpu=h100"
    doc = {
        "traceEvents": [
            # tid 1: submit(k1) with nested store.read + reduce; the
            # grandchild chain a>b>c checks transitive self-time charging.
            span("engine.submit", 0.0, 100.0, key=k1, kind="fleet"),
            span("store.read", 10.0, 20.0, key=k1),
            span("reduce.fleet", 50.0, 30.0, key=k1, replicas=2),
            span("a", 200.0, 100.0),
            span("b", 210.0, 80.0),
            span("c", 220.0, 10.0),
            # tid 2: one attributed replica, one cross-thread queue.wait
            # of k1's next seed overlapping it (exempt from nesting, full
            # dur is self), and a second scenario key.
            span("replica.fleet", 0.0, 40.0, tid=2, key=k1, seed=0),
            span("queue.wait", 5.0, 60.0, tid=2, key=k1, seed=1),
            span("engine.submit", 80.0, 10.0, tid=2, key=k2, kind="static"),
            # tid 3: a static replica of k2 whose memo miss builds inputs
            # and walks activity; the unkeyed stage spans inherit k2.
            span("replica.static", 300.0, 100.0, tid=3, key=k2, seed=0),
            span("activity.memo", 305.0, 90.0, tid=3, key=k2, seed=0,
                 outcome="miss"),
            span("inputs.build", 310.0, 60.0, tid=3),
            span("inputs.generate", 312.0, 20.0, tid=3),
            span("inputs.place", 335.0, 30.0, tid=3),
            span("activity.estimate", 372.0, 20.0, tid=3),
        ],
        "displayTimeUnit": "ms",
        "otherData": {"dropped": 0},
    }

    report = analyze(doc, "<selftest>")
    checks = []

    def expect(label: str, actual, wanted) -> None:
        checks.append((label, actual, wanted))

    if report is None:
        print("trace_report: selftest: synthetic trace rejected")
        return 1
    expect("events", report.events, 15)
    submit = report.by_name["engine.submit"]
    expect("submit.count", submit.count, 2)
    expect("submit.total", submit.total_us, 110.0)
    # 100 - 20 (store.read) - 30 (reduce) = 50, plus the bare 10 on tid 2.
    expect("submit.self", submit.self_us, 60.0)
    expect("a.self", report.by_name["a"].self_us, 20.0)
    expect("b.self", report.by_name["b"].self_us, 70.0)
    expect("c.self", report.by_name["c"].self_us, 10.0)
    expect("queue.wait.self", report.by_name["queue.wait"].self_us, 60.0)
    # k1: submit 50 + store.read 20 + reduce 30 + replica 40 + queue.wait
    # 60.
    expect("k1.self", report.by_key[k1].self_us, 200.0)
    expect("k1.count", report.by_key[k1].count, 5)
    # k2: submit 10 + replica 10 + memo 10 + inputs.build 10 + generate
    # 20 + place 30 + activity.estimate 20.
    expect("k2.self", report.by_key[k2].self_us, 110.0)
    expect("k2.count", report.by_key[k2].count, 7)
    expect("inputs.build.self", report.by_name["inputs.build"].self_us, 10.0)
    expect("inputs.place.self", report.by_name["inputs.place"].self_us, 30.0)
    # Only a/b/c (100 total) have no keyed ancestor.
    expect("unattributed", report.unattributed_self_us, 100.0)
    expect("k1.kind", key_kind(k1), "fleet")
    expect("k1.label", key_label(k1).startswith("fleet:"), True)

    bad = [
        ({"traceEvents": {}}, "traceEvents not a list"),
        ({"traceEvents": [{"name": "a", "ts": 0.0}]}, "missing dur"),
        ({"traceEvents": [{"name": "a", "ts": 0.0, "dur": -1.0}]},
         "negative dur"),
    ]
    ok = True
    for label, actual, wanted in checks:
        if isinstance(wanted, float):
            good = abs(actual - wanted) < 1e-6
        else:
            good = actual == wanted
        if not good:
            print(
                f"trace_report: selftest: {label} = {actual!r}, "
                f"want {wanted!r}"
            )
            ok = False
    for i, (document, label) in enumerate(bad):
        if analyze(document, f"<selftest bad {i}>") is not None:
            print(f"trace_report: selftest: bad case {i} ({label}) accepted")
            ok = False
    print(f"trace_report: selftest {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Aggregate a gpupower trace into self-time tables."
    )
    parser.add_argument("trace", nargs="?", help="trace file to analyze")
    parser.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows per table (default 20)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full JSON report instead of tables",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="also write the JSON report to FILE",
    )
    parser.add_argument(
        "--min-scenarios", type=int, default=0, metavar="N",
        help="fail unless at least N scenario keys were attributed",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="check the self-time arithmetic on synthetic traces and exit",
    )
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.trace:
        parser.error("a trace file (or --selftest) is required")
    try:
        with open(args.trace, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(args.trace, f"cannot read: {e}")
        return 2
    except json.JSONDecodeError as e:
        fail(args.trace, f"invalid JSON: {e}")
        return 1
    report = analyze(doc, args.trace)
    if report is None:
        return 1

    document = report_json(report, args.trace)
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        print_report(report, args.trace, args.top)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(document, f, indent=2)
            f.write("\n")
        print(f"trace_report: wrote {args.out}", file=sys.stderr)
    if len(report.by_key) < args.min_scenarios:
        fail(
            args.trace,
            f"only {len(report.by_key)} scenario key(s) attributed "
            f"(--min-scenarios {args.min_scenarios})",
        )
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Output piped into head/less and closed early: not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
