#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it checks that a timed run prints every end-to-end
metric of ``BENCHMARK.json`` with its unit and passes its output
checks, that a traced run prints every per-layer metric with a valid
span tree, and that an output check fed a corrupted result (a flipped
byte in a downloaded file, a reversed message body, a changed event
count) makes the run fail. Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run
from workloads import TINY, WORKLOADS

SECONDS = 0.01  # every workload then runs its minimum op count


def _declared(kind: str):
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _quiet(fn, *args):
    """Call ``fn`` with its report lines captured instead of printed."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        result = fn(*args)
    return result, out.getvalue()


def _units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


class _BumpedDigest:
    """An engine result whose determinism digest counts one event too many."""

    def __init__(self, result):
        self._result = result

    def __getattr__(self, name):
        return getattr(self._result, name)

    def determinism_digest(self):
        digest = self._result.determinism_digest()
        digest["events"] += 1
        return digest


def _reversed_body(message):
    stanza = message.stanza
    children = tuple((tag, text[::-1] if tag == "body" else text) for tag, text in stanza.children)
    return dataclasses.replace(message, stanza=dataclasses.replace(stanza, children=children))


def _damage(name: str, result):
    """``result`` of one op of workload ``name``, damaged."""
    if name == "chat-small":
        return [_reversed_body(message) for message in result]
    if name == "filedrop-bulk":
        received, stored, deleted = result
        return bytes([received[0] ^ 0xFF]) + received[1:], stored, deleted
    return _BumpedDigest(result)


def _corrupted(workload):
    """``workload`` with the output of its first op damaged before the check."""
    op = workload.op

    def damaged(state, i, **kwargs):
        result, elapsed = op(state, i, **kwargs)
        return (_damage(workload.name, result) if i == 0 else result), elapsed

    workload.op = damaged
    return workload


def main() -> int:
    run.import_program()
    end_to_end, per_layer = _declared("end_to_end"), _declared("per_layer")
    problems = []
    for name, cls in sorted(WORKLOADS.items()):
        timed, report = _quiet(run.timed_run, cls(1, TINY, run.CACHE), SECONDS)
        if _units(timed) != end_to_end:
            problems.append(f"{name}: end-to-end metrics {_units(timed)} != {end_to_end}")
        if not timed["correct"] or timed["failed"]:
            problems.append(f"{name}: timed run failed its checks:\n{report}")

        traced, report = _quiet(run.traced_run, cls(1, TINY, run.CACHE), SECONDS)
        if _units(traced) != per_layer:
            problems.append(f"{name}: per-layer metrics differ from BENCHMARK.json")
        if not traced["correct"] or "tree errors: 0;" not in report:
            problems.append(f"{name}: traced run failed its checks:\n{report}")

        corrupted, report = _quiet(run.timed_run, _corrupted(cls(1, TINY, run.CACHE)), SECONDS)
        if corrupted["correct"] or not corrupted["failed"] or " raised " in report:
            problems.append(f"{name}: a corrupted output did not fail its check:\n{report}")
        print(f"{name}: ok" if not problems else f"{name}: {len(problems)} problem(s) so far")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: OK" if not problems else "smoke: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
