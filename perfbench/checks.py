"""Correctness check: compare a CLI call's outputs with stored reference values.

A call's fingerprint holds its stdout and a reduced form of its summary.json:
per-group metric means are folded, per metric name, into a group count, a sum,
a position-weighted sum (so values moved between groups show) and a sum of
absolute values (the scale the tolerance is relative to).  Top-level summary
values are kept as they are.

Tolerances are chosen so that a change that only reorders floating-point
arithmetic passes and a wrong result does not:

- float sums and scalars: relative ``RTOL`` (1e-6) of their absolute scale;
  values that are pure roundoff (e.g. a beta = 0 response of ~1e-17) vanish
  into the scale of their metric;
- ``iterations`` (solver step counts, which can move by one step when a
  stopping test sits on its threshold): relative 5%;
- integers, booleans and strings: exact;
- numbers in printed text: integers exact, decimals within one unit of the
  last printed digit or ``RTOL``, whichever is larger;
- predicted labels: at most 0.1% of rows may differ (a row whose class scores
  tie to roundoff may flip), and the row count is exact.
"""

from __future__ import annotations

import base64
import json
import math
import os
import re
import zlib

RTOL = 1e-6
ATOL = 1e-12
METRIC_RTOL = {"iterations": 0.05}
LABEL_MISMATCH_SHARE = 0.001

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_WEIGHTS = 7


def fingerprint(subcommand: str, stdout: str, summary: dict) -> dict:
    """Reduced, comparable form of one call's stdout and summary.json."""
    if subcommand == "predict":
        labels = stdout.strip("\n")
        out = {"labels": base64.b64encode(zlib.compress(labels.encode(), 9)).decode()}
    else:
        out = {"stdout": stdout.strip()}
    reduced = {}
    for key, value in summary.items():
        if key == "groups":
            reduced["groups.count"] = len(value)
            for position, label in enumerate(sorted(value)):
                weight = 1 + position % _WEIGHTS
                for metric, number in value[label].items():
                    agg = reduced.setdefault(f"groups.*.{metric}", [0, 0.0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += number
                    agg[2] += weight * number
                    agg[3] += abs(number)
        else:
            reduced[key] = value
    out["summary"] = reduced
    return out


def _close(expected: float, actual: float, rtol: float, scale: float) -> bool:
    return math.isfinite(actual) and abs(actual - expected) <= rtol * scale + ATOL


def _metric_rtol(key: str) -> float:
    return METRIC_RTOL.get(key.rsplit(".", 1)[-1], RTOL)


def compare_text(expected: str, actual: str) -> list[str]:
    """Compare printed text: words exactly, numbers within their printed precision."""
    exp_words, act_words = _NUMBER.split(expected), _NUMBER.split(actual)
    exp_nums, act_nums = _NUMBER.findall(expected), _NUMBER.findall(actual)
    if exp_words != act_words or len(exp_nums) != len(act_nums):
        return [f"text {actual[:80]!r} != reference {expected[:80]!r}"]
    problems = []
    for exp, act in zip(exp_nums, act_nums):
        if re.fullmatch(r"[-+]?\d+", exp):
            ok = exp == act
        else:
            mantissa = exp.lower().split("e")[0]
            decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
            exponent = int(exp.lower().split("e")[1]) if "e" in exp.lower() else 0
            ulp = 10.0 ** (exponent - decimals)
            ok = abs(float(act) - float(exp)) <= max(RTOL * abs(float(exp)), 1.01 * ulp)
        if not ok:
            problems.append(f"printed {act} != reference {exp}")
    return problems


def _compare_labels(expected: str, actual: str) -> list[str]:
    exp = zlib.decompress(base64.b64decode(expected)).decode().split("\n")
    act = zlib.decompress(base64.b64decode(actual)).decode().split("\n")
    if len(exp) != len(act):
        return [f"{len(act)} predicted rows != reference {len(exp)}"]
    differing = sum(a != b for a, b in zip(exp, act))
    if differing > LABEL_MISMATCH_SHARE * len(exp):
        return [f"{differing} of {len(exp)} predicted labels differ from the reference"]
    return []


def compare(expected: dict, actual: dict) -> list[str]:
    """Problems found comparing a fingerprint with its reference (empty when it matches)."""
    problems = []
    if "labels" in expected:
        problems += _compare_labels(expected["labels"], actual.get("labels", ""))
    else:
        problems += compare_text(expected["stdout"], actual.get("stdout", ""))
    exp_sum, act_sum = expected["summary"], actual["summary"]
    if sorted(exp_sum) != sorted(act_sum):
        return problems + [f"summary keys {sorted(act_sum)} != reference {sorted(exp_sum)}"]
    for key, exp in exp_sum.items():
        act = act_sum[key]
        rtol = _metric_rtol(key)
        if isinstance(exp, list):
            n, total, weighted, scale = exp
            ok = (
                act[0] == n
                and _close(total, act[1], rtol, scale)
                and _close(weighted, act[2], rtol, _WEIGHTS * scale)
                and _close(scale, act[3], rtol, scale)
            )
        elif key == "headline":
            problems += compare_text(exp, act)
            continue
        elif isinstance(exp, float) and isinstance(act, (int, float)) and not isinstance(act, bool):
            ok = _close(exp, float(act), rtol, abs(exp))
        else:
            ok = type(exp) is type(act) and exp == act
        if not ok:
            problems.append(f"summary {key}: {act!r} != reference {exp!r}")
    return problems


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
