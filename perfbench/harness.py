"""Run a workload's CLI calls in process and check every call's outputs."""

from __future__ import annotations

import io
import json
import os
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import checks


class Session:
    """Runs one workload's call sequence repeatedly and checks every call.

    The first run of each call is compared with its reference fingerprint
    (``reference`` maps step label to fingerprint; ``None`` skips the
    comparison, which only ``make_reference.py`` does).  Every later run of the
    call must reproduce the first run's stdout, results.csv and summary.json
    byte for byte, since its inputs and seed are the same.  A call fails on a
    non-zero exit code or on any mismatch.
    """

    def __init__(self, cli, steps, reference):
        self.cli = cli
        self.steps = steps
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprints: dict[str, dict] = {}
        self.work: dict[str, int] = {}
        self._first: dict[str, tuple] = {}

    def run_sweep(self, tracer=None) -> dict[str, float]:
        """Run every call once; return wall seconds per step label and for the whole ``sweep``."""
        times, results = {}, []
        sweep_start = time.perf_counter()
        for step in self.steps:
            out, err = io.StringIO(), io.StringIO()
            span = tracer.span(f"bench.{step.label}") if tracer else nullcontext()
            start = time.perf_counter()
            with span, redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(step.argv))
            times[step.label] = time.perf_counter() - start
            results.append((step, code, out.getvalue(), err.getvalue()))
        times["sweep"] = time.perf_counter() - sweep_start
        for result in results:
            self._check(*result)
        return times

    def _check(self, step, code, stdout, stderr) -> None:
        self.attempted += 1
        problems = self._problems(step, code, stdout, stderr)
        if problems:
            self.failed += 1
            self.problems += [f"{step.label}: {p}" for p in problems]

    def _problems(self, step, code, stdout, stderr) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-400:]}"]
        outputs = [stdout]
        try:
            for name in ("results.csv", "summary.json"):
                path = os.path.join(step.output_dir, name)
                with open(path, "rb") as fh:
                    outputs.append(fh.read())
                # Removed once read, so a later run that fails to write it cannot pass on stale output.
                os.remove(path)
        except OSError as exc:
            return [f"missing output: {exc}"]
        first = self._first.get(step.label)
        if first is None:
            problems = self._first_run(step, stdout, json.loads(outputs[2]))
            self._first[step.label] = (outputs, problems)
            return problems
        if outputs != first[0]:
            return ["outputs differ from the first run with the same inputs"]
        return first[1]

    def _first_run(self, step, stdout, summary) -> list[str]:
        fingerprint = checks.fingerprint(step.argv[0], stdout, summary)
        self.fingerprints[step.label] = fingerprint
        # Work done per call: rows x epochs for train, rows for predict.
        self.work[step.label] = step.rows * summary.get("epochs_run", 1)
        if self.reference is None:
            return []
        expected = self.reference.get(step.label)
        if expected is None:
            return ["no reference values for this call"]
        return checks.compare(expected, fingerprint)


def timed_sweeps(session: Session, seconds: float, min_sweeps: int, tracer=None, after_sweep=None):
    """Run sweeps until ``seconds`` have passed and at least ``min_sweeps`` ran."""
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < min_sweeps or time.perf_counter() < deadline:
        samples.append(session.run_sweep(tracer))
        if after_sweep is not None:
            after_sweep()
    return samples
