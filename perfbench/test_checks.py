"""Each check of the benchmark rejects a deliberately wrong answer.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import epsdelta as ed  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402
from epsdelta import _kernels  # noqa: E402

STEP = 1.0 / (wl.RESOLUTION - 1)


def test_grid_check_rejects_delta_nudged_below_closed_form():
    spec = wl.power_spec(2.0, 1.0)
    q = wl.grid_query("grid-power", spec, 0.3)
    sample = q.run()
    q.check(sample)
    exact = ref.power_delta(2.0, 1.0, 0.3)
    nudged = ed.DeltaSample(0.3, exact * (1.0 - 1e-7), ed.METHOD_GRID, ed.BIAS_UPPER_BOUND)
    with pytest.raises(ref.Wrong):
        q.check(nudged)
    too_far = ed.DeltaSample(0.3, exact + 3.0 * STEP, ed.METHOD_GRID, ed.BIAS_UPPER_BOUND)
    with pytest.raises(ref.Wrong):
        q.check(too_far)


def test_sawtooth_exact_tolerance_meets_closed_form_at_jumps():
    for n in range(1, 12):
        got = ref.pwl_delta(ref.chainsaw_points(1.0 / n), 1.0 / n)
        assert got == pytest.approx(ref.chainsaw_jump_delta(n), rel=1e-12)


def test_bracket_check_rejects_bracket_shifted_off_root():
    f = ed.polynomial_function([0.0, 0.0, 0.0, 1.0], ed.Interval(0.0, 2.0))
    trace = ed.classical_ivt(f, 2.0, 30)
    check = wl.bracket_check(0.0, 2.0, ref.cube_root(2.0), 1e-15)
    check(trace)
    a, b = trace.final_bracket
    trace.final_bracket = (a + 2.0 * (b - a), b + 2.0 * (b - a))
    with pytest.raises(ref.Wrong):
        check(trace)


def test_bracket_check_rejects_wrong_width():
    f = ed.polynomial_function([0.0, 0.0, 0.0, 1.0], ed.Interval(0.0, 2.0))
    trace = ed.classical_ivt(f, 2.0, 30)
    trace.error_bound *= 2.0
    with pytest.raises(ref.Wrong):
        wl.bracket_check(0.0, 2.0, ref.cube_root(2.0), 1e-15)(trace)


def test_finite_check_rejects_delta_from_wrong_pair():
    rng = random.Random(5)
    xs = sorted(rng.random() for _ in range(40))
    values = [rng.random() for _ in range(40)]
    eps = 0.6
    q = wl.finite_query(xs, values, eps)
    q.check(q.run())
    best, bi, bj = ref.finite_delta(xs, values, eps)
    other = min(abs(xs[i] - xs[j]) for i in range(40) for j in range(i + 1, 40)
                if abs(values[i] - values[j]) >= eps and (i, j) != (bi, bj)
                and abs(xs[i] - xs[j]) != best)
    wrong = ed.DeltaSample(eps, other, ed.METHOD_EXHAUSTIVE, ed.BIAS_EXACT)
    with pytest.raises(ref.Wrong):
        q.check(wrong)


def test_rerun_check_rejects_differing_bytes():
    first = b'{\n  "delta": 0.1\n}\n'
    wl.check_rerun(first, hashlib.sha256(first).hexdigest())
    rerun = b'{\n  "delta": 0.10000000000000001\n}\n'
    with pytest.raises(ref.Wrong):
        wl.check_rerun(first, hashlib.sha256(rerun).hexdigest())


def test_refinement_check_rejects_bound_below_sup():
    trace, _ = wl.spike_query().run()
    with pytest.raises(ref.Wrong):
        wl.check_refinement(trace, 0.99, 12, 1.0)


def test_kernel_references_match_kernels_with_ties():
    rng = np.random.default_rng(3)
    for n in (2, 7, 50, 300):
        x = np.unique(np.round(rng.random(n) * 64) / 64)  # repeated spacings give ties
        fx = np.round(rng.random(x.size) * 8) / 8
        for eps in (0.125, 0.5, 0.875, 2.0):
            assert _kernels.min_dist_pair(x, fx, eps) == ref.min_dist_pair_ref(x, fx, eps)
            assert _kernels.find_violation(x, fx, eps, 0.2) == \
                ref.find_violation_ref(x, fx, eps, 0.2)
        for delta in (0.0, 1 / 64, 0.2, 1.0):
            assert _kernels.max_gap_within(x, fx, delta) == ref.max_gap_within_ref(x, fx, delta)


def test_failed_queries_are_counted_and_only_known_faults_keep_correct():
    def bad(_):
        raise ref.Wrong("wrong")

    fault = wl.Query("spike", lambda: 0, bad, known_fault=True)
    fine = wl.Query("ok", lambda: 0, lambda out: None)
    failed, errors = worker.check_outputs([fault, fine], [[0, 0], [0, 0]])
    assert (failed, errors) == (2, [])
    broken = wl.Query("ok", lambda: 0, bad)
    failed, errors = worker.check_outputs([broken], [[0]])
    assert failed == 1 and len(errors) == 1
    raised = worker.check_outputs([fine], [[ValueError("boom")]])
    assert raised[0] == 1 and raised[1]


def test_cli_rerun_that_differs_counts_as_failed():
    q = wl.Query("delta", lambda: None, lambda body: None, argv=["delta"])
    first = (0, b"a\n")
    same = worker.stored((0, b"a\n"))
    other = worker.stored((0, b"b\n"))
    assert worker.check_outputs([q], [[first], [same]]) == (0, [])
    failed, errors = worker.check_outputs([q], [[first], [other]])
    assert failed == 1 and "differs" in errors[0]
