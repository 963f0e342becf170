"""Tests for the choice model and prior fit.

The objective gradient is validated against central finite differences
and the fitted optimum against an independent dense grid search plus a
separately coded quasi-Newton solve before recovery tests use the fit.
"""

import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize
from scipy.special import expit, logit

from lipem import lip as lip_module
from lipem.errors import (
    InvalidChoiceError,
    InvalidConfigurationError,
    OptimizationFailureError,
    ParseError,
)
from lipem.lip import (
    ChoiceRecord,
    Lip,
    NewtonResult,
    WorthVector,
    _nll_hessian,
    _records,
    _simulate,
    choice_probability,
    fit_lip,
    minimize_worths,
    nll_objective,
    read_records,
    sample_subgroups,
    simulate_elicitation,
    simulated_judge,
    write_records,
)


def fd_gradient(f, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += step
        dn[i] -= step
        out[i] = (f(up) - f(dn)) / (2.0 * step)
    return out


def random_worths(rng, n_sources, scale=2.0):
    return WorthVector(rng.normal(scale=scale, size=n_sources + 1))


PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def loop_sample(n_sources, sizes, count, gen):
    """The sampler as one Python sort per query, the form its draw
    order was fixed in."""
    sizes = sorted(set(sizes))
    out = []
    for _ in range(count):
        size = sizes[gen.integers(len(sizes))]
        members = gen.choice(n_sources, size=size, replace=False) + 1
        out.append(tuple(sorted(int(i) for i in members)))
    return out


# the one records grammar: 1 to 18 ASCII digits per field
FIELD = "[0-9]{1,18}"
GRAMMAR = "expected 'subgroup=<i>,...;choice=<c>', digits 0-9 only, at most 18 per field"


def strict_read(path):
    """The records reader as one ``fullmatch`` and one ``ChoiceRecord``
    per line; the final newline, if any, ends the last line."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    out = []
    for lineno, line in enumerate(lines, 1):
        match = re.fullmatch(f"subgroup=({FIELD}(?:,{FIELD})*);choice=({FIELD})", line)
        if match is None:
            raise ParseError(f"{path}: line {lineno}: {GRAMMAR}", line_number=lineno)
        try:
            out.append(ChoiceRecord(tuple(map(int, match[1].split(","))), int(match[2])))
        except (InvalidConfigurationError, InvalidChoiceError) as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}", line_number=lineno) from exc
    return out


def fstring_write(path, records):
    """The records writer as one f-string per record."""
    lines = [f"subgroup={','.join(map(str, r.subgroup))};choice={r.choice}" for r in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


@st.composite
def choice_records(draw, max_index=2**70):
    """A record whose indices may lie beyond int64."""
    members = draw(st.lists(st.integers(1, max_index), min_size=1, max_size=7, unique=True))
    choice = draw(st.sampled_from([0, *members]))
    return ChoiceRecord(tuple(members), choice)


# fragments of records lines
LINE_PIECES = [
    "subgroup=", "choice=", ";", ";choice=", ",", "0", "1", "2", "12", "-", "+",
    "_", " ", "\t", "\u0663", "\uff12", "\u00b2", "x",
]

# ways to write an index n: the canonical one, and near misses that
# int() reads (surrounding whitespace, a sign, underscores between
# digits, non-ASCII decimal digits) or refuses (a leading underscore, a
# superscript); the records grammar refuses every near miss
SPELLINGS = [
    str, " {} ".format, "+{}".format, "0_{}".format, "\t{}".format,
    lambda n: chr(0x0660 + n), lambda n: chr(0xFF10 + n),
    "_{}".format, lambda n: "\u00b2",
]


@st.composite
def records_lines(draw):
    """A records line that usually parses, else misses by a little."""
    members = draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True))
    choice = draw(st.sampled_from([0, 0, *members]))
    spell = st.sampled_from(SPELLINGS)
    usual = st.sampled_from
    return "".join([
        draw(usual(["", " ", "\t"])),
        draw(usual(["subgroup="] * 6 + ["choice=", "Subgroup=", "subgroup =", ""])),
        ",".join(draw(spell)(n) for n in members),
        draw(usual([";choice="] * 6 + ["; choice=", ";choice =", ",choice=", ";;choice="])),
        draw(spell)(choice),
        draw(usual(["", " ", "", ";", ";choice=1"])),
    ])


def outcome(read, path):
    try:
        return read(path)
    except ParseError as exc:
        return str(exc), exc.line_number


def random_subgroup(rng, n_sources):
    size = int(rng.integers(1, n_sources + 1))
    return tuple(sorted(rng.choice(n_sources, size=size, replace=False) + 1))


class TestChoiceProbability:
    def test_uniform_over_four_options(self):
        worths = WorthVector(np.zeros(4))
        for choice in (0, 1, 2, 3):
            assert choice_probability(worths, (1, 2, 3), choice) == pytest.approx(0.25)

    def test_three_to_one_odds(self):
        worths = WorthVector(np.array([0.0, np.log(3.0)]))
        assert choice_probability(worths, (1,), 1) == pytest.approx(0.75)
        assert choice_probability(worths, (1,), 0) == pytest.approx(0.25)

    def test_extreme_worth_saturates_without_overflow(self):
        worths = WorthVector(np.array([0.0, 1000.0, 0.0]))
        p = choice_probability(worths, (1, 2), 1)
        assert abs(p - 1.0) <= 1e-12
        assert np.isfinite(p)

    def test_choice_outside_subgroup_rejected(self):
        worths = WorthVector(np.zeros(4))
        with pytest.raises(InvalidChoiceError):
            choice_probability(worths, (1, 2), 3)

    def test_probabilities_normalize(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            worths = random_worths(rng, 5, scale=4.0)
            subgroup = random_subgroup(rng, 5)
            total = sum(
                choice_probability(worths, subgroup, c) for c in (0, *subgroup)
            )
            assert abs(total - 1.0) <= 1e-12

    def test_gauge_invariance_under_common_shift(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            worths = random_worths(rng, 5)
            shift = float(rng.normal(scale=10.0))
            shifted = WorthVector(worths.alpha + shift)
            subgroup = random_subgroup(rng, 5)
            for c in (0, *subgroup):
                a = choice_probability(worths, subgroup, c)
                b = choice_probability(shifted, subgroup, c)
                assert abs(a - b) <= 1e-12


class TestNllObjective:
    def test_empty_records_at_anchor_is_zero(self):
        p0 = 0.01
        worths = WorthVector(np.concatenate(([0.0], np.full(3, logit(p0)))))
        value, grad = nll_objective(worths, [], p0=p0, eps=0.1)
        assert value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(grad[1:], 0.0, atol=1e-15)

    def test_single_even_odds_record(self):
        worths = WorthVector(np.zeros(2))
        value, _ = nll_objective(
            worths, [ChoiceRecord((1,), 1)], p0=0.5, eps=0.0
        )
        assert value == pytest.approx(np.log(2.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        records = simulate_elicitation(
            WorthVector(rng.normal(size=5)), [2, 3], 60, rng
        )
        for _ in range(10):
            worths = random_worths(rng, 4)
            _, grad = nll_objective(worths, records)
            approx = fd_gradient(
                lambda a: nll_objective(WorthVector(a), records)[0], worths.alpha
            )
            scale = 1.0 + np.max(np.abs(grad))
            assert np.max(np.abs(grad - approx)) <= 1e-6 * scale

    def test_null_worth_is_unregularized(self):
        # moving alpha_0 changes nothing when there are no records
        a = WorthVector(np.array([0.0, 0.3, -0.2]))
        b = WorthVector(np.array([5.0, 0.3, -0.2]))
        va, _ = nll_objective(a, [])
        vb, _ = nll_objective(b, [])
        assert va == pytest.approx(vb, abs=1e-15)


def loop_objective(worths, records, p0=0.01, eps=0.1):
    """Reference: the per-record loop the array kernels replace."""
    alpha = worths.alpha
    value = 0.0
    grad = np.zeros_like(alpha)
    for rec in records:
        opts = np.array((0,) + rec.subgroup)
        vals = alpha[opts]
        shift = vals.max()
        ex = np.exp(vals - shift)
        denom = ex.sum()
        value += np.log(denom) + shift - alpha[rec.choice]
        grad[opts] += ex / denom
        grad[rec.choice] -= 1.0
    dev = alpha[1:] - float(logit(p0))
    value += eps * float(dev @ dev)
    grad[1:] += 2.0 * eps * dev
    return value, grad


def loop_hessian(worths, records, eps=0.1):
    alpha = worths.alpha
    hess = np.zeros((alpha.size, alpha.size))
    for rec in records:
        opts = np.array((0,) + rec.subgroup)
        vals = alpha[opts]
        ex = np.exp(vals - vals.max())
        probs = ex / ex.sum()
        hess[np.ix_(opts, opts)] += np.diag(probs) - np.outer(probs, probs)
    hess[1:, 1:] += 2.0 * eps * np.eye(alpha.size - 1)
    return hess


def loop_judge(worths, subgroup, gen):
    """Reference: one Generator.choice per query over its probabilities."""
    options = (0, *subgroup)
    vals = worths.alpha[list(options)]
    ex = np.exp(vals - vals.max())
    probs = ex / ex.sum()
    return options[gen.choice(len(options), p=probs / probs.sum())]


def random_records(rng, n_sources, count, max_size=10):
    records = []
    for _ in range(count):
        size = int(rng.integers(1, min(n_sources, max_size) + 1))
        subgroup = tuple(rng.choice(n_sources, size=size, replace=False) + 1)
        records.append(ChoiceRecord(subgroup, int(rng.choice((0, *subgroup)))))
    return records


def planned(records, n_sources):
    """``records`` as the fit plan ``minimize_worths`` lays out."""
    return lip_module._plan(lip_module._compile(records, n_sources), n_sources)


def nll_hessian(worths, records, eps):
    """The objective's Hessian on a record list at ``worths``, with each
    block's probabilities from ``_softmax``, as the fit reuses them."""
    plan = planned(records, worths.n_sources)
    probs = [lip_module._softmax(worths.alpha, block.options)[0] for block in plan.blocks]
    return _nll_hessian(worths.alpha, plan, eps, probs)


def reference_newton(
    records, n_sources, p0=0.01, eps=0.1, tol=1e-8, max_iters=200, objective=nll_objective
):
    """``minimize_worths`` as one public ``nll_objective`` call (or one
    ``objective`` call) per evaluation and a fresh ``nll_hessian`` per
    iterate; returns the result, or the failure, with the iterates the
    Hessian was taken at."""
    iterates = []
    worths = WorthVector(np.concatenate(([0.0], np.full(n_sources, float(logit(p0))))))
    value, grad = objective(worths, records, p0, eps)
    trace = [value]
    for iteration in range(max_iters):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= tol:
            return NewtonResult(worths, value, gnorm, iteration, tuple(trace)), iterates
        if not math.isfinite(gnorm):
            return ("non-finite", iteration, worths.alpha.tobytes()), iterates
        iterates.append(worths.alpha.copy())
        hess = nll_hessian(worths, records, eps)
        jitter = 1e-10 * (1.0 + float(np.trace(hess)) / hess.shape[0])
        try:
            step = np.linalg.solve(hess + jitter * np.eye(hess.shape[0]), -grad)
        except np.linalg.LinAlgError:
            step = -grad
        longest = float(np.max(np.abs(step)))
        if longest > 10.0:
            step = step * (10.0 / longest)
        slope = float(grad @ step)
        if slope >= 0.0:
            step = -grad
            slope = float(grad @ step)
        noise = 64.0 * np.finfo(float).eps * max(1.0, abs(value))
        scale = 1.0
        for _ in range(60):
            cand = WorthVector(worths.alpha + scale * step)
            cand_value, cand_grad = objective(cand, records, p0, eps)
            if cand_value <= value + 1e-4 * scale * slope + noise:
                break
            scale *= 0.5
        worths, value, grad = cand, cand_value, cand_grad
        trace.append(value)
    gnorm = float(np.max(np.abs(grad)))
    if gnorm <= tol:
        return NewtonResult(worths, value, gnorm, max_iters, tuple(trace)), iterates
    return ("no convergence", max_iters, worths.alpha.tobytes()), iterates


def math_log_objective(worths, records, p0=0.01, eps=0.1):
    """``nll_objective`` with each normaliser's log taken by ``math.log``,
    as the objective took it before it made one ``np.log`` call per
    block."""
    alpha = worths.alpha
    plan = planned(records, alpha.size - 1)
    terms = np.zeros(plan.size + 1)
    grad = -plan.counts
    for block in plan.blocks:
        probs, shift, denom = lip_module._softmax(alpha, block.options)
        log_denom = np.fromiter(map(math.log, denom.tolist()), float, denom.size)
        terms[block.at] = log_denom + shift - alpha[block.chosen]
        grad += np.bincount(block.flat, probs.ravel("F"), minlength=alpha.size)
    value = float(np.cumsum(terms)[-1])
    dev = alpha[1:] - float(logit(p0))
    value += eps * float(dev @ dev)
    with np.errstate(invalid="ignore"):
        grad[1:] += 2.0 * eps * dev
    return value, grad


def kernel_fixtures():
    """30 random record sets, each with its source count, worths to
    evaluate at and settings (p0, eps)."""
    rng = np.random.default_rng(42)
    cases = []
    for trial in range(30):
        n_sources = int(rng.integers(1, 61))
        count = 0 if trial == 0 else int(rng.integers(1, 300))
        records = random_records(rng, n_sources, count)
        worths = random_worths(rng, n_sources)
        p0, eps = float(rng.uniform(0.001, 0.5)), float(rng.uniform(0.0, 1.0))
        cases.append((records, n_sources, worths, dict(p0=p0, eps=eps)))
    return cases


def fit_fixtures():
    """``kernel_fixtures`` as fits: records, source count and settings."""
    return [(records, n_sources, settings) for records, n_sources, _, settings in kernel_fixtures()]


def choice_fit_records(seed):
    """2,500 simulated records shaped like the ``choice_fit`` benchmark:
    K = 50, subgroups of 3, 4 and 5 members, a tenth of the sources
    planted relevant."""
    rng = np.random.default_rng(seed)
    alpha = np.concatenate(([0.0], np.log(0.05 / 0.95) + rng.normal(0.0, 0.5, size=50)))
    alpha[1 + rng.choice(50, size=5, replace=False)] = np.log(0.9 / 0.1)
    return simulate_elicitation(WorthVector(alpha), [3, 4, 5], 2500, np.random.default_rng(seed))


def unplanned_kernels(alpha, queries, eps):
    """The gradient and Hessian as computed before the fit plan: every
    index array rebuilt per call, and one Hessian scatter per
    ``_PAIR_CELLS`` pairs of each block."""
    n = alpha.size
    grad = -np.bincount(queries.chosen, minlength=n).astype(float)
    diag, upper = np.zeros(n), np.zeros(n * n)
    for _, options in queries.blocks:
        probs = lip_module._softmax(alpha, options)[0]
        grad += np.bincount(options.ravel("F"), probs.ravel("F"), minlength=n)
        diag += np.bincount(options.ravel("F"), (probs * (1.0 - probs)).ravel("F"), minlength=n)
        first, second = np.triu_indices(options.shape[1], 1)
        step = max(1, lip_module._PAIR_CELLS // first.size)
        for top in range(0, options.shape[0], step):
            rows = slice(top, top + step)
            cells = options[rows, first] * n + options[rows, second]
            weights = probs[rows, first] * probs[rows, second]
            upper += np.bincount(cells.ravel("F"), weights.ravel("F"), minlength=n * n)
    grad[1:] += 2.0 * eps * (alpha[1:] - float(lip_module.logit(0.01)))
    upper = upper.reshape(n, n)
    hess = np.diag(diag) - upper - upper.T
    hess[1:, 1:] += 2.0 * eps * np.eye(n - 1)
    return grad, hess


# a fit one of whose objective values reads a different last bit under
# math.log than under numpy's log, on a numpy build with an AVX512 log
LOG_BIT_RECORDS = [
    ChoiceRecord(subgroup, choice)
    for subgroup, choice in [
        ((1, 2), 0), ((1, 3), 1), ((1, 2, 3), 2), ((1, 2, 3), 0), ((1,), 0),
        ((3,), 3), ((2,), 0), ((1, 2, 3), 3), ((3,), 0), ((1, 2, 3), 0),
        ((3,), 3), ((2, 3), 0), ((2,), 0), ((2, 3), 0), ((1, 2, 3), 0),
    ]
]

# a fit whose line search halves one Newton step
BACKTRACKING_RECORDS = [ChoiceRecord((1,), 1)] * 20 + [ChoiceRecord((1,), 0)] * 10


def newton_outcome(records, n_sources, monkeypatch, **settings):
    """``minimize_worths``'s result or failure, in ``reference_newton``'s
    form, with the iterates its Hessians were taken at."""
    iterates = []

    def spy(alpha, *args):
        iterates.append(alpha.copy())
        return _nll_hessian(alpha, *args)

    monkeypatch.setattr(lip_module, "_nll_hessian", spy)
    try:
        return minimize_worths(records, n_sources, **settings), iterates
    except OptimizationFailureError as exc:
        kind = "non-finite" if "non-finite" in str(exc) else "no convergence"
        iteration = len(iterates) if kind == "non-finite" else settings["max_iters"]
        return (kind, iteration, exc.last_iterate.alpha.tobytes()), iterates
    finally:
        monkeypatch.undo()


class TestArrayKernels:
    """The array kernels against the per-record loops they replace."""

    def test_kernels_match_per_record_loop(self):
        for records, _, worths, settings in kernel_fixtures():
            p0, eps = settings["p0"], settings["eps"]
            value, grad = nll_objective(worths, records, p0, eps)
            ref_value, ref_grad = loop_objective(worths, records, p0, eps)
            # summed in record order, so equal to the last bit
            assert value == ref_value
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12
            hess = nll_hessian(worths, records, eps)
            assert np.max(np.abs(hess - loop_hessian(worths, records, eps))) <= 1e-12

    def test_log_terms_match_per_record_loop_to_the_last_bit(self):
        # the null wins at the top worth and eps is 0, so each term is
        # exactly log(1 + exp(-u)) and no rounding hides its last bit
        records = [ChoiceRecord((1,), 0)] * 16
        for u in np.random.default_rng(42).uniform(0.0, 5.0, size=2000):
            worths = WorthVector(np.array([0.0, -u]))
            assert nll_objective(worths, records, eps=0.0)[0] == (
                loop_objective(worths, records, eps=0.0)[0]
            )

    def test_option_counts_around_the_pairwise_sum(self):
        # numpy sums a row of 8 or more entries pairwise: blocks of 7, 8
        # and 9 options straddle the width where column-major tables
        # must sum a C-order copy
        rng = np.random.default_rng(42)
        n_sources, sizes = 20, [6, 7, 8]
        worths = random_worths(rng, n_sources, scale=3.0)
        records = simulate_elicitation(worths, sizes, 300, np.random.default_rng(7))
        assert {len(r.subgroup) for r in records} == set(sizes)
        value, _ = nll_objective(worths, records)
        assert value == loop_objective(worths, records)[0]
        hess = nll_hessian(worths, records, 0.1)
        assert np.max(np.abs(hess - loop_hessian(worths, records, 0.1))) <= 1e-12
        loop_gen = np.random.default_rng(7)
        subgroups = sample_subgroups(n_sources, sizes, 300, loop_gen)
        assert records == [
            ChoiceRecord(s, loop_judge(worths, s, loop_gen)) for s in subgroups
        ]

    def test_hessian_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(42)
        records = random_records(rng, 6, 150, max_size=6)
        step = 1e-6
        for _ in range(5):
            worths = random_worths(rng, 6)
            hess = nll_hessian(worths, records, 0.1)
            approx = np.empty_like(hess)
            for i in range(worths.alpha.size):
                bump = np.zeros_like(worths.alpha)
                bump[i] = step
                up = nll_objective(WorthVector(worths.alpha + bump), records)[1]
                dn = nll_objective(WorthVector(worths.alpha - bump), records)[1]
                approx[:, i] = (up - dn) / (2.0 * step)
            assert np.max(np.abs(hess - approx)) <= 1e-6 * (1.0 + np.max(np.abs(hess)))

    def test_batched_simulation_matches_per_query_judging(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n_sources = int(rng.integers(1, 61))
            sizes = sorted(set(rng.integers(1, min(n_sources, 10) + 1, size=3).tolist()))
            worths = random_worths(rng, n_sources, scale=3.0)
            seed = int(rng.integers(2**31))
            records = simulate_elicitation(worths, sizes, 200, np.random.default_rng(seed))
            loop_gen = np.random.default_rng(seed)
            subgroups = sample_subgroups(n_sources, sizes, 200, loop_gen)
            judge_gen = np.random.default_rng(seed)
            sample_subgroups(n_sources, sizes, 200, judge_gen)
            assert records == [
                ChoiceRecord(s, loop_judge(worths, s, loop_gen)) for s in subgroups
            ]
            assert records == [
                ChoiceRecord(s, simulated_judge(worths, s, judge_gen)) for s in subgroups
            ]

    def test_newton_matches_reference_loop_bit_for_bit(self, monkeypatch):
        # the fixtures of test_kernels_match_per_record_loop (each fit
        # converges), then a fit cut short and one with a NaN objective
        cases = fit_fixtures()
        records, n_sources, _ = cases[10]
        cases += [
            (records, n_sources, dict(eps=0.01, max_iters=2)),
            (records, n_sources, dict(eps=1e308)),
        ]
        outcomes = []
        for records, n_sources, settings in cases:
            settings = {"p0": 0.01, "tol": 1e-8, "max_iters": 200, **settings}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # eps = 1e308
                got, got_iterates = newton_outcome(records, n_sources, monkeypatch, **settings)
                want, want_iterates = reference_newton(records, n_sources, **settings)
            assert [a.tobytes() for a in got_iterates] == [a.tobytes() for a in want_iterates]
            if isinstance(want, NewtonResult):
                assert got.worths.alpha.tobytes() == want.worths.alpha.tobytes()
                assert got.objective_trace == want.objective_trace
                assert (got.objective, got.gradient_norm, got.iterations) == (
                    want.objective, want.gradient_norm, want.iterations
                )
                assert got.evaluations == 1 + got.iterations + got.backtracks
            else:
                assert got == want
            outcomes.append(want)
        assert all(isinstance(want, NewtonResult) for want in outcomes[:30])
        assert [want[0] for want in outcomes[30:]] == ["no convergence", "non-finite"]

    def test_one_softmax_per_evaluation(self, monkeypatch):
        records = simulate_elicitation(
            WorthVector(np.linspace(-1.0, 1.0, 9)), [2, 3, 5], 300, np.random.default_rng(7)
        )
        calls = Counter()
        softmax, nll = lip_module._softmax, lip_module._nll

        def count_softmax(*args):
            calls["softmax"] += 1
            return softmax(*args)

        def count_nll(*args):
            calls["nll"] += 1
            return nll(*args)

        monkeypatch.setattr(lip_module, "_softmax", count_softmax)
        monkeypatch.setattr(lip_module, "_nll", count_nll)
        result = minimize_worths(records, 8)
        assert result.iterations >= 3
        # three option counts, so three blocks per evaluation, and no
        # softmax of the Hessian's own
        assert calls["softmax"] == 3 * calls["nll"]
        assert calls["nll"] > result.iterations

    def test_one_plan_per_fit(self, monkeypatch):
        records = simulate_elicitation(
            WorthVector(np.linspace(-1.0, 1.0, 9)), [2, 3, 5], 300, np.random.default_rng(7)
        )
        calls = Counter()
        plan, triu_indices = lip_module._plan, np.triu_indices

        def count_plan(*args):
            calls["plan"] += 1
            return plan(*args)

        def count_triu_indices(*args, **kwargs):
            calls["triu_indices"] += 1
            return triu_indices(*args, **kwargs)

        monkeypatch.setattr(lip_module, "_plan", count_plan)
        monkeypatch.setattr(np, "triu_indices", count_triu_indices)
        result = minimize_worths(records, 8)
        monkeypatch.undo()
        assert result.iterations >= 3
        # three option counts, laid out once for every evaluation
        assert calls == {"plan": 1, "triu_indices": 3}

    @pytest.mark.parametrize(
        "sizes, count, chunks",
        [
            # blocks of 7, 8 and 9 options, around the pairwise sum
            ([6, 7, 8], 300, 1),
            # 45 pairs a record: one block over six _PAIR_CELLS chunks
            ([9], 1000, 6),
        ],
    )
    def test_plan_kernels_match_the_unplanned_kernels(self, sizes, count, chunks):
        rng = np.random.default_rng(42)
        worths = random_worths(rng, 20, scale=3.0)
        records = simulate_elicitation(worths, sizes, count, np.random.default_rng(7))
        queries = lip_module._compile(records, 20)
        plan = lip_module._plan(queries, 20)
        assert {len(block.chunks) for block in plan.blocks} == {chunks}
        value, grad, probs = lip_module._nll(worths.alpha, plan, 0.01, 0.1)
        assert value == loop_objective(worths, records)[0]
        want_grad, want_hess = unplanned_kernels(worths.alpha, queries, 0.1)
        assert grad.tobytes() == want_grad.tobytes()
        hess = _nll_hessian(worths.alpha, plan, 0.1, probs)
        assert hess.tobytes() == want_hess.tobytes()
        assert hess.tobytes() == nll_hessian(worths, records, 0.1).tobytes()

    def test_evaluations_count_objective_calls(self, monkeypatch):
        calls = Counter()
        nll = lip_module._nll

        def count_nll(*args):
            calls["nll"] += 1
            return nll(*args)

        monkeypatch.setattr(lip_module, "_nll", count_nll)
        result = minimize_worths(BACKTRACKING_RECORDS, 1)
        assert result.evaluations == calls["nll"] == 7

    def test_backtracks_count_rejected_steps(self, monkeypatch):
        values = []
        nll = lip_module._nll

        def record_nll(*args):
            out = nll(*args)
            values.append(out[0])
            return out

        monkeypatch.setattr(lip_module, "_nll", record_nll)
        result = minimize_worths(BACKTRACKING_RECORDS, 1)
        # every evaluation after the first is a candidate; those the line
        # search rejected are missing from the trace
        rejected = [v for v in values[1:] if v not in result.objective_trace]
        assert result.backtracks == len(rejected) == 1

    def test_newton_decides_the_same_under_a_math_log_objective(self, monkeypatch):
        # numpy's log of a normaliser may differ from math.log in the
        # last bit; the objective's value reaches only the Armijo test,
        # so every iterate and the fitted worths keep their bytes
        cases = fit_fixtures() + [(choice_fit_records(seed), 50, {}) for seed in (42, 1234)]
        cases.append((LOG_BIT_RECORDS, 3, dict(eps=1.0)))
        for records, n_sources, settings in cases:
            got, got_iterates = newton_outcome(records, n_sources, monkeypatch, **settings)
            want, want_iterates = reference_newton(
                records, n_sources, objective=math_log_objective, **settings
            )
            assert isinstance(got, NewtonResult) and isinstance(want, NewtonResult)
            assert [a.tobytes() for a in got_iterates] == [a.tobytes() for a in want_iterates]
            assert got.worths.alpha.tobytes() == want.worths.alpha.tobytes()

    def test_no_scalar_log_per_record(self, monkeypatch):
        records = choice_fit_records(42)
        calls = Counter()
        log = math.log

        def count_log(*args):
            calls["log"] += 1
            return log(*args)

        monkeypatch.setattr(lip_module.math, "log", count_log)
        result = minimize_worths(records, 50)
        monkeypatch.undo()
        # logit(p0) once per evaluation, plus once each in the settings
        # check and for the starting worths; none per record
        assert result.evaluations >= 3
        assert calls["log"] <= 2 + result.evaluations

    def test_jitter_is_the_largest_ridge_added(self, monkeypatch):
        # a strong pull scales the Hessian's diagonal, and the ridge with it
        hessians = []

        def spy(*args):
            hessians.append(_nll_hessian(*args))
            return hessians[-1]

        monkeypatch.setattr(lip_module, "_nll_hessian", spy)
        result = minimize_worths(BACKTRACKING_RECORDS, 1, eps=1e6)
        monkeypatch.undo()
        ridges = [1e-10 * (1.0 + float(np.trace(h)) / h.shape[0]) for h in hessians]
        assert result.iterations == len(ridges) >= 1
        assert result.jitter == max(ridges) > 1e-5
        assert minimize_worths([], 3).jitter == 0.0

    @pytest.mark.parametrize("fault", ["singular", "ascent"])
    def test_fallbacks_count_steepest_descent_steps(self, monkeypatch, fault):
        # the first solve raises, or returns a direction that climbs
        solve, calls = np.linalg.solve, Counter()

        def faulty_solve(a, b):
            calls["solve"] += 1
            if calls["solve"] > 1:
                return solve(a, b)
            if fault == "singular":
                raise np.linalg.LinAlgError("singular matrix")
            return -b

        monkeypatch.setattr(np.linalg, "solve", faulty_solve)
        result = minimize_worths(BACKTRACKING_RECORDS, 1)
        monkeypatch.undo()
        assert result.fallbacks == 1
        assert calls["solve"] == result.iterations
        assert minimize_worths(BACKTRACKING_RECORDS, 1).fallbacks == 0

    def test_subgroup_beyond_k_rejected(self):
        records = [ChoiceRecord((1, 2), 1), ChoiceRecord((2, 4), 0)]
        worths = WorthVector(np.zeros(4))
        with pytest.raises(InvalidConfigurationError):
            nll_objective(worths, records)
        with pytest.raises(InvalidConfigurationError):
            fit_lip(records, 3)
        with pytest.raises(InvalidConfigurationError):
            choice_probability(worths, (2, 4), 4)
        with pytest.raises(InvalidConfigurationError):
            simulated_judge(worths, (1, 4), np.random.default_rng(42))

    def test_non_finite_worths_rejected_by_simulation(self):
        worths = WorthVector(np.array([0.0, np.inf, 0.0]))
        with pytest.raises(InvalidConfigurationError):
            simulate_elicitation(worths, [2], 5, np.random.default_rng(42))


class TestFitLip:
    def test_empty_records_recover_default_probability(self):
        worths, lip = fit_lip([], 3, p0=0.01)
        np.testing.assert_allclose(lip.pi, 0.01, atol=1e-8)
        assert lip.provenance == "fitted"

    def test_unreachable_tolerance_rejected(self):
        with pytest.raises(InvalidConfigurationError) as err:
            fit_lip([], 3, tol=-1.0)
        assert err.value.key == "tol"

    @pytest.mark.parametrize("n_sources", [-1, 0, 2.5, True, "3", None])
    def test_source_count_must_be_a_positive_integer(self, n_sources):
        # no numpy error for -1 or 2.5, and no null-only fit for 0
        for fit in (minimize_worths, fit_lip):
            with pytest.raises(InvalidConfigurationError) as err:
                fit([], n_sources)
            assert err.value.key == "n_sources"

    def test_negative_iteration_budget_rejected(self):
        for fit in (minimize_worths, fit_lip):
            with pytest.raises(InvalidConfigurationError) as err:
                fit([ChoiceRecord((1,), 1)], 1, max_iters=-1)
            assert err.value.key == "max_iters"

    def test_zero_iteration_budget_takes_no_step(self):
        assert minimize_worths([], 3, max_iters=0).iterations == 0
        with pytest.raises(OptimizationFailureError, match="after 0 iterations"):
            minimize_worths([ChoiceRecord((1,), 1)], 1, max_iters=0)

    def test_non_finite_gradient_stops_at_once(self):
        # 2 * eps overflows, so the gradient is NaN from the start; the
        # fit must not spend its (huge) iteration budget on it, and only
        # its error reports the NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OptimizationFailureError, match="iteration 0"):
                fit_lip([], 3, eps=1e308, max_iters=10**12)

    def test_always_chosen_source_beats_null(self):
        records = [ChoiceRecord((1,), 1)] * 30
        worths, lip = fit_lip(records, 1, p0=0.01, eps=0.1)
        assert worths.alpha[1] > worths.alpha[0]
        assert lip.pi[0] > 0.01

    def test_always_chosen_fit_beats_dense_grid(self):
        # oracle: exhaustive grid over (alpha_0, alpha_1) on [-10, 10]^2;
        # the optimizer must reach at least the best grid objective
        records = [ChoiceRecord((1,), 1)] * 30
        result = minimize_worths(records, 1, p0=0.01, eps=0.1)
        grid = np.linspace(-10.0, 10.0, 201)
        best = np.inf
        for a0 in grid:
            for a1 in grid:
                value, _ = nll_objective(
                    WorthVector(np.array([a0, a1])), records, p0=0.01, eps=0.1
                )
                best = min(best, value)
        assert result.objective <= best + 1e-9

    def test_interior_optimum_matches_independent_solver(self):
        # with null choices present the optimum is interior and unique;
        # compare coordinates against a separately coded BFGS solve
        records = [ChoiceRecord((1,), 1)] * 20 + [ChoiceRecord((1,), 0)] * 10
        result = minimize_worths(records, 1, p0=0.01, eps=0.1)

        def objective(a):
            return nll_objective(WorthVector(a), records, p0=0.01, eps=0.1)[0]

        oracle = scipy_minimize(
            objective,
            np.array([0.0, float(logit(0.01))]),
            method="BFGS",
            options={"gtol": 1e-12, "maxiter": 500},
        )
        np.testing.assert_allclose(result.worths.alpha, oracle.x, atol=1e-6)
        assert result.objective <= oracle.fun + 1e-10

    def test_symmetric_records_give_equal_worths(self):
        records = [
            ChoiceRecord((1, 2), 1),
            ChoiceRecord((1, 2), 2),
            ChoiceRecord((1, 2), 1),
            ChoiceRecord((1, 2), 2),
            ChoiceRecord((1, 2), 0),
        ]
        worths, _ = fit_lip(records, 2)
        assert abs(worths.alpha[1] - worths.alpha[2]) <= 1e-6

    def test_objective_trace_is_monotone(self):
        rng = np.random.default_rng(42)
        records = simulate_elicitation(
            WorthVector(np.array([0.0, 1.0, -1.0, 0.5])), [2, 3], 200, rng
        )
        result = minimize_worths(records, 3)
        trace = np.asarray(result.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert result.gradient_norm <= 1e-8

    def test_extra_win_never_lowers_fitted_probability(self):
        rng = np.random.default_rng(42)
        records = simulate_elicitation(
            WorthVector(np.array([0.0, 0.5, -0.5, 0.2])), [2, 3], 120, rng
        )
        _, before = fit_lip(records, 3)
        _, after = fit_lip(records + [ChoiceRecord((1, 2, 3), 2)], 3)
        assert after.pi[1] >= before.pi[1] - 1e-12

    def test_planted_worths_recovered_from_large_elicitation(self):
        # one seeded instance; each gap estimate carries a standard error
        # near 0.08 at this record count, so the budget is about two of them
        rng = np.random.default_rng(20)
        true = WorthVector(np.array([0.0, 1.5, -1.5, 0.75, -0.75, 1.2]))
        records = simulate_elicitation(true, [3, 4, 5], 2000, rng)
        fitted, _ = fit_lip(records, 5, eps=1e-3)
        gaps_true = true.alpha[1:] - true.alpha[0]
        gaps_fit = fitted.alpha[1:] - fitted.alpha[0]
        assert np.max(np.abs(gaps_fit - gaps_true)) <= 0.15


class TestSampling:
    def test_single_possible_subgroup(self):
        rng = np.random.default_rng(42)
        groups = sample_subgroups(3, [3], 5, rng)
        assert groups == [(1, 2, 3)] * 5

    def test_sizes_drawn_from_allowed_set(self):
        rng = np.random.default_rng(42)
        groups = sample_subgroups(99, [3, 4, 5], 200, rng)
        assert len(groups) == 200
        assert {len(g) for g in groups} <= {3, 4, 5}
        for g in groups:
            assert len(set(g)) == len(g)
            assert all(1 <= i <= 99 for i in g)

    def test_same_seed_reproduces_subgroups(self):
        a = sample_subgroups(10, [2, 3], 50, np.random.default_rng(7))
        b = sample_subgroups(10, [2, 3], 50, np.random.default_rng(7))
        assert a == b

    def test_oversized_subgroup_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            sample_subgroups(3, [4], 5, np.random.default_rng(42))

    @PROPERTY
    @given(
        n_sources=st.integers(1, 60),
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        count=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_python_sort_per_query(self, n_sources, sizes, count, seed):
        sizes = [min(s, n_sources) for s in sizes]
        fast, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_subgroups(n_sources, sizes, count, fast) == loop_sample(
            n_sources, sizes, count, loop
        )
        assert fast.bit_generator.state == loop.bit_generator.state

    def test_negative_count_rejected_and_zero_draws_nothing(self):
        rng = np.random.default_rng(42)
        with pytest.raises(InvalidConfigurationError) as err:
            sample_subgroups(3, [2], -1, rng)
        assert err.value.key == "count"
        assert sample_subgroups(3, [2], 0, rng) == []
        # neither call consumed the stream
        assert rng.bit_generator.state == np.random.default_rng(42).bit_generator.state

    @pytest.mark.parametrize(
        "sizes, count, key",
        [
            ([2.7], 3, "sizes"),  # not to be drawn as size 2
            ([2, True], 3, "sizes"),
            ([np.float64(2.0)], 3, "sizes"),
            ([2], 2.5, "count"),
            ([2], True, "count"),  # not one query
            ([2], "3", "count"),
        ],
    )
    def test_non_integer_size_or_count_rejected_before_any_draw(self, sizes, count, key):
        rng = np.random.default_rng(42)
        with pytest.raises(InvalidConfigurationError) as err:
            sample_subgroups(5, sizes, count, rng)
        assert err.value.key == key
        with pytest.raises(InvalidConfigurationError):
            simulate_elicitation(WorthVector(np.zeros(6)), sizes, count, rng)
        assert rng.bit_generator.state == np.random.default_rng(42).bit_generator.state

    def test_numpy_integer_sizes_and_count_accepted(self):
        sizes, count = np.array([2, 3]), np.int64(20)
        a = sample_subgroups(10, sizes, count, np.random.default_rng(7))
        assert a == sample_subgroups(10, [2, 3], 20, np.random.default_rng(7))

    @PROPERTY
    @given(
        n_sources=st.integers(1, 40),
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        count=st.integers(0, 60),
        scale=st.floats(0.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_simulation_matches_per_query_choice_loop(self, n_sources, sizes, count, scale, seed):
        """Records and the generator's end state equal one
        ``Generator.choice`` per subgroup member draw and per judgement."""
        sizes = [min(s, n_sources) for s in sizes]
        worths = random_worths(np.random.default_rng(seed), n_sources, scale=scale)
        fast, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        records = _records(_simulate(worths, sizes, count, fast))
        subgroups = loop_sample(n_sources, sizes, count, loop)
        assert records == [ChoiceRecord(s, loop_judge(worths, s, loop)) for s in subgroups]
        assert fast.bit_generator.state == loop.bit_generator.state


def same_state(a, b):
    """Bit generator states are equal, arrays (MT19937's key) included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def words_taken(bit_generator, seed, state, limit=10_000):
    """How many 32-bit words a fresh generator draws to reach ``state``."""
    gen = np.random.Generator(bit_generator(seed))
    for taken in range(limit):
        if same_state(gen.bit_generator.state, state):
            return taken
        gen.integers(0, 2**32)
    raise AssertionError(f"state not reached in {limit} words")


def untemper(y):
    """The MT19937 key word whose tempered output is ``y``."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(3):
        x = y ^ (x >> 11)
    return x & 0xFFFFFFFF


def drawing(words):
    """An MT19937 generator whose next 32-bit words are ``words`` (at
    most 624 of them); it runs on as MT19937 after those."""
    gen = np.random.Generator(np.random.MT19937(0))
    state = gen.bit_generator.state
    start = 624 - len(words)
    state["state"]["key"][start:] = [untemper(int(w)) for w in words]
    state["state"]["pos"] = start
    gen.bit_generator.state = state
    return gen


class CountingGenerator(np.random.Generator):
    """A generator that counts its ``integers`` and ``choice`` calls."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.calls = Counter()

    def integers(self, *args, **kwargs):
        self.calls["integers"] += 1
        return super().integers(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self.calls["choice"] += 1
        return super().choice(*args, **kwargs)


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


@st.composite
def stream_cases(draw):
    """A draw's (K, sizes, count): small K, K whose member draws reject
    many words, K that takes 64-bit member draws, or K with one size that
    numpy draws by its tail shuffle."""
    kind = draw(st.sampled_from(["small", "rejecting", "wide", "tail"]))
    if kind == "small":
        n_sources = draw(st.integers(1, 60))
    elif kind == "rejecting":
        n_sources = draw(st.sampled_from([3 * 2**30, 2**31 + 3])) + draw(st.integers(-40, 40))
    elif kind == "wide":
        n_sources = draw(st.integers(2**32, 2**32 + 100))
    else:
        n_sources = draw(st.integers(10001, 20000))
    sizes = [min(s, n_sources) for s in draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))]
    if kind == "tail":
        sizes.append(draw(st.integers(n_sources // 50 + 1, n_sources // 50 + 30)))
    return n_sources, sizes, draw(st.integers(0, 40))


class TestBlockDraw:
    """The sampler draws a block of queries with one array-bounded
    ``integers`` call; every case must equal one ``integers`` and one
    ``choice`` call per query (``loop_sample``), end state included."""

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize(
        "n_sources, sizes, count",
        [
            (50, [3, 4, 5], 1000),  # more than one block
            (3 * 2**30, [1, 3, 4], 40),  # about a quarter of the words rejected
            (2143334847, [3, 4, 5], 600),  # a few rejected words inside blocks
            (2**31 + 3, [2, 3], 30),  # u * (r + 1) beyond int64
            (2**32 - 1, [1, 2, 3], 30),
            (2**32, [1, 2, 3], 30),  # 64-bit member draws
            (2**32 + 7, [2, 3], 30),
            (10001, [3, 201], 8),  # size 201 is numpy's tail shuffle
            (200, [3, 70], 40),  # size 70 is past the block's largest
            (16, list(range(1, 17)), 300),  # every size a block draws, K = size
            (1000, [2, 16], 300),  # short rows beside the widest
            (4, [4], 20),  # K = size: Floyd's first draw takes no word
            (5, [2], 30),  # no size draw
            (1, [1], 5),  # no word at all
            (2**63 - 1, [1, 2, 3], 20),  # the largest K
        ],
    )
    @pytest.mark.parametrize("buffered", [False, True])
    def test_matches_per_query_calls(self, bit_generator, n_sources, sizes, count, buffered):
        fast, loop = (np.random.Generator(bit_generator(7)) for _ in range(2))
        if buffered:  # leave half of a 64-bit output in the generator's buffer
            fast.integers(10, dtype=np.uint32)
            loop.integers(10, dtype=np.uint32)
        assert sample_subgroups(n_sources, sizes, count, fast) == loop_sample(
            n_sources, sizes, count, loop
        )
        assert same_state(fast.bit_generator.state, loop.bit_generator.state)

    def test_rejected_words_are_redrawn(self):
        n_sources, seed = 3 * 2**30, 11
        gen = np.random.Generator(np.random.PCG64(seed))
        subgroups = sample_subgroups(n_sources, [2, 3], 40, gen)
        loop = np.random.Generator(np.random.PCG64(seed))
        assert subgroups == loop_sample(n_sources, [2, 3], 40, loop)
        # a size word, then per member a Floyd word and all but one a
        # shuffle word, when no word is rejected
        unrejected = sum(2 * len(s) for s in subgroups)
        assert words_taken(np.random.PCG64, seed, gen.bit_generator.state) > unrejected

    @pytest.mark.parametrize("every", [2, 3, 7])
    def test_zero_words_are_redrawn_by_every_draw(self, every):
        # a word of 0 is rejected by every draw whose range r + 1 is not a
        # power of two: size draws, Floyd's draws and the shuffle's
        words = np.random.default_rng(every).integers(1, 2**32, size=600)
        words[::every] = 0
        assert np.array_equal(drawing(words).integers(0, 2**32, size=600), words)
        fast, loop = drawing(words), drawing(words)
        assert sample_subgroups(50, [1, 2, 3], 120, fast) == loop_sample(50, [1, 2, 3], 120, loop)
        assert same_state(fast.bit_generator.state, loop.bit_generator.state)

    def test_no_call_per_query_inside_the_block(self):
        gen = CountingGenerator(np.random.PCG64(42))
        assert len(sample_subgroups(50, [3, 4, 5], 2500, gen)) == 2500
        # a query makes at most 10 draws; no word is rejected here, so
        # each block reads its raw words to guess the sizes and then draws
        # its queries in one call
        blocks = -(-2500 // (lip_module._BLOCK_WORDS // 10))
        assert gen.calls == {"integers": 2 * blocks}

    def test_tail_shuffle_draws_one_size_and_one_choice_call_per_query(self):
        # size 201 > 10001 // 50: numpy shuffles the tail of range(K)
        gen = CountingGenerator(np.random.PCG64(42))
        loop = np.random.Generator(np.random.PCG64(42))
        assert sample_subgroups(10001, [3, 201], 40, gen) == loop_sample(10001, [3, 201], 40, loop)
        assert gen.calls == {"integers": 40, "choice": 40}
        assert same_state(gen.bit_generator.state, loop.bit_generator.state)

    def test_drawn_queries_are_unjudged(self):
        queries = lip_module._draw(50, [3, 4, 5], 500, np.random.default_rng(3))
        assert queries.chosen.shape == (500,) and not queries.chosen.any()

    @pytest.mark.parametrize(
        "n_sources, sizes",
        [
            (200, [3, 70]),  # a large subgroup
            (3 * 2**30, [2, 3]),  # most queries have a rejected word
            (2**32 + 7, [2, 3]),  # 64-bit member draws
            (1, [1]),  # no word at all
        ],
    )
    def test_no_input_makes_a_choice_call(self, n_sources, sizes):
        gen = CountingGenerator(np.random.PCG64(42))
        loop = np.random.Generator(np.random.PCG64(42))
        assert sample_subgroups(n_sources, sizes, 50, gen) == loop_sample(
            n_sources, sizes, 50, loop
        )
        assert "choice" not in gen.calls
        assert same_state(gen.bit_generator.state, loop.bit_generator.state)

    @PROPERTY
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("buffered", [False, True])
    @given(case=stream_cases(), seed=st.integers(0, 2**32 - 1))
    def test_property_matches_per_query_calls(self, bit_generator, buffered, case, seed):
        n_sources, sizes, count = case
        fast, loop = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        if buffered:
            fast.integers(10, dtype=np.uint32)
            loop.integers(10, dtype=np.uint32)
        assert sample_subgroups(n_sources, sizes, count, fast) == loop_sample(
            n_sources, sizes, count, loop
        )
        assert same_state(fast.bit_generator.state, loop.bit_generator.state)

    @pytest.mark.parametrize("n_sources", [2.5, True, np.float64(5.0), "5", None])
    def test_non_integer_source_count_rejected_before_any_draw(self, n_sources):
        rng = np.random.default_rng(42)
        with pytest.raises(InvalidConfigurationError) as err:
            sample_subgroups(n_sources, [1], 3, rng)
        assert err.value.key == "n_sources"
        assert same_state(rng.bit_generator.state, np.random.default_rng(42).bit_generator.state)

    @pytest.mark.parametrize("n_sources", [2**63, 10**20])
    def test_source_count_beyond_int64_rejected_before_any_draw(self, n_sources):
        rng = np.random.default_rng(42)
        with pytest.raises(InvalidConfigurationError) as err:
            sample_subgroups(n_sources, [2], 3, rng)
        assert err.value.key == "n_sources"
        assert same_state(rng.bit_generator.state, np.random.default_rng(42).bit_generator.state)

    @pytest.mark.parametrize("count", [2**63, 10**20])
    def test_count_beyond_int64_rejected_before_any_draw(self, count):
        rng = np.random.default_rng(42)
        with pytest.raises(InvalidConfigurationError) as err:
            sample_subgroups(5, [2], count, rng)
        assert err.value.key == "count"
        assert same_state(rng.bit_generator.state, np.random.default_rng(42).bit_generator.state)

    def test_numpy_integer_source_count_accepted(self):
        a = sample_subgroups(np.int64(10), [2, 3], 20, np.random.default_rng(7))
        assert a == sample_subgroups(10, [2, 3], 20, np.random.default_rng(7))


class TestSamplingLaw:
    """The sampler's and the simulated judge's laws, by chi-square tests
    that do not depend on how numpy draws: at K = 6, each subgroup size
    is equally likely, so is every subset of one size, and the judge's
    picks follow the model's probabilities."""

    N_SOURCES, SIZES, COUNT, SEED = 6, [2, 3], 6000, 2024

    def test_every_subset_of_a_size_is_equally_likely(self):
        subgroups = sample_subgroups(
            self.N_SOURCES, self.SIZES, self.COUNT, np.random.default_rng(self.SEED)
        )
        by_size = Counter(len(s) for s in subgroups)
        assert scipy.stats.chisquare([by_size[s] for s in self.SIZES]).pvalue > 1e-3
        counts = Counter(subgroups)
        for size in self.SIZES:
            subsets = list(itertools.combinations(range(1, self.N_SOURCES + 1), size))
            observed = [counts[s] for s in subsets]
            assert sum(observed) == by_size[size]  # members sorted and distinct
            assert scipy.stats.chisquare(observed).pvalue > 1e-3

    def test_judge_picks_follow_the_model(self):
        worths = WorthVector(np.array([0.0, 0.5, -0.5, 1.0, 0.0, -1.0, 0.3]))
        records = simulate_elicitation(
            worths, self.SIZES, self.COUNT, np.random.default_rng(self.SEED)
        )
        picks = {}
        for rec in records:
            picks.setdefault(rec.subgroup, Counter())[rec.choice] += 1
        statistic, dof = 0.0, 0
        for subgroup, counts in picks.items():
            options = (0, *subgroup)
            expected = sum(counts.values()) * np.array(
                [choice_probability(worths, subgroup, k) for k in options]
            )
            observed = np.array([counts[k] for k in options])
            statistic += float(((observed - expected) ** 2 / expected).sum())
            dof += len(subgroup)
        assert scipy.stats.chi2.sf(statistic, dof) > 1e-3


class TestSimulatedJudge:
    def test_dominant_worth_always_wins(self):
        rng = np.random.default_rng(42)
        true = WorthVector(np.array([0.0, 50.0, 0.0]))
        wins = sum(
            simulated_judge(true, (1, 2), rng) == 1 for _ in range(10_000)
        )
        assert wins / 10_000 >= 0.999

    def test_equal_worths_sample_uniformly(self):
        rng = np.random.default_rng(42)
        true = WorthVector(np.zeros(4))
        counts = np.zeros(4)
        for _ in range(10_000):
            counts[simulated_judge(true, (1, 2, 3), rng)] += 1
        np.testing.assert_allclose(counts / 10_000, 0.25, atol=0.02)


class TestRecordsIo:
    def test_round_trip(self, tmp_path):
        records = [
            ChoiceRecord((1, 2, 3), 2),
            ChoiceRecord((4,), 0),
            ChoiceRecord((2, 5), 5),
        ]
        path = tmp_path / "records.txt"
        write_records(path, records)
        assert read_records(path) == records

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("subgroup=1,2;choice=1\nnot a record\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_records(path)
        assert err.value.line_number == 2

    def test_choice_outside_subgroup_rejected_on_read(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("subgroup=1,2;choice=7\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_records(path)

    @PROPERTY
    @given(
        st.lists(
            st.one_of(
                st.builds(
                    "subgroup={};choice={}".format,
                    st.lists(
                        st.sampled_from(["1", "2", "3", "0", "-2", " 4 ", "+3", "\u0663",
                                         "9" * 25, "-" + "9" * 25, "x", ""]),
                        min_size=1, max_size=5,
                    ).map(",".join),
                    st.sampled_from(["0", "1", "2", "3", "4", "+1", " 2", "9" * 25, "y"]),
                ),
                st.sampled_from(["", "   ", "subgroup=1;choice=1;", "subgroup 1", "choice=1"]),
            ),
            max_size=8,
        )
    )
    @example(["subgroup=1,2,2;choice=1", "", "subgroup=1;;choice=1"])
    @example(["subgroup=x;choice=0", "subgroup=1,1;choice=1"])
    @example(["subgroup=1,2,3;choice=1", "subgroup=2,3;choice=9", "subgroup=1,1,2;choice=1"])
    # canonical files (a final newline, no blank line) and near misses
    @example(["subgroup=3,1,2;choice=2", "subgroup=4;choice=0", ""])
    @example([])
    @example(["subgroup=1,2;choice=2", "subgroup=4;choice=0"])
    @example(["subgroup=1,2;choice=2\r", "subgroup=4;choice=0\r", ""])
    @example(["subgroup=1,2;choice=2", "", "subgroup=4;choice=0", ""])
    @example(["subgroup=001,2;choice=0002", "subgroup=04;choice=00", ""])
    @example(["subgroup=1," + "9" * 18 + ";choice=" + "9" * 18, ""])
    @example(["subgroup=1," + "9" * 19 + ";choice=" + "9" * 19, ""])
    @example(["subgroup=1,2;choice=2", "subgroup=4,1,4;choice=0", ""])
    def test_reads_as_one_record_per_line(self, lines):
        """Same records, or the same error on the same line, as a reader
        that matches the grammar and builds one ``ChoiceRecord`` per line."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.txt"
            path.write_text("\n".join(lines), encoding="utf-8")
            assert outcome(read_records, path) == outcome(strict_read, path)

    @PROPERTY
    @given(st.lists(choice_records(), max_size=12))
    @example([ChoiceRecord((2**63,), 2**63), ChoiceRecord((3, 1, 2), 0)])
    def test_writer_matches_fstring_formatter(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.txt", Path(tmp) / "want.txt"
            write_records(got, records)
            fstring_write(want, records)
            assert got.read_bytes() == want.read_bytes()

    @PROPERTY
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=3),
        st.integers(0, 200),
        st.integers(0, 2**32 - 1),
    )
    def test_simulated_blocks_write_as_their_records(self, sizes, count, seed):
        queries = _simulate(WorthVector(np.zeros(13)), sizes, count, np.random.default_rng(seed))
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.txt", Path(tmp) / "want.txt"
            write_records(got, queries)
            fstring_write(want, _records(queries))
            assert got.read_bytes() == want.read_bytes()

    @settings(PROPERTY, max_examples=200)
    @given(
        st.lists(
            st.one_of(
                records_lines(),
                st.lists(st.sampled_from(LINE_PIECES), max_size=10).map("".join),
            ),
            max_size=8,
        )
    )
    @example(["subgroup=1;choice=1;choice=1", "choice=1;choice=1", "subgroup=_1,2;choice=2"])
    @example(["subgroup=1;2;choice=1"])
    @example(["subgroup=1,2;choice=2", "subgroup=1,1;choice=1", "choice=1"])
    def test_near_misses_are_refused_at_their_line(self, lines):
        """Same records, or the same error on the same line, as a reader
        that matches the grammar and builds one ``ChoiceRecord`` per line."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.txt"
            # each line alone, then the whole file
            for text in [*lines, "\n".join(lines)]:
                path.write_text(text, encoding="utf-8")
                assert outcome(read_records, path) == outcome(strict_read, path)

    @PROPERTY
    @given(st.lists(choice_records(max_index=10**18 - 1), max_size=12), st.booleans())
    @example([ChoiceRecord((10**18 - 1, 1), 10**18 - 1), ChoiceRecord((3,), 0)], False)
    @example([], True)
    def test_written_records_read_back_equal(self, records, final_newline):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.txt"
            write_records(path, records)
            if not final_newline:
                path.write_bytes(path.read_bytes().removesuffix(b"\n"))
            assert read_records(path) == records


class TestLipIo:
    def test_fitted_prior_round_trips_through_worth_form(self, tmp_path):
        rng = np.random.default_rng(42)
        records = simulate_elicitation(
            WorthVector(np.array([0.0, 1.0, -0.5, 0.3])), [2, 3], 150, rng
        )
        _, lip = fit_lip(records, 3)
        path = tmp_path / "prior.txt"
        lip.write(path)
        loaded = Lip.read(path)
        np.testing.assert_allclose(loaded.pi, lip.pi, rtol=1e-15)
        np.testing.assert_allclose(loaded.alpha, lip.alpha, rtol=1e-15)
        assert loaded.provenance == "file"

    def test_probability_form_accepted(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("K=2\npi_1=0.9\npi_2=0.01\n", encoding="utf-8")
        loaded = Lip.read(path)
        np.testing.assert_allclose(loaded.pi, [0.9, 0.01])
        assert loaded.alpha is None

    def test_failed_writes_keep_previous_files(self, tmp_path, monkeypatch):
        prior, records = tmp_path / "prior.txt", tmp_path / "records.txt"
        Lip.uniform(2, 0.1).write(prior)
        write_records(records, [ChoiceRecord((1, 2), 1)])
        before = {path: path.read_bytes() for path in (prior, records)}

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("lipem.files.os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            Lip.uniform(3, 0.2).write(prior)
        with pytest.raises(OSError, match="disk full"):
            write_records(records, [ChoiceRecord((2, 3), 0)] * 4)
        assert {path: path.read_bytes() for path in before} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prior.txt", "records.txt"]

    def test_uniform_constructor(self):
        lip = Lip.uniform(4, 0.05)
        np.testing.assert_allclose(lip.pi, 0.05)
        assert lip.provenance == "uniform"
        assert lip.n_sources == 4

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("pi_1=0.5\n", encoding="utf-8")
        with pytest.raises(ParseError):
            Lip.read(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("K=2\nalpha_0=0\nalpha_1=1\nalpha_1=5\nalpha_2=0\n", 4),
            ("K=2\npi_1=0.5\n\npi_01=0.2\npi_2=0.1\n", 4),
        ],
    )
    def test_repeated_entry_rejected(self, tmp_path, text, line):
        path = tmp_path / "prior.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"line {line}") as err:
            Lip.read(path)
        assert err.value.line_number == line

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("K=1\nalpha_0=0\n\npi_1=0.5\nalpha_1=0\n", 4, "mixes alpha_ and pi_ entries"),
            ("K=1\npi_1=0.5\nalpha_0=0\n", 3, "mixes alpha_ and pi_ entries"),
            ("\nK=2\nalpha_0=0\nalpha_1=0\n", 2, "needs alpha_0..alpha_2, got [0, 1]"),
            ("K=3\npi_1=0.5\n\npi_3=0.2\n", 1, "needs pi_1..pi_3, got [1, 3]"),
            ("\nK=two\npi_1=0.5\npi_2=0.5\n", 2, "bad K header 'K=two'"),
            ("\n\nK=0\npi_1=0.5\n", 3, "K must be at least 1, got 0"),
            ("K=1\npi_1=0.5\n\npi_2 0.5\n", 4, "expected name=value"),
            ("K=1\npi_1=half\n", 2, "bad float 'half'"),
            ("K=1\npi_1=0.5\nbeta_1=0.5\n", 3, "unknown entry 'beta_1'"),
            ("K=1\npi_one=0.5\n", 2, "bad index in 'pi_one'"),
        ],
    )
    def test_entry_errors_name_their_line(self, tmp_path, text, line, message):
        # a mix names the first line of the second kind; a count that
        # misses K names the K header; blank lines count
        path = tmp_path / "prior.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            Lip.read(path)
        assert message in str(err.value)
        assert f"line {line}" in str(err.value)
        assert err.value.line_number == line

    def test_source_count_beyond_the_entries_rejected(self, tmp_path):
        path = tmp_path / "prior.txt"
        for entry in ["pi_1=0.5", "alpha_0=0"]:
            path.write_text(f"K={10**20}\n{entry}\n", encoding="utf-8")
            with pytest.raises(ParseError, match="need"):
                Lip.read(path)

    @pytest.mark.parametrize("text, line", [("K=-2\n", 1), ("\nK=0\nalpha_0=0\n", 2)])
    def test_source_count_below_one_rejected(self, tmp_path, text, line):
        path = tmp_path / "prior.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="at least 1") as err:
            Lip.read(path)
        assert err.value.line_number == line

    @pytest.mark.parametrize("worth", ["nan", "inf", "-inf"])
    def test_non_finite_worth_rejected(self, tmp_path, worth):
        # in a file, at its line; built directly, by Lip
        path = tmp_path / "prior.txt"
        path.write_text(f"K=1\nalpha_0={worth}\nalpha_1=0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="finite") as err:
            Lip.read(path)
        assert err.value.line_number == 2
        with pytest.raises(InvalidConfigurationError, match="finite"):
            Lip(np.array([0.5]), "file", alpha=np.array([float(worth), 0.0]))

    def test_probability_outside_open_interval_rejected(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("K=1\npi_1=1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2") as err:
            Lip.read(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize(
        "entry",
        ["pi_1=1.5", "pi_1=nan", "pi_1=-0.0", "alpha_1=inf", "alpha_1=800", "alpha_1=-800"],
    )
    def test_an_entry_giving_no_prior_names_its_file_and_line(self, tmp_path, entry):
        # a worth whose sigmoid rounds to 0 or 1 gives no prior either;
        # the null's worth is not a prior, so only its finiteness counts
        path = tmp_path / "prior.txt"
        head = "pi_2=0.5" if entry.startswith("pi") else "alpha_0=800\nalpha_2=0"
        path.write_text(f"K=2\n{head}\n\n{entry}\n", encoding="utf-8")
        line = 4 if entry.startswith("pi") else 5
        with pytest.raises(ParseError) as err:
            Lip.read(path)
        assert str(path) in str(err.value) and f"line {line}" in str(err.value)
        assert err.value.line_number == line
        path.write_text(f"K=2\n{head}\n\n{entry.split('=')[0]}=0.25\n", encoding="utf-8")
        assert Lip.read(path).n_sources == 2


class TestNumpyOnly:
    """The package runs on numpy alone; scipy is only the tests' oracle."""

    def test_import_loads_no_scipy(self):
        package_root = Path(lip_module.__file__).resolve().parents[1]
        path = os.pathsep.join(
            p for p in (str(package_root), os.environ.get("PYTHONPATH")) if p
        )
        code = (
            "import sys, lipem; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_expit_and_logit_are_bit_equal_to_scipy(self):
        rng = np.random.default_rng(42)
        # the overflow edge of exp and the ends of logit's log1p branch
        v = np.concatenate([
            rng.normal(0.0, 30.0, 20_000),
            [0.0, -0.0, 709.9, -709.9, 800.0, -800.0, np.inf, -np.inf],
        ])
        p = np.concatenate([
            rng.uniform(0.0, 1.0, 20_000),
            [0.3, 0.65, np.nextafter(0.3, 0.0), np.nextafter(0.65, 1.0), 0.5],
            [1e-300, 1.0 - 2.0**-53],
        ])
        want_expit, want_logit = scipy.special.expit(v), scipy.special.logit(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_expit, got_logit = lip_module.expit(v), lip_module.logit(p)
            matrix = lip_module.expit(v[:6].reshape(2, 3))
            scalar = lip_module.logit(0.01)
        assert got_expit.tobytes() == want_expit.tobytes()
        assert got_logit.tobytes() == want_logit.tobytes()
        assert matrix.tobytes() == want_expit[:6].tobytes() and matrix.shape == (2, 3)
        assert scalar.shape == () and float(scalar) == scipy.special.logit(0.01)
