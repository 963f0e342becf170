"""Preference-elicited priors over candidate sources.

A judge is shown subgroups S of candidate sources plus an always-present
"none of these" null option and picks one winner per query.  Each source k
carries a worth alpha_k and the null carries alpha_0; the probability that
the judge picks option k from subgroup S is the conditional logit

    p(k | S) = exp(alpha_k) / (exp(alpha_0) + sum_{j in S} exp(alpha_j)).

Fitting the worths on a record set M = {(S_m, k_m)} minimizes the negative
log-likelihood plus a quadratic pull of every source worth toward
logit(p0); the null worth is never regularized.  The fitted per-source
prior is pi_k = sigmoid(alpha_k), read against the convention alpha_0 = 0.

Compiled queries
----------------
The fit and the simulated judge do their arithmetic on arrays.  A
record list is compiled once into one block per option count: the
records' positions and an (m, n) array of option indices with the null
in column 0, stored column-major, so the softmax's max and sum across a
row's options are passes over whole columns.  A block needs no padding,
so each row's normaliser is summed over exactly its n options, in the
same order as for one record alone.  numpy adds a lone row of fewer
than 8 entries left to right and a longer one pairwise, while it sums a
column-major table left to right at every width; so from 8 options on
the sum runs over a C-order copy (``_row_sums``).  The objective adds
its per-record terms in record order (a running sum, not numpy's
pairwise sum), so its value is bit-equal to a plain loop over the
records; a quasi-Newton solve with numeric gradients moves measurably
when those last bits change.  Each block's log normalisers are one
``np.log`` call, numpy's log as for one record alone; it differs from
``math.log`` in the last bit on some inputs (numpy's SIMD log), but the
Newton fit does not read that bit: the log enters only the objective's
value, the value only the Armijo test, which allows 64 eps |f| of
noise, and the gradient and Hessian never read the log.  The gradient
and Hessian are scatter-adds (``np.bincount``).  The Hessian scatters
p (1 - p) onto its diagonal and -p_i p_j once per pair i < j of a row's
options, in one call per chunk of up to ``_PAIR_CELLS`` pairs, and
mirrors the pairs, so its weight temporaries stay bounded however large
a block is.  Records are not aggregated into counts of identical
(subgroup, choice) pairs: with K = 50 and subgroups of 3 to 5 members,
2,500 simulated records hold over 2,470 distinct pairs, so counting
would save almost nothing.

A fit compiles its queries once more, into a fit plan (``_plan``):
every index array the kernels read that does not depend on the worths.
Per block that is the records' places among the objective's terms, the
options raveled column-major, the chosen indices, the option pairs and
each chunk's Hessian cells, 8 bytes per option pair per record (about
206 KB for 2,500 records of 3 to 5 members); and the choice counts
once.  Each Newton iteration then only does arithmetic, and adds in the
same order as without a plan, so its numbers are bit-equal.

Settings and K are checked, and the plan built, once per fit, and each
Newton iterate's softmax is computed once: the Hessian reuses the
probabilities of the line search's accepted evaluation, which are
bit-equal to recomputing them.

The records commands never build a ``ChoiceRecord`` per query.  The
sampler's stream is that of one ``Generator.integers`` and one
``Generator.choice(replace=False)`` call per query, which fixes every
simulated records file, but it makes neither call per query: a query's
draws are bounded integers whose bounds depend only on its size, so a
block of queries is one array-bounded ``integers`` call, its sizes
guessed before and checked after (``_draw``).  Only where ``choice``
shuffles the tail of range(K) (K > 10000 and a size above K // 50) are
the two calls made, once per query.  ``simulate-oracle`` writes each
block from one line template.

``fit-lip`` reads a records file on one path.  Every line must be as
``write_records`` writes it: digits only, at most 18 per field, each
line ending in a newline (a CRLF line reads so too, and a missing final
newline is added).  One ``re.sub`` removing each such line must leave
nothing; one ``np.fromstring`` call then parses the fields, and each
option count's members are sorted as a table.  Array tests check the
records (members at least 1 and distinct, the choice 0 or a member).
Only the first bad line or record is looked at again, to word its error.

File formats
------------
Records: one query per line, ``subgroup=1,4,7;choice=4`` (choice 0 means
the null won).  Prior files: a ``K=<int>`` header followed by either
``alpha_<k>=<float>`` lines for k = 0..K or ``pi_<k>=<float>`` lines for
k = 1..K.  Both are UTF-8 text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    InvalidChoiceError,
    InvalidConfigurationError,
    OptimizationFailureError,
    ParseError,
)
from .files import read_text, write_text_atomic

__all__ = [
    "P0",
    "ChoiceRecord",
    "WorthVector",
    "Lip",
    "choice_probability",
    "nll_objective",
    "fit_lip",
    "minimize_worths",
    "NewtonResult",
    "sample_subgroups",
    "simulated_judge",
    "simulate_elicitation",
    "read_records",
    "write_records",
    "expit",
    "logit",
]

# the flat prior: every source's relevance probability when nothing is
# known, and the point the fitted worths are pulled toward
P0 = 0.01


def expit(values) -> np.ndarray:
    """The sigmoid 1 / (1 + exp(-v)) of each entry; 0.0 where exp(-v)
    overflows.

    Computed entry by entry with ``math``, because numpy's vectorised
    exp and log differ from it in the last bit on some inputs, and an
    ill-conditioned EM run (a turbofan target with few cycles) amplifies
    that bit past 1e-10.
    """
    values = np.asarray(values, dtype=float)
    return np.array([_expit(v) for v in values.ravel().tolist()]).reshape(values.shape)


def _expit(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def logit(probs) -> np.ndarray:
    """log(p / (1 - p)) of each entry p in (0, 1), with ``math`` as in
    ``expit``.

    On [0.3, 0.65] the ratio would cost digits, so there the value is
    log1p(s) - log1p(-s) with s = 2 (p - 1/2).
    """
    probs = np.asarray(probs, dtype=float)
    return np.array([_logit(p) for p in probs.ravel().tolist()]).reshape(probs.shape)


def _logit(p: float) -> float:
    if p < 0.3 or p > 0.65:
        return math.log(p / (1.0 - p))
    s = 2.0 * (p - 0.5)
    return math.log1p(s) - math.log1p(-s)


@dataclass(frozen=True)
class ChoiceRecord:
    """One judged query: the subgroup shown and the winning option.

    ``subgroup`` holds distinct source indices in {1..K}, stored sorted
    ascending; ``choice`` is a member of the subgroup, or 0 for the null.
    """

    subgroup: tuple[int, ...]
    choice: int

    def __post_init__(self):
        sub = tuple(sorted(int(i) for i in self.subgroup))
        if len(sub) == 0:
            raise InvalidConfigurationError("subgroup must be nonempty")
        if len(set(sub)) != len(sub):
            raise InvalidConfigurationError(f"subgroup has repeated indices: {sub}")
        if any(i < 1 for i in sub):
            raise InvalidConfigurationError(f"source indices must be >= 1, got {sub}")
        ch = int(self.choice)
        if ch != 0 and ch not in sub:
            raise InvalidChoiceError(f"choice {ch} is not in subgroup {sub} or the null")
        object.__setattr__(self, "subgroup", sub)
        object.__setattr__(self, "choice", ch)


@dataclass(frozen=True)
class WorthVector:
    """Worths (alpha_0, alpha_1, ..., alpha_K); index 0 is the null."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.alpha, dtype=float).reshape(-1)
        if arr.size < 1:
            raise InvalidConfigurationError("worth vector must include the null entry")
        object.__setattr__(self, "alpha", arr)

    @property
    def n_sources(self) -> int:
        return self.alpha.size - 1


@dataclass(frozen=True)
class Lip:
    """Per-source prior relevance probabilities pi_k = sigmoid(alpha_k).

    ``provenance`` records where the numbers came from: "fitted" (from
    records), "uniform" (every source at p0), or "file" (loaded).  When
    the full worth vector is known it is kept alongside so round trips
    preserve it.
    """

    pi: np.ndarray
    provenance: str
    alpha: np.ndarray | None = None

    _PROVENANCES = ("fitted", "uniform", "file")

    def __post_init__(self):
        arr = np.asarray(self.pi, dtype=float).reshape(-1)
        if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise InvalidConfigurationError("prior probabilities must lie strictly in (0, 1)")
        if self.provenance not in self._PROVENANCES:
            raise InvalidConfigurationError(
                f"provenance must be one of {self._PROVENANCES}, got {self.provenance!r}"
            )
        object.__setattr__(self, "pi", arr)
        if self.alpha is not None:
            al = np.asarray(self.alpha, dtype=float).reshape(-1)
            if al.size != arr.size + 1:
                raise InvalidConfigurationError("alpha must have one more entry than pi")
            if not np.all(np.isfinite(al)):
                raise InvalidConfigurationError("worths alpha must be finite")
            object.__setattr__(self, "alpha", al)

    @property
    def n_sources(self) -> int:
        return self.pi.size

    @staticmethod
    def uniform(n_sources: int, p0: float = P0) -> "Lip":
        if not (0.0 < p0 < 1.0):
            raise InvalidConfigurationError(
                f"p0 must lie strictly in (0, 1), got {p0!r}", key="p0"
            )
        return Lip(np.full(n_sources, p0), "uniform")

    @staticmethod
    def from_worths(worths: WorthVector) -> "Lip":
        return Lip(expit(worths.alpha[1:]), "fitted", alpha=worths.alpha.copy())

    def write(self, path) -> None:
        lines = [f"K={self.n_sources}"]
        if self.alpha is not None:
            lines += [f"alpha_{k}={float(self.alpha[k])!r}" for k in range(self.alpha.size)]
        else:
            lines += [f"pi_{k + 1}={float(self.pi[k])!r}" for k in range(self.n_sources)]
        write_text_atomic(path, "\n".join(lines) + "\n")

    @staticmethod
    def read(path) -> "Lip":
        text = read_text(path)
        # blank lines are skipped but still counted in line numbers
        lines = [
            (lineno, ln.strip())
            for lineno, ln in enumerate(text.splitlines(), start=1)
            if ln.strip()
        ]
        if not lines or not lines[0][1].startswith("K="):
            raise ParseError(
                f"{path}: first line must be 'K=<int>'",
                line_number=lines[0][0] if lines else 1,
            )
        header_line, header = lines[0]
        try:
            k = int(header[2:])
        except ValueError as exc:
            raise ParseError(
                f"{path}: bad K header {header!r} on line {header_line}",
                line_number=header_line,
            ) from exc
        if k < 1:
            raise ParseError(
                f"{path}: K must be at least 1, got {k} on line {header_line}", header_line
            )
        alpha = {}
        pi = {}
        for lineno, line in lines[1:]:
            name, sep, value = line.partition("=")
            if not sep:
                raise ParseError(f"{path}: expected name=value on line {lineno}", lineno)
            try:
                val = float(value)
            except ValueError as exc:
                raise ParseError(f"{path}: bad float {value!r} on line {lineno}", lineno) from exc
            prefix, _, index = name.partition("_")
            if prefix not in ("alpha", "pi"):
                raise ParseError(f"{path}: unknown entry {name!r} on line {lineno}", lineno)
            try:
                number = int(index)
            except ValueError as exc:
                raise ParseError(
                    f"{path}: bad index in {name!r} on line {lineno}", lineno
                ) from exc
            entries, other = (alpha, pi) if prefix == "alpha" else (pi, alpha)
            if other:
                raise ParseError(f"{path}: mixes alpha_ and pi_ entries on line {lineno}", lineno)
            if number in entries:
                raise ParseError(f"{path}: repeated {prefix}_{number} on line {lineno}", lineno)
            if not math.isfinite(val):
                raise ParseError(f"{path}: {name} must be finite, got {val} on line {lineno}", lineno)
            if prefix == "pi" or number:  # alpha_0 is the null's worth, not a prior
                prob = val if prefix == "pi" else _expit(val)
                if not 0.0 < prob < 1.0:
                    raise ParseError(
                        f"{path}: {name}={val!r} on line {lineno} gives prior probability "
                        f"{prob!r}, not strictly inside (0, 1)",
                        lineno,
                    )
            entries[number] = val
        need = f"{path}: K on line {header_line} needs"
        if alpha:
            # a count that misses K builds no list of K entries
            if len(alpha) != k + 1 or sorted(alpha) != list(range(k + 1)):
                raise ParseError(f"{need} alpha_0..alpha_{k}, got {sorted(alpha)}", header_line)
            vec = np.array([alpha[i] for i in range(k + 1)])
            return Lip(expit(vec[1:]), "file", alpha=vec)
        if len(pi) != k or sorted(pi) != list(range(1, k + 1)):
            raise ParseError(f"{need} pi_1..pi_{k}, got {sorted(pi)}", header_line)
        return Lip(np.array([pi[i] for i in range(1, k + 1)]), "file")


# ---------------------------------------------------------------------------
# Choice model
# ---------------------------------------------------------------------------


class _Queries(NamedTuple):
    """Judged queries as arrays, built once per record list or file.

    ``blocks`` holds one ``(rows, options)`` pair per option count: the
    positions of those records in the list, and their option indices as
    one row per record with the null in column 0.  ``chosen`` holds each
    record's chosen index, in record order.
    """

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    chosen: np.ndarray


def _tabulate(widths: list[int], values: dict[int, list[int]]) -> _Queries:
    """Compile accumulated queries: each record's option count, in record
    order, and per option count its records' ``(choice, *sorted members)``
    entries, in record order, as one flat list or one row per record.

    If an index does not fit in int64, the arrays hold Python ints until
    ``_compile`` has checked every index against K.
    """
    values = {w: flat for w, flat in sorted(values.items()) if len(flat)}
    try:
        tables = {w: np.asarray(flat, dtype=np.int64) for w, flat in values.items()}
    except OverflowError:
        tables = {w: np.array(flat, dtype=object) for w, flat in values.items()}
    widths = np.asarray(widths, dtype=np.int64)
    # the tables' dtype, or int64 when there are none
    chosen = np.zeros(widths.size, dtype=next(iter(tables.values()), widths).dtype)
    blocks = []
    for width, table in tables.items():
        rows = np.flatnonzero(widths == width)
        # column-major, so a pass across the options is a pass over columns
        options = np.asfortranarray(table.reshape(rows.size, width))
        chosen[rows] = options[:, 0]
        options[:, 0] = 0
        blocks.append((rows, options))
    return _Queries(tuple(blocks), chosen)


def _compile(records: Iterable[ChoiceRecord] | _Queries, n_sources=None) -> _Queries:
    """The queries of ``records``; given K, every index is checked against it.

    An index beyond int64 (held as a Python int, see ``_tabulate``) exceeds
    every K a fit can allocate, so checked queries are int64 arrays.
    """
    if not isinstance(records, _Queries):
        widths, values = [], {}
        for rec in records:
            widths.append(len(rec.subgroup) + 1)
            values.setdefault(widths[-1], []).extend((rec.choice, *rec.subgroup))
        records = _tabulate(widths, values)
    if n_sources is None:
        return records
    beyond = [
        (rows[i], options[i, 1:])
        for rows, options in records.blocks
        for i in np.flatnonzero(options[:, -1] > n_sources)[:1]
    ]
    if beyond:
        _, members = min(beyond, key=lambda hit: hit[0])
        raise InvalidConfigurationError(
            f"subgroup {tuple(members.tolist())} references a source beyond K={n_sources}",
            key="n_sources",
        )
    return records


# the most option pairs one Hessian scatter takes: larger scatters save
# little time, and their weight temporaries raise the process's peak
# memory (the fit plan holds every pair's cell, chunk by chunk)
_PAIR_CELLS = 1 << 13


class _Block(NamedTuple):
    """One option count's queries, laid out for the fit's kernels.

    ``at`` holds the records' places behind the objective's leading 0
    (their positions plus 1), ``flat`` the options raveled column-major,
    ``chosen`` each record's chosen index and ``pairs`` the column pairs
    i < j.  ``chunks`` splits the rows into runs of at most
    ``_PAIR_CELLS`` pairs, each with the Hessian cells a * n + b of its
    rows' option pairs a, b, pair by pair.
    """

    at: np.ndarray
    options: np.ndarray
    flat: np.ndarray
    chosen: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]
    chunks: tuple[tuple[slice, np.ndarray], ...]


class _Plan(NamedTuple):
    """Checked queries with everything the fit indexes by that does not
    depend on the worths: one ``_Block`` per option count, the record
    count and each option's float choice count."""

    blocks: tuple[_Block, ...]
    size: int
    counts: np.ndarray


def _plan(queries: _Queries, n_sources: int) -> _Plan:
    """The fit plan of queries checked against ``n_sources``."""
    n = n_sources + 1
    blocks = []
    for rows, options in queries.blocks:
        first, second = np.triu_indices(options.shape[1], 1)
        step = max(1, _PAIR_CELLS // first.size)
        chunks = []
        for top in range(0, rows.size, step):
            span = slice(top, top + step)
            # pair by pair, each over the chunk's rows: the column-major
            # order of a (rows, pairs) table, which the scatter adds in
            cells = options.T[first, span] * n
            cells += options.T[second, span]
            chunks.append((span, cells.ravel()))
        blocks.append(_Block(
            rows + 1, options, options.ravel("F"), queries.chosen[rows],
            (first, second), tuple(chunks),
        ))
    counts = np.bincount(queries.chosen, minlength=n).astype(float)
    return _Plan(tuple(blocks), queries.chosen.size, counts)


def _each_query(queries: _Queries, form) -> list:
    """``form(members, choice)`` of each query, in record order."""
    out: list = [None] * queries.chosen.size
    chosen = queries.chosen.tolist()
    for rows, options in queries.blocks:
        for row, members in zip(rows.tolist(), options[:, 1:].tolist()):
            out[row] = form(members, chosen[row])
    return out


def _records(queries: _Queries) -> list[ChoiceRecord]:
    return _each_query(queries, lambda members, c: ChoiceRecord(tuple(members), c))


def _softmax(alpha: np.ndarray, options: np.ndarray):
    """Choice probabilities for each row of an option block.

    Each row is shifted by its largest worth before exponentiating, so
    worths of any magnitude are safe.  Returns the probabilities, the
    shifts and the shifted normalisers.
    """
    vals = alpha[options]
    shift = vals.max(axis=1)
    # worths more than the float range apart subtract to -inf, and
    # exp(-inf) is the exact 0 such an option's probability is
    with np.errstate(over="ignore"):
        ex = np.exp(vals - shift[:, None])
    denom = _row_sums(ex)
    return ex / denom[:, None], shift, denom


def _row_sums(table: np.ndarray) -> np.ndarray:
    """Each row's sum, bit-equal to summing that row alone.  numpy adds a
    row left to right below 8 entries and pairwise from 8 on; a
    column-major table is summed left to right at every width, so from 8
    entries on a C-order copy is summed."""
    if table.shape[1] >= 8:
        table = np.ascontiguousarray(table)
    return table.sum(axis=1)


_SETTING_TYPES = {
    "p0": (Real, "a number"),
    "eps": (Real, "a number"),
    "tol": (Real, "a number"),
    "max_iters": (Integral, "an integer"),
}


def _check_settings(**settings) -> None:
    """Reject a mistyped or out-of-range fit setting, naming it."""
    # values may come straight from JSON; check types before ranges
    for name, value in settings.items():
        kind, noun = _SETTING_TYPES[name]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise InvalidConfigurationError(
                f"{name} must be {noun}, got {value!r}", key=name
            )
    # the fit starts every source at logit(p0), and its sigmoid must stay
    # a probability the prior can hold
    p0 = settings["p0"]
    if not (0.0 < p0 < 1.0 and 0.0 < _expit(_logit(p0)) < 1.0):
        raise InvalidConfigurationError(
            f"p0 must lie strictly in (0, 1), also through its logit, got {p0!r}", key="p0"
        )
    if not settings["eps"] >= 0.0:
        raise InvalidConfigurationError("eps must be nonnegative", key="eps")


def choice_probability(worths: WorthVector, subgroup, choice: int) -> float:
    """Probability the judge picks ``choice`` from ``subgroup`` plus null."""
    record = ChoiceRecord(tuple(subgroup), choice)
    ((_, options),) = _compile([record], worths.n_sources).blocks
    probs = _softmax(worths.alpha, options)[0][0]
    position = 0 if record.choice == 0 else record.subgroup.index(record.choice) + 1
    return float(probs[position])


def nll_objective(
    worths: WorthVector,
    records: Sequence[ChoiceRecord],
    p0: float = P0,
    eps: float = 0.1,
) -> tuple[float, np.ndarray]:
    """Regularized negative log-likelihood of the records, with gradient.

    Value: -sum_m log p(k_m | S_m) + eps * sum_{k>=1} (alpha_k - logit(p0))^2.
    The null worth alpha_0 carries no regularization.
    """
    _check_settings(p0=p0, eps=eps)
    plan = _plan(_compile(records, worths.n_sources), worths.n_sources)
    value, grad, _ = _nll(worths.alpha, plan, p0, eps)
    return value, grad


def _nll(alpha: np.ndarray, plan: _Plan, p0: float, eps: float):
    """``nll_objective`` on a fit plan, plus each block's choice
    probabilities (``_nll_hessian`` reuses them at the same worths)."""
    # -log p(k_m | S_m) per record behind a leading 0, summed in record
    # order (see the module doc)
    terms = np.zeros(plan.size + 1)
    grad = -plan.counts
    block_probs = []
    for block in plan.blocks:
        probs, shift, denom = _softmax(alpha, block.options)
        # numpy's log of each normaliser, as for one record alone; it may
        # differ from math.log in the last bit, which only the Armijo
        # test reads, within its 64 eps |f| of noise (see the module doc)
        terms[block.at] = np.log(denom) + shift - alpha[block.chosen]
        grad += np.bincount(block.flat, probs.ravel("F"), minlength=alpha.size)
        block_probs.append(probs)
    value = float(np.cumsum(terms)[-1])
    dev = alpha[1:] - float(logit(p0))
    value += eps * float(dev @ dev)
    # 2 eps overflows to inf past 8.9e307; inf * 0 is a nan gradient
    # that the fit reports, so numpy need not warn of it
    with np.errstate(invalid="ignore"):
        grad[1:] += 2.0 * eps * dev
    return value, grad, block_probs


def _nll_hessian(alpha: np.ndarray, plan: _Plan, eps: float, block_probs) -> np.ndarray:
    """The objective's Hessian on a fit plan; ``block_probs`` are the
    probabilities ``_nll`` returned for these worths and that plan."""
    n = alpha.size
    # each record adds diag(p) - p p' on its options: p (1 - p) on the
    # diagonal, and -p_i p_j at (a, b) and (b, a) for each pair i < j of
    # its options a, b, which are scattered once and mirrored
    diag = np.zeros(n)
    upper = np.zeros(n * n)
    for block, probs in zip(plan.blocks, block_probs):
        diag += np.bincount(block.flat, (probs * (1.0 - probs)).ravel("F"), minlength=n)
        first, second = block.pairs
        by_option = probs.T
        for rows, cells in block.chunks:
            weights = by_option[first, rows]
            weights *= by_option[second, rows]
            upper += np.bincount(cells, weights.ravel(), minlength=n * n)
    upper = upper.reshape(n, n)
    hess = np.diag(diag) - upper - upper.T
    hess[1:, 1:] += 2.0 * eps * np.eye(n - 1)
    return hess


@dataclass(frozen=True)
class NewtonResult:
    """A converged fit.  ``evaluations`` counts objective evaluations and
    ``backtracks`` the line search's halvings of a step, so there is one
    evaluation at the start, one per iteration and one per backtrack.
    ``jitter`` is the largest ridge any step added to the Hessian's
    diagonal (0.0 if no step was taken), and ``fallbacks`` counts the
    steps that fell back to steepest descent, because the solve failed
    or its direction did not descend."""

    worths: WorthVector
    objective: float
    gradient_norm: float
    iterations: int
    objective_trace: tuple[float, ...]
    evaluations: int = 0
    backtracks: int = 0
    jitter: float = 0.0
    fallbacks: int = 0


def minimize_worths(
    records: Sequence[ChoiceRecord],
    n_sources: int,
    p0: float = P0,
    eps: float = 0.1,
    tol: float = 1e-8,
    max_iters: int = 200,
) -> NewtonResult:
    """Damped Newton descent on the regularized choice likelihood.

    Starts every source worth at logit(p0) and the null worth at 0,
    takes Newton steps with a backtracking (Armijo) line search, and
    stops when the gradient infinity norm falls to ``tol``.  The
    objective is convex, so the trace is monotone nonincreasing.
    """
    if isinstance(n_sources, bool) or not isinstance(n_sources, Integral) or n_sources < 1:
        raise InvalidConfigurationError(
            f"need at least one source, got {n_sources!r}", key="n_sources"
        )
    _check_settings(p0=p0, eps=eps, tol=tol, max_iters=max_iters)
    # a gradient norm is never negative, so a negative tol is never met
    if not tol >= 0.0:
        raise InvalidConfigurationError("tol must be nonnegative", key="tol")
    if max_iters < 0:
        raise InvalidConfigurationError("max_iters must be nonnegative", key="max_iters")
    # the Newton step holds a dense (K+1) x (K+1) Hessian of float64
    if 8 * (n_sources + 1) ** 2 > np.iinfo(np.intp).max:
        raise InvalidConfigurationError(
            f"{n_sources} sources is more than numpy can size arrays for",
            key="n_sources",
        )
    # settings and K are checked, and the queries laid out, once, here
    plan = _plan(_compile(records, n_sources), n_sources)
    alpha = np.concatenate(([0.0], np.full(n_sources, float(logit(p0)))))
    worths = WorthVector(alpha)
    value, grad, probs = _nll(alpha, plan, p0, eps)
    trace = [value]
    backtracks = fallbacks = 0
    largest_jitter = 0.0
    for iteration in range(max_iters + 1):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= tol:
            return NewtonResult(
                worths, value, gnorm, iteration, tuple(trace),
                1 + iteration + backtracks, backtracks, largest_jitter, fallbacks,
            )
        if iteration == max_iters:
            raise OptimizationFailureError(
                f"no convergence after {max_iters} iterations (|grad|_inf={gnorm:.3e})",
                last_iterate=worths,
            )
        if not math.isfinite(gnorm):  # no Newton step can recover from here
            raise OptimizationFailureError(
                f"non-finite gradient at iteration {iteration}", last_iterate=worths
            )
        hess = _nll_hessian(worths.alpha, plan, eps, probs)
        # tiny ridge keeps the flat null direction solvable
        jitter = 1e-10 * (1.0 + float(np.trace(hess)) / hess.shape[0])
        largest_jitter = max(largest_jitter, jitter)
        try:
            step = np.linalg.solve(hess + jitter * np.eye(hess.shape[0]), -grad)
        except np.linalg.LinAlgError:
            step = -grad
            fallbacks += 1
        # cap the step so a flat valley (e.g. an unregularized null worth
        # on win-only records) is walked down until the gradient test
        # trips, instead of jumped past into sigmoid saturation
        longest = float(np.max(np.abs(step)))
        if longest > 10.0:
            step = step * (10.0 / longest)
        slope = float(grad @ step)
        if slope >= 0.0:  # not a descent direction; fall back to steepest descent
            step = -grad
            slope = float(grad @ step)
            fallbacks += 1
        # near the optimum the Armijo decrease sinks below the float
        # resolution of the objective; tolerate that much noise so the
        # full Newton step still lands and polishes the gradient
        noise = 64.0 * np.finfo(float).eps * max(1.0, abs(value))
        scale = 1.0
        for halvings in range(60):
            cand = WorthVector(worths.alpha + scale * step)
            cand_value, cand_grad, cand_probs = _nll(cand.alpha, plan, p0, eps)
            if cand_value <= value + 1e-4 * scale * slope + noise:
                break
            scale *= 0.5
        # the 60th candidate is taken as it is: no halving follows it
        backtracks += halvings
        worths, value, grad, probs = cand, cand_value, cand_grad, cand_probs
        trace.append(value)


def fit_lip(
    records: Sequence[ChoiceRecord],
    n_sources: int,
    p0: float = P0,
    eps: float = 0.1,
    tol: float = 1e-8,
    max_iters: int = 200,
) -> tuple[WorthVector, Lip]:
    """Fit worths to judged records and read off the per-source prior.

    With zero records the initializer is already stationary, so the
    returned prior is exactly p0 for every source.
    """
    result = minimize_worths(records, n_sources, p0=p0, eps=eps, tol=tol, max_iters=max_iters)
    return result.worths, Lip.from_worths(result.worths)


# ---------------------------------------------------------------------------
# Query sampling and simulated judging
# ---------------------------------------------------------------------------


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


# the most 32-bit words one block of queries takes; larger blocks are
# faster but raise the process's peak memory
_BLOCK_WORDS = 1 << 11


def _bound_table(n_sources: int, sizes: list[int]) -> np.ndarray:
    """Per subgroup size (a row each), the inclusive upper bound of each
    draw one query of that size makes, in stream order, padded with 0s:
    a draw on [0, 0] takes no word and reads 0, in numpy as here."""
    rows = []
    for size in sizes:
        # Floyd's draws on [0, j], j = K - s .. K - 1, then the shuffle's
        # on [0, i], i = s - 1 .. 1, whose values the sort discards
        rows.append([len(sizes) - 1, *range(n_sources - size, n_sources), *range(size - 1, 0, -1)])
    table = np.zeros((len(rows), max(map(len, rows))), dtype=np.int64)
    for row, draws in zip(table, rows):
        row[: len(draws)] = draws
    return table


def _members(draws: np.ndarray, n_sources: int, size: int) -> np.ndarray:
    """The members (from 0), in increasing order, that the member draws of
    queries of one size make, one query per row."""
    # Floyd's t-th draw, on [0, K - s + t], is the t-th member unless an
    # earlier member holds it; then K - s + t is
    members = draws[:, :size].copy()
    for t in range(1, size):
        taken = (members[:, :t] == members[:, t, None]).any(axis=1)
        members[taken, t] = n_sources - size + t
    members.sort(axis=1)
    return members


def _draw(n_sources: int, sizes: Sequence[int], count: int, gen) -> _Queries:
    """``count`` subgroups as compiled queries whose choices are all 0:
    size uniform over ``sizes``, members distinct and uniform over {1..K}.

    The stream is that of one ``gen.integers(len(sizes))`` and one
    ``gen.choice(K, size, replace=False)`` per query, in query order; it
    fixes every simulated records file.  Neither call is made per query:
    a query's draws have bounds that depend only on its size
    (``_bound_table``), and an array-bounded ``gen.integers`` call draws
    each value as the scalar call inside ``choice`` does.  A block's
    sizes are guessed from its raw 32-bit words, as if no word were
    rejected, and the generator is rewound; then the block is drawn in
    one call.  The queries before the first size that differs from its
    guess are exact, and so is that size: the block keeps those queries
    and draws them again.  Where ``choice`` shuffles the tail of range(K)
    instead of taking Floyd's algorithm (K > 10000 and the largest size
    above K // 50), the two calls are made, once per query.  The stream
    tests in tests/test_lip.py compare every case with the per-query
    calls, so they fail on a numpy that draws ``choice`` another way.
    """
    if isinstance(n_sources, bool) or not isinstance(n_sources, Integral):
        raise InvalidConfigurationError(
            f"n_sources must be an integer, got {n_sources!r}", key="n_sources"
        )
    if isinstance(count, bool) or not isinstance(count, Integral):
        raise InvalidConfigurationError(
            f"count must be an integer, got {count!r}", key="count"
        )
    if not 0 <= count <= np.iinfo(np.int64).max:
        raise InvalidConfigurationError(
            f"count must be nonnegative and within int64, got {count}", key="count"
        )
    if n_sources > np.iinfo(np.int64).max:
        raise InvalidConfigurationError(
            f"n_sources must be within int64, got {n_sources}", key="n_sources"
        )
    if any(isinstance(s, bool) or not isinstance(s, Integral) for s in sizes):
        raise InvalidConfigurationError(
            f"subgroup sizes must be integers, got {list(sizes)!r}", key="sizes"
        )
    sizes = sorted(set(int(s) for s in sizes))
    if not sizes or sizes[0] < 1:
        raise InvalidConfigurationError("subgroup sizes must be positive", key="sizes")
    if sizes[-1] > n_sources:
        raise InvalidConfigurationError(
            f"largest subgroup size {sizes[-1]} exceeds K={n_sources}", key="sizes"
        )
    n_sources, count = int(n_sources), int(count)
    if n_sources > 10000 and sizes[-1] > n_sources // 50:
        # numpy shuffles the tail of range(K) for the largest size
        widths, values = [], {}
        for _ in range(count):
            size = sizes[gen.integers(len(sizes))]
            members = np.sort(gen.choice(n_sources, size, replace=False)) + 1
            widths.append(size + 1)
            values.setdefault(size + 1, []).extend([0, *members.tolist()])
        return _tabulate(widths, values)
    table = _bound_table(n_sources, sizes)
    # a query's words per size, when none is rejected
    words = np.count_nonzero(table, axis=1)
    limit = most = max(1, _BLOCK_WORDS // table.shape[1])
    picked, drawn = [np.zeros(0, dtype=np.int64)], [table[:0, 1:]]
    done = 0
    while done < count:
        picks = np.zeros(min(count - done, limit), dtype=np.int64)
        if len(sizes) > 1:
            saved = gen.bit_generator.state
            raw = gen.integers(0, 1 << 32, size=picks.size * table.shape[1])
            gen.bit_generator.state = saved
            guesses = raw * len(sizes) >> 32
            steps, starts, at = words[guesses].tolist(), [], 0
            for _ in range(picks.size):
                starts.append(at)
                at += steps[at]
            picks = guesses[starts]
        values = gen.integers(0, table[picks], endpoint=True)
        wrong = np.flatnonzero(values[:, 0] != picks)
        if wrong.size:
            picks = values[: wrong[0] + 1, 0]
            gen.bit_generator.state = saved
            values = gen.integers(0, table[picks], endpoint=True)
        picked.append(picks)
        drawn.append(values[:, 1:])
        done += picks.size
        # after a wrong guess, a block at most twice the queries it kept
        limit = min(most, 2 * picks.size)
    picks, drawn, blocks = np.concatenate(picked), np.concatenate(drawn), []
    for i, size in enumerate(sizes):
        rows = np.flatnonzero(picks == i)
        if rows.size:
            options = np.zeros((rows.size, size + 1), dtype=np.int64, order="F")
            options[:, 1:] = _members(drawn[rows], n_sources, size) + 1
            blocks.append((rows, options))
    return _Queries(tuple(blocks), np.zeros(count, dtype=np.int64))


def sample_subgroups(
    n_sources: int, sizes: Sequence[int], count: int, rng
) -> list[tuple[int, ...]]:
    """Draw ``count`` subgroups: size uniform over ``sizes``, members
    distinct and uniform over {1..K}."""
    queries = _draw(n_sources, sizes, count, _as_rng(rng))
    return _each_query(queries, lambda members, _: tuple(members))


def _judge(alpha: np.ndarray, blocks, count: int, gen: np.random.Generator) -> np.ndarray:
    """Sample one option per query from the model's own probabilities.

    Draws one uniform per query, in query order, and inverts each
    query's renormalised cumulative probabilities exactly as
    ``Generator.choice(p=...)`` does, so the stream and the picks equal
    one such call per query.
    """
    if not np.all(np.isfinite(alpha)):
        raise InvalidConfigurationError("simulated worths must be finite", key="alpha")
    draws = gen.random(count)
    chosen = np.zeros(count, dtype=int)
    for rows, options in blocks:
        probs = _softmax(alpha, options)[0]
        probs = probs / _row_sums(probs)[:, None]
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1:]
        picks = (cdf <= draws[rows, None]).sum(axis=1)
        chosen[rows] = options[np.arange(rows.size), picks]
    return chosen


def simulated_judge(true_worths: WorthVector, subgroup, rng) -> int:
    """Sample a choice from the model's own probabilities at known worths."""
    record = ChoiceRecord(tuple(subgroup), 0)
    blocks = _compile([record], true_worths.n_sources).blocks
    return int(_judge(true_worths.alpha, blocks, 1, _as_rng(rng))[0])


def _simulate(true_worths: WorthVector, sizes: Sequence[int], count: int, rng) -> _Queries:
    """``simulate_elicitation``'s draw, as compiled queries."""
    gen = _as_rng(rng)
    queries = _draw(true_worths.n_sources, sizes, count, gen)
    return queries._replace(chosen=_judge(true_worths.alpha, queries.blocks, count, gen))


def simulate_elicitation(
    true_worths: WorthVector,
    sizes: Sequence[int],
    count: int,
    rng,
) -> list[ChoiceRecord]:
    """Sample subgroups and judge each one with the simulated judge."""
    return _records(_simulate(true_worths, sizes, count, rng))


# ---------------------------------------------------------------------------
# Records file round trip
# ---------------------------------------------------------------------------


def write_records(path, records: Iterable[ChoiceRecord] | _Queries) -> None:
    queries = _compile(records)
    lines = np.empty(queries.chosen.size, dtype=object)
    for rows, options in queries.blocks:
        # one line template per option count, filled from the block's
        # [members | choice] rows in one go
        template = "subgroup=" + ",".join(["%d"] * (options.shape[1] - 1)) + ";choice=%d"
        table = np.column_stack((options[:, 1:], queries.chosen[rows])).ravel().tolist()
        lines[rows] = ("\n".join([template] * rows.size) % tuple(table)).split("\n")
    lines = lines.tolist()
    write_text_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


# a records line exactly as ``write_records`` writes it; at most 18
# digits per field keep every value within int64
_RECORD_LINE = r"subgroup=[0-9]{1,18}(?:,[0-9]{1,18})*;choice=[0-9]{1,18}\n"
# a canonical text's fields, one ',' apart, once the names are dropped
_FIELD_SEPARATORS = bytes.maketrans(b";\n", b",,")


def _read_queries(path) -> _Queries:
    """Parse a records file straight into compiled queries.

    The first line not as ``write_records`` writes it, or whose record
    ``ChoiceRecord`` refuses, raises a ``ParseError`` naming it.  Indices
    are not checked against K here (``_compile`` does that).
    """
    text = read_text(path)
    if text and not text.endswith("\n"):
        text += "\n"
    lineno = None
    # each line is removed on its own; one whole-file match would hold
    # a backtracking frame per repeat
    if re.sub(_RECORD_LINE, "", text):
        lines = [line + "\n" for line in text.split("\n")]
        lineno = next(i for i, ln in enumerate(lines, 1) if not re.fullmatch(_RECORD_LINE, ln))
        # the records before it may hold an earlier fault
        text = "".join(lines[: lineno - 1])
    queries = _tabulate(*_split_canonical(text))
    invalid = _first_invalid(queries)
    if invalid is not None:
        row, members, choice = invalid
        try:
            ChoiceRecord(tuple(members), choice)
        except (InvalidConfigurationError, InvalidChoiceError) as exc:
            raise ParseError(f"{path}: line {row + 1}: {exc}", line_number=row + 1) from exc
    if lineno is not None:
        grammar = "expected 'subgroup=<i>,...;choice=<c>', digits 0-9 only, at most 18 per field"
        raise ParseError(f"{path}: line {lineno}: {grammar}", line_number=lineno)
    return queries


def _split_canonical(text: str):
    """``_tabulate``'s input from a text of canonical lines: each line's
    option count from the commas before its ';', every field from one
    ``np.fromstring`` call, and per option count one row per line."""
    data = text.encode()
    chars = np.frombuffer(data, np.uint8)
    commas = np.flatnonzero(chars == ord(","))
    widths = np.diff(np.searchsorted(commas, np.flatnonzero(chars == ord(";"))), prepend=0) + 2
    # the members, then the choice, of each line in turn
    fields = np.fromstring(
        data.translate(_FIELD_SEPARATORS, b"subgroup=choice="), dtype=np.int64, sep=","
    )
    ends = np.cumsum(widths)
    tables = {}
    for width in np.flatnonzero(np.bincount(widths)).tolist():
        # a line's fields end at ``ends`` with its choice; each row
        # takes the choice first, then the members
        table = fields[ends[widths == width][:, None] + (np.arange(width) - 1) % width - width]
        table[:, 1:].sort(axis=1)
        tables[width] = table
    return widths, tables


def _first_invalid(queries: _Queries):
    """``(position, members, choice)`` of the first record whose members
    are not all at least 1 and distinct, or whose choice is neither 0 nor
    a member; None when every record passes."""
    bad = []
    for rows, options in queries.blocks:
        members, choice = options[:, 1:], queries.chosen[rows]
        valid = (
            (members[:, 0] >= 1)
            & (members[:, 1:] != members[:, :-1]).all(axis=1)
            & ((choice == 0) | (members == choice[:, None]).any(axis=1))
        )
        if not valid.all():
            i = int(np.argmin(valid))
            bad.append((int(rows[i]), members[i].tolist(), int(choice[i])))
    return min(bad, default=None)


def read_records(path) -> list[ChoiceRecord]:
    return _records(_read_queries(path))
