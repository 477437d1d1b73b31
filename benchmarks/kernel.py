"""Kernel pass: per-layer timings of the public functions of each
``picardhyb`` layer on fixed or seeded inputs.

Matrix inputs are random catalog words over the Picard generators and
their inverses, drawn from ``random.Random(seed)`` the way acceptance
criterion 9 draws them; the program only receives the evaluated matrices
and, for the group-theory layer, the catalog presentations. Every result
is also checked exactly, once, outside the timed region.

A sample of a metric is the mean time of one call over a batch of calls
(or one call, for the slow functions). The pass takes ``ROUNDS`` rounds,
each taking one sample of every metric in turn, so the samples of a
metric are spread over the whole pass rather than bunched together; each
metric is the median of its samples.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque

ROUNDS = 7
WORDS_PER_RING = 64
MAX_WORD_LENGTH = 6


def _batch(fn, *columns):
    """A sampler: mean seconds per call of fn over the columns."""
    n = len(columns[0])

    def sample() -> float:
        t0 = time.perf_counter()
        deque(map(fn, *columns), maxlen=0)
        return (time.perf_counter() - t0) / n
    return sample


def _call(fn, *args):
    """A sampler: seconds of one call fn(*args)."""
    def sample() -> float:
        t0 = time.perf_counter()
        fn(*args)
        return time.perf_counter() - t0
    return sample


def random_words(rng: random.Random, nmoves: int, count: int) -> list[list[int]]:
    """Words as lists of move indices, lengths 1..MAX_WORD_LENGTH."""
    return [[rng.randrange(nmoves) for _ in range(rng.randint(1, MAX_WORD_LENGTH))]
            for _ in range(count)]


def run(seed: int, scale: float = 1.0) -> dict:
    from picardhyb import catalog, certify, cxhyp, fpgroups

    Mat = cxhyp.Mat
    rounds = max(1, round(ROUNDS * scale))
    nwords = max(2, round(WORDS_PER_RING * scale))
    rng = random.Random(seed)
    failed: list[str] = []

    def check(name: str, ok: bool) -> None:
        if not ok:
            failed.append(name)

    mats: dict[int, list] = {}
    for d in (1, 3, 7):
        gens = list(catalog.get_catalog(d).picard.values())
        moves = gens + [g.inverse() for g in gens]
        out = []
        for w in random_words(rng, len(moves), nwords):
            acc = Mat.identity(d, 3)
            for k in w:
                acc = acc * moves[k]
            out.append(acc)
        mats[d] = out

    # metric -> (sampler, unit multiplier)
    cases: dict[str, tuple] = {}

    # -- exactring: scalar operands taken from the word matrices
    xs, ys = [], []
    for d in (1, 3, 7):
        entries = [e for m in mats[d] for row in m.rows for e in row if not e.is_zero()]
        rng.shuffle(entries)
        half = len(entries) // 2
        xs += entries[:half]
        ys += entries[half:2 * half]
    qx = [e.num for e in xs]
    qy = [e.num for e in ys]
    cases["exactring.quadint_mul_ns"] = (_batch(type(qx[0]).__mul__, qx, qy), 1e9)
    check("quadint_mul", all((x * y).norm() == x.norm() * y.norm()
                             for x, y in zip(qx, qy)))
    cases["exactring.quadrat_div_us"] = (_batch(type(xs[0]).__truediv__, xs, ys), 1e6)
    check("quadrat_div", all((x / y) * y == x for x, y in zip(xs, ys)))

    # -- cxhyp: product, inverse, projective key, boundary action
    for d in (1, 3, 7):
        ms = mats[d]
        ident = Mat.identity(d, 3)
        cases[f"cxhyp.mat_mul_us.d{d}"] = (_batch(Mat.__mul__, ms, ms[1:] + ms[:1]), 1e6)
        cases[f"cxhyp.mat_inverse_us.d{d}"] = (_batch(Mat.inverse, ms), 1e6)
        check(f"inverse d={d}", all(m * m.inverse() == ident for m in ms))
        cases[f"cxhyp.canonical_rep_us.d{d}"] = (_batch(cxhyp.canonical_rep, ms), 1e6)
        check(f"canonical_rep d={d}", all(
            cxhyp.canonical_rep(cxhyp.canonical_rep(m).rep).key()
            == cxhyp.canonical_rep(m).key() for m in ms))
        if d == 1:
            continue
        origins = [cxhyp.BoundaryPoint.origin(d)] * len(ms)
        cases[f"cxhyp.boundary_action_us.d{d}"] = (
            _batch(cxhyp.boundary_action, ms, origins), 1e6)
        check(f"boundary_action d={d}", all(
            p.at_infinity or cxhyp.boundary_action(m.inverse(), p) == o
            for m, o, p in zip(ms, origins, map(cxhyp.boundary_action, ms, origins))))

    # -- catalog: a full build with its cross-checks, bypassing the cache
    build = catalog.get_catalog.__wrapped__
    for d in (1, 3, 7):
        cases[f"catalog.build_s.d{d}"] = (_call(build, d), 1.0)
        check(f"catalog d={d}", build(d).d == d)

    # -- fpgroups: the engines behind verify --d 1 and --d 3
    q3 = catalog.get_catalog(3).quotient_presentation()
    q1 = catalog.get_catalog(1).quotient_presentation()
    cap = certify.D3_OVERFLOW_CAP
    cases["fpgroups.todd_coxeter_d3_overflow_s"] = (
        _call(fpgroups.todd_coxeter, q3, (), cap), 1.0)
    check("todd_coxeter d=3 overflow",
          fpgroups.todd_coxeter(q3, max_cosets=cap).status == "overflowed")
    cases["fpgroups.todd_coxeter_d1_s"] = (_call(fpgroups.todd_coxeter, q1), 1.0)
    check("todd_coxeter d=1", fpgroups.todd_coxeter(q1).index == 2)
    table = certify.commutator_subgroup_table()
    p3 = catalog.get_catalog(3).presentation
    cases["fpgroups.reidemeister_schreier_us"] = (
        _call(fpgroups.reidemeister_schreier, p3, table), 1e6)
    sub = fpgroups.reidemeister_schreier(p3, table)
    exps = fpgroups.exponent_matrix(sub)
    cases["fpgroups.smith_normal_form_us"] = (_call(fpgroups.smith_normal_form, exps), 1e6)
    check("commutator subgroup ab = Z x Z",
          fpgroups.abelianization(sub) == fpgroups.AbelianInvariants(2, ()))

    # -- certify: the reports verify renders
    for d in (1, 3, 7):
        cases[f"certify.verify_normality_s.d{d}"] = (_call(certify.verify_normality, d), 1.0)
        check(f"normality d={d}", certify.verify_normality(d).passed)
        cases[f"certify.index_report_s.d{d}"] = (_call(certify.index_report, d), 1.0)
        check(f"index d={d}", certify.index_report(d).outcome
              == {1: "finite", 3: "infinite", 7: "finite"}[d])
    cases["certify.hybrid_abelianization_bounds_s"] = (
        _call(certify.hybrid_abelianization_bounds), 1.0)
    check("abelianization bounds", certify.hybrid_abelianization_bounds().passed)

    samples: dict[str, list[float]] = {name: [] for name in cases}
    for _ in range(rounds):
        for name, (sample, mult) in cases.items():
            samples[name].append(sample() * mult)
    return {"metrics": {name: statistics.median(s) for name, s in samples.items()},
            "failed_checks": sorted(set(failed)),
            "inputs": {"seed": seed, "words_per_ring": nwords, "rounds": rounds}}
