"""Acceptance gate: eight numbered checks, one printed pass/fail line each.

Checks 1-7 run on complex inputs; check 8 re-runs the same seven bodies on
real symmetric inputs under the real-amplitude restriction (at the same
tolerances) and additionally requires that complex input is rejected there.
Runtime budgets are enforced where a check carries one.
"""

from __future__ import annotations

import itertools
import json
import time

import numpy as np
import pytest

from traceprob import (
    DensityMatrix,
    Hamiltonian,
    NonCommutingError,
    NotRealError,
    PerceptionSet,
    PovOperator,
    Projector,
    RealityMode,
    char_and,
    check_invariance,
    classical_density,
    classical_prob,
    conditional_prob,
    dephase,
    deviation_check,
    diag_projector,
    dwell_fractions,
    energy_blocks,
    evolve,
    max_abs,
    measure_of,
    normalized_prob,
    projector_meet,
    sample_classical,
    sample_measurement,
    time_average_indicator,
    trace,
    trace_prob,
    union_operator,
)
from helpers import (
    averaged_evolution,
    projective_algebra,
    random_algebra,
    random_basis,
    random_cycle,
    random_density,
    random_hamiltonian,
    random_partition,
    random_projector,
    random_subset,
    spectral_projectors,
)

_NAMES = {
    1: "classical vs trace-rule probabilities",
    2: "time-averaged indicator",
    3: "unitary invariance",
    4: "diagonal meets and non-commuting defect",
    5: "superselection dephasing",
    6: "positive-operator measures",
    7: "Monte Carlo at five sigma",
    8: "real-amplitude restriction",
}
_BUDGETS = {1: 1.0, 2: 10.0, 3: 5.0, 5: 60.0, 7: 30.0}

# real-mode outcomes recorded by the rerun tests, summarized by check 8
_REAL_RESULTS: dict[int, tuple[bool, str]] = {}


def _print_line(capsys, num: int, ok: bool, detail: str, elapsed: float) -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {num} ({_NAMES[num]}): {verdict} [{detail}; {elapsed:.2f}s]")


def _check_classical_identity(mode: RealityMode) -> tuple[bool, str]:
    rng = np.random.default_rng(9101)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        cycle = random_cycle(rng, n)
        f = dwell_fractions(cycle)
        rho = DensityMatrix(classical_density(f), mode=mode)
        s = random_subset(rng, n)
        p_diag = Projector(diag_projector(s), mode=mode)
        worst = max(worst, abs(classical_prob(s, f) - trace_prob(p_diag, rho)))
    return worst <= 1e-12, f"max |classical - trace rule| {worst:.1e} over 500 cases"


def _check_time_average(mode: RealityMode) -> tuple[bool, str]:
    rng = np.random.default_rng(9202)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        cycle = random_cycle(rng, n)
        avg = time_average_indicator(cycle, steps=100_000)
        worst = max(worst, max_abs(avg - np.diag(dwell_fractions(cycle).f)))
        # the same average taken from the cycle's definition, the state at t, at each midpoint
        midpoints = (np.arange(2000) + 0.5) * (cycle.period / 2000)
        visits = np.bincount([cycle.state_at(t) - 1 for t in midpoints], minlength=n)
        if not np.array_equal(np.diag(visits / 2000), time_average_indicator(cycle, 2000)):
            return False, f"state_at at 2000 midpoints differs from time_average_indicator on {cycle.schedule}"
    return worst <= 1e-4, (
        f"max entry gap to diag(fractions) {worst:.1e} over 50 cycles; state_at at 2000 midpoints exact"
    )


def _check_unitary_invariance(mode: RealityMode) -> tuple[bool, str]:
    rng = np.random.default_rng(9303)
    real = mode is RealityMode.REAL
    worst = 0.0
    for _ in range(1000):
        p = random_projector(rng, 8, mode)
        rho = random_density(rng, 8, mode)
        u = random_basis(rng, 8, real)
        worst = max(worst, check_invariance(p, rho, u))
    return worst <= 1e-9, f"max probability shift {worst:.1e} over 1000 basis changes"


def _check_meets_and_defect(mode: RealityMode) -> tuple[bool, str]:
    pairs = 0
    for n in range(1, 5):
        sets = [PerceptionSet(bits) for bits in itertools.product((0, 1), repeat=n)]
        projectors = [Projector(diag_projector(s), mode=mode) for s in sets]
        for sa, pa in zip(sets, projectors):
            for sb, pb in zip(sets, projectors):
                meet = projector_meet(pa, pb)
                if not np.array_equal(meet.mat, diag_projector(char_and(sa, sb))):
                    return False, f"meet of {sa.chi} and {sb.chi} is not the intersection"
                pairs += 1
    p_diag = Projector(np.diag([1.0, 0.0]), mode=mode)
    p_plus = Projector(np.full((2, 2), 0.5), mode=mode)
    product = p_diag.mat @ p_plus.mat
    defect = max_abs(product - product.conj().T)
    if abs(defect - 0.5) > 1e-12:
        return False, f"Hermiticity defect {defect!r} is not 0.5"
    try:
        projector_meet(p_diag, p_plus)
        return False, "non-commuting pair was not rejected"
    except NonCommutingError:
        pass
    return True, f"{pairs} exhaustive meets exact; defect 0.5 pair rejected"


def _check_superselection(mode: RealityMode) -> tuple[bool, str]:
    rng = np.random.default_rng(9505)
    worst = {"idem": 0.0, "trace": 0.0, "still": 0.0, "oracle": 0.0, "compliant": 0.0}
    for _ in range(100):
        n = int(rng.integers(2, 7))
        rho = random_density(rng, n, mode)
        h = random_hamiltonian(rng, n, mode)
        rho_d = dephase(rho, h)
        worst["idem"] = max(worst["idem"], max_abs(dephase(rho_d, h).mat - rho_d.mat))
        worst["trace"] = max(worst["trace"], abs(trace(rho_d.mat) - trace(rho.mat)))
        t = float(rng.uniform(0.0, 50.0))
        worst["still"] = max(worst["still"], max_abs(evolve(rho_d, h, t).mat - rho_d.mat))

        blocks = energy_blocks(h)
        gaps = np.diff([energy for energy, _ in blocks])
        gap_min = float(gaps.min()) if gaps.size else 1.0
        times = np.linspace(0.0, 1e3 / gap_min, 20_000)
        worst["oracle"] = max(
            worst["oracle"], max_abs(averaged_evolution(rho, h, times) - rho_d.mat)
        )

        # a compliant projector: the union of a random nonempty set of sectors
        pick = rng.random(len(blocks)) < 0.5
        if not pick.any():
            pick[int(rng.integers(0, len(blocks)))] = True
        pmat = np.zeros((n, n), dtype=complex)
        for flag, pi in zip(pick, spectral_projectors(h)):
            if flag:
                pmat = pmat + pi
        p = Projector(pmat, mode=mode)
        p0 = trace_prob(p, rho)
        shift = max(
            abs(trace_prob(p, evolve(rho, h, float(tt))) - p0)
            for tt in rng.uniform(0.0, 25.0, size=5)
        )
        worst["compliant"] = max(worst["compliant"], shift)
    ok = (
        worst["idem"] <= 1e-10
        and worst["trace"] <= 1e-12
        and worst["still"] <= 1e-9
        and worst["oracle"] <= 5e-3
        and worst["compliant"] <= 1e-9
    )
    detail = (
        "idempotency {idem:.1e}, trace drift {trace:.1e}, stationarity {still:.1e}, "
        "long-time-average gap {oracle:.1e}, compliant shift {compliant:.1e}"
    ).format(**worst)
    return ok, detail


def _check_pov_measures(mode: RealityMode) -> tuple[bool, str]:
    rng = np.random.default_rng(9606)
    w_add = w_chain = w_reduce = 0.0
    for _ in range(80):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 7))
        alg = random_algebra(rng, n, m, mode)
        rho = random_density(rng, n, mode)
        labels = list(alg.labels)
        rng.shuffle(labels)
        cut = int(rng.integers(1, m))
        left, right = labels[:cut], labels[cut:]
        w_add = max(
            w_add,
            abs(
                measure_of(alg, labels, rho)
                - (measure_of(alg, left, rho) + measure_of(alg, right, rho))
            ),
        )
        m_sub = set(labels[: int(rng.integers(1, m + 1))])
        s_sub = {label for label in m_sub if rng.random() < 0.5}
        chained = conditional_prob(alg, s_sub, m_sub, rho) * normalized_prob(alg, m_sub, rho)
        w_chain = max(w_chain, abs(normalized_prob(alg, s_sub, rho) - chained))
    for _ in range(40):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, min(n, 6) + 1))
        alg = projective_algebra(rng, n, k, mode)
        rho = random_density(rng, n, mode)
        subset = [label for label in alg.labels if rng.random() < 0.5]
        p = Projector(union_operator(alg, subset).mat, mode=mode)
        w_reduce = max(w_reduce, abs(measure_of(alg, subset, rho) - trace_prob(p, rho)))
    ok = w_add <= 1e-12 and w_reduce <= 1e-12 and w_chain <= 1e-10
    detail = (
        f"additivity {w_add:.1e}, projective reduction {w_reduce:.1e}, chain rule {w_chain:.1e}"
    )
    return ok, detail


def _check_sampling(mode: RealityMode) -> tuple[bool, str]:
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(9700 + i)
        cycle = random_cycle(rng, int(rng.integers(1, 9)))
        report = sample_classical(cycle, 1_000_000, seed=9700 + i)
        if not deviation_check(report):
            return False, f"classical case {i} outside the 5-sigma bound"
        again = sample_classical(cycle, 1_000_000, seed=9700 + i)
        if json.dumps(report.to_obj()) != json.dumps(again.to_obj()):
            return False, f"classical case {i} rerun is not byte-identical"
        worst = max(worst, report.max_abs_deviation)
    for i in range(20):
        rng = np.random.default_rng(9750 + i)
        n = int(rng.integers(2, 9))
        parts = random_partition(rng, n, int(rng.integers(2, n + 1)), mode)
        rho = random_density(rng, n, mode)
        report = sample_measurement(parts, rho, 1_000_000, seed=9750 + i)
        if not deviation_check(report):
            return False, f"measurement case {i} outside the 5-sigma bound"
        again = sample_measurement(parts, rho, 1_000_000, seed=9750 + i)
        if json.dumps(report.to_obj()) != json.dumps(again.to_obj()):
            return False, f"measurement case {i} rerun is not byte-identical"
        worst = max(worst, report.max_abs_deviation)
    return True, f"40 cases of 1e6 draws within 5 sigma (worst gap {worst:.1e}); reruns byte-identical"


_CRITERIA = {
    1: _check_classical_identity,
    2: _check_time_average,
    3: _check_unitary_invariance,
    4: _check_meets_and_defect,
    5: _check_superselection,
    6: _check_pov_measures,
    7: _check_sampling,
}


@pytest.mark.parametrize("num", sorted(_CRITERIA))
def test_acceptance_criterion(num, capsys):
    start = time.perf_counter()
    ok, detail = _CRITERIA[num](RealityMode.COMPLEX)
    elapsed = time.perf_counter() - start
    budget = _BUDGETS.get(num)
    if budget is not None and elapsed >= budget:
        ok = False
        detail += f"; runtime {elapsed:.2f}s exceeds {budget:.0f}s"
    _print_line(capsys, num, ok, detail, elapsed)
    assert ok, f"check {num} ({_NAMES[num]}): {detail}"


@pytest.mark.parametrize("num", sorted(_CRITERIA))
def test_real_mode_rerun(num):
    ok, detail = _CRITERIA[num](RealityMode.REAL)
    _REAL_RESULTS[num] = (ok, detail)
    assert ok, f"real-mode rerun of check {num}: {detail}"


def test_acceptance_criterion_8(capsys):
    start = time.perf_counter()
    for num in sorted(_CRITERIA):
        if num not in _REAL_RESULTS:
            _REAL_RESULTS[num] = _CRITERIA[num](RealityMode.REAL)
    failed = sorted(num for num, (ok, _) in _REAL_RESULTS.items() if not ok)

    complex_density = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
    rejected = True
    for build in (
        lambda: Projector(complex_density, mode=RealityMode.REAL),
        lambda: DensityMatrix(complex_density, mode=RealityMode.REAL),
        lambda: Hamiltonian(np.array([[0.0, -1j], [1j, 0.0]]), mode=RealityMode.REAL),
        lambda: PovOperator(np.array([[2.0, 1j], [-1j, 2.0]]), mode=RealityMode.REAL),
    ):
        try:
            build()
            rejected = False
        except NotRealError:
            pass

    ok = not failed and rejected
    if ok:
        detail = "checks 1-7 clean on real symmetric inputs; complex input rejected"
    else:
        detail = f"failed re-runs {failed}; complex input rejected: {rejected}"
    elapsed = time.perf_counter() - start
    _print_line(capsys, 8, ok, detail, elapsed)
    assert ok, detail
