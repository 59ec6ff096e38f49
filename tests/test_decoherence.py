import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbell import decoherence, measures, verify
from qbell.decoherence import LossChannel


def test_channel_validation():
    with pytest.raises(ValueError):
        LossChannel(1.1)
    with pytest.raises(ValueError):
        LossChannel(-0.1)
    assert LossChannel(1.0).eta == 1.0


def test_apply_loss_lossless_is_pure():
    state = decoherence.apply_loss(1.0, LossChannel(1.0))
    assert state.coherence == 1.0
    purity = np.trace(state.matrix @ state.matrix).real
    assert purity == pytest.approx(1.0, abs=1e-12)


def test_apply_loss_coherence_factor_and_purity(lossy_pair_fock):
    from qbell import fock

    state = decoherence.apply_loss(1.0, LossChannel(0.5))
    assert state.coherence == pytest.approx(np.exp(-1.0), abs=1e-15)
    psi = lossy_pair_fock(1.0, 0.5, fock.adequate_truncation(1.0))
    rho_fock = fock_partial(psi)
    oracle_purity = np.trace(rho_fock @ rho_fock).real
    assert np.trace(state.matrix @ state.matrix).real == pytest.approx(
        oracle_purity, abs=1e-9
    )


def fock_partial(psi):
    from qbell import fock

    return fock.partial_trace(psi, keep=(0, 1))


def test_apply_loss_full_loss_limit():
    state = decoherence.apply_loss(2.0, LossChannel(0.0))
    assert state.coherence == pytest.approx(np.exp(-8.0), abs=1e-18)
    # mode B is the vacuum: half |-+> (the odd cat state and the vacuum,
    # B2(alpha, 0)) and half |++> (the even one, B1(alpha, 0))
    for alpha in (0.3, 1.0, 2.0):
        rho = decoherence.apply_loss(alpha, LossChannel(0.0)).matrix
        assert np.max(np.abs(rho - np.diag([0.5, 0.0, 0.5, 0.0]))) <= 1e-15


def test_apply_loss_trace_one_rank_two():
    for alpha in (0.3, 1.0, 2.5):
        for eta in (0.1, 0.6, 0.9):
            state = decoherence.apply_loss(alpha, LossChannel(eta))
            assert abs(np.trace(state.matrix).real - 1.0) < 1e-12
            lam = np.sort(np.linalg.eigvalsh(state.matrix))[::-1]
            assert np.all(lam > -1e-12)
            assert np.all(np.abs(lam[2:]) < 1e-10)
    # NaN and inf too, which gave a NaN and a finite matrix
    for alpha in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="amplitude"):
            decoherence.apply_loss(alpha, LossChannel(0.5))


def test_apply_loss_matches_oracle_density(lossy_pair_fock, loss_basis):
    from qbell import fock

    n = fock.adequate_truncation(1.0)
    rho_fock = fock.partial_trace(lossy_pair_fock(1.0, 0.5, n), keep=(0, 1))
    basis = loss_basis(1.0, 0.5, n)
    projected = basis.conj().T @ rho_fock @ basis
    closed = decoherence.apply_loss(1.0, LossChannel(0.5)).matrix
    assert np.max(np.abs(projected - closed)) < 1e-9


def test_fraction_over_family_examples():
    state = decoherence.apply_loss(1.0, LossChannel(1.0))
    assert decoherence.fraction_over_family(state, 1.0) == pytest.approx(
        1.0, abs=1e-12
    )
    state = decoherence.apply_loss(1.0, LossChannel(0.5))
    beta = (1.0 + np.sqrt(0.5)) / 2.0
    value = decoherence.fraction_over_family(state, beta)
    assert value == pytest.approx(0.6312414988091545, abs=1e-12)
    oracle = verify.family_overlap_curve(1.0, 0.5, [beta])[0]
    assert abs(value - oracle) < 1e-9
    assert decoherence.fraction_over_family(state, 5.0) < 1e-12
    # rejected before any numpy call, so without a RuntimeWarning
    for beta in (0.0, -400.0, float("nan")):
        with pytest.raises(ValueError, match="beta must be positive"):
            decoherence.fraction_over_family(state, beta)


def test_array_overlap_matches_scalar_calls():
    # one formula for both forms: every entry is within an ulp of the
    # per-beta scalar call, from the smallest accepted amplitude to 30
    rng = np.random.default_rng(1302)
    alphas = np.concatenate(
        [[1e-150, 30.0], 10.0 ** rng.uniform(-150.0, math.log10(30.0), 1998)]
    )
    count = 0
    for alpha in alphas:
        state = decoherence.apply_loss(alpha, LossChannel(rng.uniform()))
        betas = alpha * 10.0 ** rng.uniform(-3.0, 0.5, 10)
        scalar = np.array([decoherence.fraction_over_family(state, b) for b in betas])
        array = decoherence.fraction_over_family(state, betas)
        assert array.shape == betas.shape
        assert np.all(np.abs(array - scalar) <= np.spacing(scalar))
        count += len(betas)
    assert count == 20000
    grid = np.linspace(0.5, 1.5, 6).reshape(2, 3)
    assert decoherence.fraction_over_family(state, grid).shape == (2, 3)
    assert type(decoherence.fraction_over_family(state, np.float64(1.0))) is float


def test_array_overlap_names_first_bad_beta():
    # the scalar's domain errors, naming the first offending entry, and
    # raised before the formula runs, so without a RuntimeWarning
    state = decoherence.apply_loss(1.0, LossChannel(0.5))
    cases = [
        ([1.0, -400.0, 0.0], "beta must be positive, got -400.0"),
        ([1.0, 2.0, float("nan")], "beta must be positive, got nan"),
        ([1.0, 1.4e-154, 1e-170], "beta=1.4e-154: beta\\^2 is below"),
    ]
    for betas, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                decoherence.fraction_over_family(state, np.array(betas))


def test_fraction_matches_oracle_grid():
    worst = 0.0
    for alpha in (0.2, 1.0, 2.0):
        for eta in (0.2, 0.8):
            state = decoherence.apply_loss(alpha, LossChannel(eta))
            betas = np.linspace(0.15, 1.8 * alpha, 5)
            closed = np.array(
                [decoherence.fraction_over_family(state, b) for b in betas]
            )
            numeric = verify.family_overlap_curve(alpha, eta, betas)
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
    assert worst < 1e-9


def test_optimal_beta():
    beta, _ = decoherence.optimal_beta(1.0, LossChannel(0.25))
    assert beta == pytest.approx(0.75, abs=1e-15)
    beta, f = decoherence.optimal_beta(1.0, LossChannel(1.0))
    assert beta == 1.0 and f == pytest.approx(1.0, abs=1e-12)
    beta, f = decoherence.optimal_beta(1.0, LossChannel(0.5))
    assert beta == pytest.approx((1 + np.sqrt(0.5)) / 2, abs=1e-15)
    beta_num, f_num = decoherence.search_optimal_beta(1.0, 0.5)
    assert abs(beta_num - beta) < 1e-6 * beta
    assert abs(f_num - f) < 1e-9
    with pytest.raises(ValueError):
        decoherence.optimal_beta(0.0, LossChannel(0.5))


def test_optimal_beta_against_search_grid():
    for alpha in np.linspace(0.3, 3.0, 6):
        for eta in (0.1, 0.5, 0.9):
            channel = LossChannel(eta)
            state = decoherence.apply_loss(alpha, channel)
            beta_star, f_star = decoherence.optimal_beta(alpha, channel)
            beta_num, f_num = decoherence.search_optimal_beta(alpha, eta)
            assert abs(beta_num - beta_star) <= 1e-6 * beta_star
            assert abs(f_num - f_star) <= 1e-9
            # nothing on a fine grid beats the closed-form maximum
            fine = [
                decoherence.fraction_over_family(state, b)
                for b in np.linspace(0.01, 2 * alpha, 400)
            ]
            assert max(fine) <= f_star + 1e-12


def test_search_makes_few_overlap_calls(monkeypatch):
    # one 200-point grid, then nine 21-point zooms that each cut the
    # bracket tenfold, then the overlap at the midpoint of the last
    # bracket, which is at most 2.1e-11 alpha wide; each grid is padded
    # with a copy of its first and last point
    calls = []
    real = decoherence._family_overlap

    def counted(terms, beta):
        values = real(terms, beta)
        calls.append((np.atleast_2d(beta), np.atleast_2d(values)))
        return values

    monkeypatch.setattr(decoherence, "_family_overlap", counted)
    alphas, etas = np.meshgrid([1e-150, 0.3, 1.0, 3.0, 30.0, 1e3], [0.1, 0.9])
    for alpha, eta in zip(alphas.ravel(), etas.ravel()):
        calls.clear()
        beta, _ = decoherence.search_optimal_beta(alpha, eta)
        assert len(calls) == 1 + 9 + 1
        points = [len(np.unique(grid)) for grid, _ in calls]
        assert points[0] == 200 and set(points[1:-1]) == {21} and points[-1] == 1
        # the last bracket [grid[k-1], grid[k+1]] of the last zoom's argmax k
        grid, values = (padded[0, 1:-1] for padded in calls[-2])
        k = values.argmax()
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        assert lo <= beta <= hi and hi - lo <= 2.1e-11 * alpha


def test_search_names_first_bad_row():
    # checked by comparison before any arithmetic, so without a
    # RuntimeWarning, naming the offending (alpha, eta)
    cases = [
        (2.0, 1.5, "alpha=2.0, eta=1.5"),
        (1e-160, 0.5, "alpha=1e-160, eta=0.5"),
        (1e160, 0.5, r"alpha=1e\+160, eta=0.5"),
        (float("nan"), 0.5, "alpha=nan, eta=0.5"),
        (1.0, float("nan"), "alpha=1.0, eta=nan"),
        (0.0, 0.5, "alpha=0.0, eta=0.5"),
    ]
    for alpha, eta, where in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"search is out of range at {where}:"):
                decoherence.search_optimal_beta(alpha, eta)


def test_overflow_band_is_a_named_domain_error():
    # alpha^2 is finite up to 1.34e154 but 4 alpha^2 only up to 6.7e153;
    # past it every entry point names alpha before any numpy call
    channel = LossChannel(0.5)
    for alpha in (7e153, 1e154, 1.2e154):
        calls = (
            lambda: decoherence.apply_loss(alpha, channel),
            lambda: decoherence.optimal_beta(alpha, channel),
            lambda: decoherence.fraction_over_family(
                decoherence.DecoheredState(alpha, 0.5, 0.0), 1.0
            ),
        )
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=re.escape(f"amplitude {alpha!r} is out of range")):
                    call()
    # the search's grid reaches beta = 2 alpha, so its 4 beta^2 stops it
    # at alpha = sqrt(float max) / 4, and the sweep's runtime check with
    # it; the closed form alone still returns there
    edge = 0.25 * math.sqrt(np.finfo(float).max)
    for alpha in (float(np.nextafter(edge, np.inf)), 5e153):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                decoherence.SweepError,
                match=re.escape(f"search is out of range at alpha={alpha!r}"),
            ):
                decoherence.figure1_sweep([alpha], [0.5])
            assert decoherence.optimal_beta(alpha, channel)[1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert decoherence.figure1_sweep([edge], [0.5])[0].fraction == 0.0


def test_unique_maximum_proof():
    # optimal_beta's proof: f(beta) = cosh((1-eta) a^2) sinh^2(c beta) /
    # (sinh(2 a^2) sinh(2 beta^2)), c = (1 + sqrt(eta)) a, and the sign of
    # d log f / d beta is the sign of c - 2 beta
    for alpha in (0.1, 0.5, 1.0, 2.0, 3.5, 5.0):
        for eta in (0.0, 0.3, 0.7, 1.0):
            state = decoherence.apply_loss(alpha, LossChannel(eta))
            c = (1.0 + np.sqrt(eta)) * alpha
            for beta in np.linspace(0.04, 2.0, 15) * alpha:
                got = decoherence.fraction_over_family(state, beta)
                want = (
                    np.cosh((1.0 - eta) * alpha**2) * np.sinh(c * beta) ** 2
                    / (np.sinh(2.0 * alpha**2) * np.sinh(2.0 * beta**2))
                )
                assert got == pytest.approx(want, rel=1e-12)
                with mpmath.workdps(30):
                    a, b, k = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(c)
                    slope = mpmath.diff(
                        lambda x: 2 * mpmath.log(mpmath.sinh(k * x))
                        - mpmath.log(mpmath.sinh(2 * x * x)), b
                    )
                assert mpmath.sign(slope) == mpmath.sign(k - 2 * b)


def test_biphoton_fraction():
    assert decoherence.biphoton_fraction(LossChannel(0.7)) == 0.7
    assert decoherence.biphoton_fraction(LossChannel(1.0)) == 1.0
    assert decoherence.biphoton_fraction(LossChannel(0.0)) == 0.0


def test_small_amplitude_beats_biphoton():
    for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
        _, f = decoherence.optimal_beta(0.1, LossChannel(eta))
        assert f > decoherence.biphoton_fraction(LossChannel(eta))


def test_large_amplitude_falls_below_biphoton():
    _, f = decoherence.optimal_beta(3.0, LossChannel(0.5))
    assert f == pytest.approx(0.3399139615380732, abs=1e-12)
    assert f < 0.5


def test_sweep_ordering_and_shape():
    alphas = np.linspace(0.05, 3.0, 25)
    etas = (0.9, 0.7, 0.5, 0.3, 0.1)
    points = decoherence.figure1_sweep(alphas, etas)
    assert len(points) == 125
    keys = [(p.eta, p.alpha) for p in points]
    expected = [(e, a) for e in sorted(etas, reverse=True) for a in sorted(alphas)]
    assert keys == expected
    for p in points:
        assert 0.0 <= p.fraction <= 1.0
        bound = measures.eof_lower_bound(p.fraction)
        assert 0.0 <= bound <= 1.0
    # strictly increasing in eta at fixed alpha
    curves = {e: [p.fraction for p in points if p.eta == e] for e in etas}
    for high, low in zip(sorted(etas, reverse=True), sorted(etas, reverse=True)[1:]):
        assert all(h > l for h, l in zip(curves[high], curves[low]))
    # non-increasing in alpha at fixed eta
    for curve in curves.values():
        assert all(b <= a + 1e-15 for a, b in zip(curve, curve[1:]))


def test_sweep_checks_every_eta_first(monkeypatch):
    # an invalid eta is a domain error for the whole sweep, named in the
    # order given, before any point is computed
    calls = []
    monkeypatch.setattr(decoherence, "optimal_beta", lambda *args: calls.append(args))
    for etas, bad in (([0.9, -0.1], "-0.1"), ([-0.1, 1.5], "-0.1"), ([0.5, 1.5], "1.5")):
        with pytest.raises(ValueError, match=f"got {bad}$"):
            decoherence.figure1_sweep([0.5, 1.0], etas)
    assert calls == []


def test_sweep_collects_failures(monkeypatch):
    # a search whose overlap is 1e-6 high breaks the runtime check's 1e-9
    # rule at that point only; the sweep keeps the other point
    search = decoherence.search_optimal_beta

    def broken(alpha, eta):
        beta, f = search(alpha, eta)
        return beta, f * (1.0 + 1e-6) if alpha > 0.5 else f

    monkeypatch.setattr(decoherence, "search_optimal_beta", broken)
    with pytest.raises(decoherence.SweepError) as info:
        decoherence.figure1_sweep([0.2, 0.8], [0.5])
    [(alpha, eta, message)] = info.value.failures
    assert (alpha, eta) == (0.8, 0.5)
    assert re.fullmatch(
        r"search maximum f\(\S+\) = \S+ disagrees with closed form "
        r"f\(\S+\) = \S+ \(alpha=0\.8, eta=0\.5\)",
        message,
    )
    assert len(info.value.points) == 1
    assert info.value.points[0].alpha == 0.2


def test_sweep_collects_arithmetic_faults():
    # a subnormal alpha^2, which the family overlap rejects before any
    # numpy call, and an alpha^2 that overflows each fail only their own
    # point, also where the caller makes numpy faults raise
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        with pytest.raises(decoherence.SweepError) as info:
            decoherence.figure1_sweep([1e-160, 1.0, 1e160], [0.5])
    assert [(a, e) for a, e, _ in info.value.failures] == [(1e-160, 0.5), (1e160, 0.5)]
    assert [p.alpha for p in info.value.points] == [1.0]
    assert "alpha=1e-160, eta=0.5" in str(info.value)


def test_diagnostic_fef_reported_separately():
    state = decoherence.apply_loss(1.0, LossChannel(0.5))
    family = decoherence.fraction_over_family(
        state, decoherence.optimal_beta(1.0, LossChannel(0.5))[0]
    )
    general = decoherence.diagnostic_fef(state)
    assert 0.0 <= general <= 1.0 + 1e-9
    assert 0.0 <= family <= 1.0


def _mp_loss_reference(alpha, eta, beta, digits=60):
    """Decohered density matrix and family overlap, from the literal
    differences of coherent overlaps."""
    with mpmath.workdps(digits):
        a, e, b = mpmath.mpf(alpha), mpmath.mpf(eta), mpmath.mpf(beta)
        s = mpmath.sqrt(e)
        ka, kb = mpmath.exp(-2 * a**2), mpmath.exp(-2 * e * a**2)
        coherence = mpmath.exp(-2 * (1 - e) * a**2)
        h2sq = 1 / (2 * (1 - ka**2))

        def comps(sign, k):
            return [mpmath.sqrt((1 + k) / 2), sign * mpmath.sqrt((1 - k) / 2)]

        x = [p * q for p in comps(+1, ka) for q in comps(-1, kb)]
        y = [p * q for p in comps(-1, ka) for q in comps(+1, kb)]
        rho = mpmath.matrix(4, 4)
        for i in range(4):
            for j in range(4):
                rho[i, j] = h2sq * (
                    x[i] * x[j] + y[i] * y[j] - coherence * (y[i] * x[j] + x[i] * y[j])
                )

        def g(d):
            return mpmath.exp(-d**2 / 2)

        diff = g(b - a) * g(s * a - b) - g(b + a) * g(b + s * a)
        k0 = mpmath.exp(-2 * b**2)
        f = (1 + coherence) * diff**2 / (2 * (1 - ka**2) * (1 - k0**2))
        return np.array(rho.tolist(), dtype=float), float(f)


def test_tiny_amplitude_matches_mpmath():
    channel = LossChannel(0.5)
    for alpha in (1e-9, 1e-5):
        beta_star, f_star = decoherence.optimal_beta(alpha, channel)
        rho_ref, f_ref = _mp_loss_reference(alpha, channel.eta, beta_star)
        assert f_star == pytest.approx(f_ref, rel=1e-12)
        # the independent search reaches the closed-form maximum
        _, f_num = decoherence.search_optimal_beta(alpha, channel.eta)
        assert f_num == pytest.approx(f_star, rel=1e-9)
        state = decoherence.apply_loss(alpha, channel)
        assert np.allclose(state.matrix, rho_ref, rtol=0, atol=1e-12)


def test_subnormal_square_amplitude_matches_mpmath():
    # alpha^2 is subnormal or 0 here, where the expm1 denominators of the
    # hand-built form gave inf and NaN entries; 1 - exp(-4 alpha^2)
    # cancels down to 4e-600, so the reference runs at 700 digits
    for alpha in (1e-155, 1e-200, 1e-300):
        for eta in (0.0, 0.5, 0.9):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rho = decoherence.apply_loss(alpha, LossChannel(eta)).matrix
            assert np.all(np.isfinite(rho))
            assert abs(np.trace(rho).real - 1.0) <= 1e-15
            rho_ref, _ = _mp_loss_reference(alpha, eta, alpha, digits=700)
            assert np.max(np.abs(rho - rho_ref)) <= 1e-15


def test_family_overlap_rejects_subnormal_square_amplitude():
    state = decoherence.apply_loss(1e-160, LossChannel(0.5))
    # named before any numpy call, so without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="alpha=1e-160, eta=0.5: alpha\\^2 is below"):
            decoherence.fraction_over_family(state, 1e-160)


def test_large_amplitude_matches_mpmath():
    # the bounded-factor form neither overflows nor loses relative
    # precision where exp(-...) sinh(...)^2 gave inf * 0
    for alpha in (12.0, 18.0, 30.0):
        for eta in (0.9, 0.1):
            beta_star, f_star = decoherence.optimal_beta(alpha, LossChannel(eta))
            _, f_ref = _mp_loss_reference(alpha, eta, beta_star)
            assert f_star == pytest.approx(f_ref, rel=1e-12)
            _, f_num = decoherence.search_optimal_beta(alpha, eta)
            assert f_num == pytest.approx(f_star, rel=1e-9)


def test_non_finite_overlap_raises():
    state = decoherence.apply_loss(1.0, LossChannel(0.5))
    # beta^2 underflows to 0 at 1e-170, where expm1(-4 beta^2) would be 0
    # and the ratio inf, and is subnormal at 1e-155 and 1.4e-154, where
    # the ratio would be finite but wrong; each is named before any numpy
    # call, so without a RuntimeWarning
    for beta in (1e-170, 1e-155, 1.4e-154):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"beta={beta}: beta\\^2 is below"):
                decoherence.fraction_over_family(state, beta)
    assert 0.0 < decoherence.fraction_over_family(state, 1.5e-154) < 1.0


def test_search_grid_stays_above_subnormal_beta():
    # the grid's 1e-6 alpha start would square to a subnormal here, where
    # the overlap's rounding lifts it above the maximum, and the nine zooms
    # would follow it down (f 1.9e-6 relative high at 1e-153); with the
    # 2 sqrt(float min) floor the search reaches the small-amplitude
    # limit (1 + sqrt(eta))^2 / 4
    limit = (1.0 + math.sqrt(0.5)) ** 2 / 4.0
    for alpha in (1e-150, 1e-153):
        _, f_star = decoherence.optimal_beta(alpha, LossChannel(0.5))
        assert f_star == pytest.approx(limit, rel=1e-12)
        _, f_num = decoherence.search_optimal_beta(alpha, 0.5)
        assert f_num == pytest.approx(limit, rel=1e-9)
    # and the sweep's runtime check passes both points
    points = decoherence.figure1_sweep([1e-150, 1e-153], [0.5])
    assert [p.fraction for p in points] == pytest.approx([limit, limit], rel=1e-12)


def _mp_optimal_overlap(alpha, eta, beta):
    """The family overlap from the literal differences of coherent
    overlaps, at 700 digits: at alpha = 1e-150 the differences cancel
    down to about 1e-300."""
    with mpmath.workdps(700):
        a, e, b = mpmath.mpf(alpha), mpmath.mpf(eta), mpmath.mpf(beta)
        s = mpmath.sqrt(e) * a

        def g(d):
            return mpmath.exp(-d**2 / 2)

        diff = g(b - a) * g(s - b) - g(b + a) * g(b + s)
        coherence = mpmath.exp(-2 * (1 - e) * a**2)
        denom = 2 * (1 - mpmath.exp(-4 * a**2)) * (1 - mpmath.exp(-4 * b**2))
        return (1 + coherence) * diff**2 / denom


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    alpha=st.floats(-150.0, math.log10(30.0)).map(lambda e: 10.0**e),
    eta=st.floats(0.0, 1.0),
)
@example(alpha=1e-150, eta=0.0)
@example(alpha=1e-80, eta=0.5)
@example(alpha=30.0, eta=1.0)
def test_optimal_overlap_matches_mpmath(alpha, eta):
    beta_star, f_star = decoherence.optimal_beta(alpha, LossChannel(eta))
    assert type(beta_star) is float and type(f_star) is float
    reference = _mp_optimal_overlap(alpha, eta, beta_star)
    assert f_star == pytest.approx(float(reference), rel=1e-13, abs=0.0)


def test_optimal_beta_past_the_search_reach():
    # where every grid value of the search underflows and the sweep's
    # runtime check fails, the closed form alone is still right
    assert decoherence.optimal_beta(5000, LossChannel(1.0)) == (5000.0, 1.0)
    alpha, eta = 6000.0, 0.99
    beta_star, f_star = decoherence.optimal_beta(alpha, LossChannel(eta))
    reference = _mp_optimal_overlap(alpha, eta, beta_star)
    # s = sqrt(eta) alpha carries about two roundings, ~2 s 2^-53, and
    # log f moves by 2 |s - beta*| per unit of s: about 4e-11 relative
    s = math.sqrt(eta) * alpha
    tolerance = 4.0 * abs(s - beta_star) * s * 2.0**-53
    assert f_star == pytest.approx(float(reference), rel=tolerance, abs=0.0)


def test_nan_search_fails_comparison(monkeypatch):
    monkeypatch.setattr(
        decoherence, "search_optimal_beta", lambda alpha, eta: (1.0, float("nan"))
    )
    with pytest.raises(decoherence.SweepError, match="disagrees with closed form") as info:
        decoherence.figure1_sweep([1.0], [0.5])
    assert info.value.points == []
