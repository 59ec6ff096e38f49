import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qbell import coherent, decoherence, fock, verify


def test_adequate_truncation_rule():
    assert fock.adequate_truncation(0.0) == 30
    assert fock.adequate_truncation(3.0) == 61
    with pytest.raises(fock.TruncationError):
        fock.coherent_vector(1.0, 5)


def test_coherent_vector():
    vac = fock.coherent_vector(0.0, 30)
    assert vac[0] == 1.0 and np.all(vac[1:] == 0.0)
    vec = fock.coherent_vector(1.0, 40)
    assert abs(np.vdot(vec, vec).real - 1.0) < 1e-14
    overlap = np.vdot(vec, fock.coherent_vector(-1.0, 40)).real
    assert abs(overlap - np.exp(-2.0)) < 1e-12
    big = fock.coherent_vector(3.0, 61)
    mean = np.sum(np.arange(62) * np.abs(big) ** 2)
    assert abs(mean - 9.0) < 1e-9


def _reference_coherent_vector(alpha, truncation):
    # the table-per-call build: log n! and sign(alpha)^n for every call
    n = np.arange(truncation + 1)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, truncation + 1))]))
    if alpha != 0.0:
        amps = np.sign(alpha) ** n * np.exp(
            n * np.log(abs(alpha)) - 0.5 * log_fact - 0.5 * alpha**2
        )
    else:
        amps = np.zeros(truncation + 1)
        amps[0] = 1.0
    vec = amps.astype(complex)
    return vec / np.linalg.norm(vec)


def test_coherent_vector_is_bitwise_the_reference():
    # the cached number levels and the odd-entry flip change no bit
    for alpha, truncation in ((1.0, 40), (-1.3, 50), (0.0, 30), (3.0, 61), (-0.1, 33)):
        got = fock.coherent_vector(alpha, truncation)
        assert np.array_equal(got, _reference_coherent_vector(alpha, truncation))
    n, half_log_fact = fock._number_levels(41)
    assert not n.flags.writeable and not half_log_fact.flags.writeable


def test_quasi_bell_fock_norm_and_spectra():
    vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(2, 1.0))
    lam = np.sort(np.linalg.eigvalsh(fock.partial_trace(vec, keep=(0,))))[::-1][:2]
    assert np.allclose(lam, [0.5, 0.5], atol=1e-10)
    kappa = np.exp(-2.0)
    denom = 2 * (1 + kappa**2)
    vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(1, 1.0))
    lam = np.sort(np.linalg.eigvalsh(fock.partial_trace(vec, keep=(0,))))[::-1][:2]
    assert np.allclose(
        lam, [(1 + kappa) ** 2 / denom, (1 - kappa) ** 2 / denom], atol=1e-10
    )
    vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(4, 0.3))
    entropy = fock.von_neumann_entropy(fock.partial_trace(vec, keep=(0,)))
    assert abs(entropy - 1.0) < 1e-9


def test_beam_splitter_coherent_rule():
    n = fock.adequate_truncation(1.0)
    vac = np.zeros(n + 1, dtype=complex)
    vac[0] = 1.0
    out = fock.beam_splitter(np.outer(fock.coherent_vector(1.0, n), vac), 0.5)
    target = np.outer(
        fock.coherent_vector(np.sqrt(0.5), n), fock.coherent_vector(np.sqrt(0.5), n)
    )
    assert abs(np.vdot(target, out)) ** 2 >= 1.0 - 1e-9
    # vacuum is a fixed point
    out = fock.beam_splitter(np.outer(vac, vac), 0.3)
    assert abs(out[0, 0] - 1.0) < 1e-14
    assert np.linalg.norm(out.ravel()[1:]) < 1e-14


def test_beam_splitter_unitary():
    rng = np.random.default_rng(3)
    vec = rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21))
    vec /= np.linalg.norm(vec)
    for eta in (0.0, 0.37, 1.0):
        out = fock.beam_splitter(vec, eta, check_tail=False)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    # eta = 1 is the identity to rounding: each block is V V+
    assert np.max(np.abs(fock.beam_splitter(vec, 1.0, check_tail=False) - vec)) < 1e-15
    # each block, full (low 0, high n) or partial, against the direct
    # exponential of its explicit generator theta (a b+ - a+ b); the
    # eigenvalues reach the sector, so the phases round to ~theta sector eps
    for sector, low, high in ((5, 0, 5), (30, 10, 20), (40, 20, 20), (40, 19, 21), (69, 0, 69)):
        n_first = np.arange(low + 1, high + 1)
        coupling = np.sqrt(n_first * (sector - n_first + 1.0))
        gen = np.diag(coupling, k=1) - np.diag(coupling, k=-1)
        for theta in (0.0, 0.7, math.pi / 2):
            block = fock._splitter_block(theta, sector, low, high)
            diff = np.max(np.abs(block - _expm_antihermitian(theta * gen)))
            assert diff < 10 * np.finfo(float).eps * (1 + theta * sector), (sector, theta)


def _cut_coherent_three(n):
    # |3> cut to n + 1 levels, below the adequacy rule: alpha^n / sqrt(n!)
    levels = np.arange(n + 1)
    amps = 3.0**levels / np.sqrt([math.factorial(k) for k in levels])
    return amps / np.linalg.norm(amps)


def _vacuum(size):
    vac = np.zeros(size, dtype=complex)
    vac[0] = 1.0
    return vac


def test_beam_splitter_tail_error():
    state = np.outer(_cut_coherent_three(12), _vacuum(13))
    with pytest.raises(fock.TruncationError):
        fock.beam_splitter(state, 0.5)


def _sector_loop_splitter(vec, eta):
    """The beam splitter one photon-number sector at a time, gathering
    and scattering each sector by fancy indexing: the reference for the
    strided sector runs."""
    vec = np.asarray(vec, dtype=complex)
    size = vec.shape[0]
    theta = math.atan2(math.sqrt(1.0 - eta), math.sqrt(eta))
    out = np.array(vec)
    for sector in range(2 * size - 1):
        low = max(0, sector - size + 1)
        high = min(sector, size - 1)
        idx_first = np.arange(low, high + 1)
        idx_second = sector - idx_first
        component = vec[idx_first, idx_second]
        out[idx_first, idx_second] = fock._splitter_block(theta, sector, low, high) @ component
    return out


def _splitter_inputs(size):
    rng = np.random.default_rng(size)
    noise = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    # |g>|0> holds one entry per sector; zeroing the upper half of g
    # leaves every sector from size // 2 on empty, and setting it to
    # 1e-19 leaves those sectors nonzero but below 1e-18 in magnitude,
    # which the splitter moves like any other
    one_mode = np.zeros((size, size), dtype=complex)
    one_mode[:, 0] = fock.coherent_vector(1.2, max(size - 1, 40))[:size]
    one_mode[size // 2 :, 0] = 0.0
    faint = one_mode.copy()
    faint[size // 2 :, 0] = 1e-19
    for vec in (noise, one_mode, faint):
        yield vec
        yield np.asfortranarray(vec)
        yield vec.T  # a transposed view of a C-ordered array


@pytest.mark.parametrize("size", [2, 21, 37])
def test_beam_splitter_matches_sector_loop(size):
    for vec in _splitter_inputs(size):
        for eta in (0.0, 0.3, 1.0):
            out = fock.beam_splitter(vec, eta, check_tail=False)
            assert np.array_equal(out, _sector_loop_splitter(vec, eta)), (size, eta)


def _vacuum_kernel_inputs(size):
    # each input's last entry is 0: only level size - 1 reaches the
    # output's last row or column, so its boundary mass is exactly 0
    rng = np.random.default_rng(1900 + size)
    noise = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    noise[-1] = 0.0
    noise /= np.linalg.norm(noise)
    yield noise
    coherent = fock.coherent_vector(1.3, max(size - 1, 40))[:size]
    coherent[-1] = 0.0
    yield coherent
    # a row of a Fortran-ordered array and every other entry of a longer
    # one: two strided views
    wide = np.asfortranarray(rng.standard_normal((3, size)) + 1j * rng.standard_normal((3, size)))
    wide[:, -1] = 0.0
    wide /= np.linalg.norm(wide[1])
    yield wide[1]
    yield np.repeat(noise, 2)[::2]


@pytest.mark.parametrize("size", [2, 21, 37, 62, 70])
def test_vacuum_kernel_matches_beam_splitter(size):
    # BS(g (x) |0>) from the vacuum-column table against the general
    # per-sector path on the dense input
    worst = 0.0
    for vec_a in _vacuum_kernel_inputs(size):
        for eta in (0.0, 0.3, 0.5, 1.0):
            out = fock._splitter_on_vacuum(vec_a, eta)
            dense = fock.beam_splitter(np.outer(vec_a, _vacuum(size)), eta, check_tail=False)
            assert out.shape == (size, size) and out.flags.c_contiguous
            worst = max(worst, np.max(np.abs(out - dense)))
            flipped = fock._splitter_on_vacuum(fock._parity(vec_a), eta)
            assert np.array_equal(flipped, fock._parity(out)), (size, eta)
    assert worst < 1e-15, worst


def test_vacuum_kernel_keeps_the_boundary_rule():
    amps = _cut_coherent_three(12)
    with pytest.raises(fock.TruncationError) as general:
        fock.beam_splitter(np.outer(amps, _vacuum(13)), 0.5)
    with pytest.raises(fock.TruncationError) as kernel:
        fock._splitter_on_vacuum(amps, 0.5)
    assert str(kernel.value) == str(general.value)
    assert str(general.value).startswith("beam splitter output holds ")
    with pytest.raises(ValueError, match="transmissivity must lie in"):
        fock._splitter_on_vacuum(amps, 1.5)
    for bad in (np.outer(amps, amps), np.zeros(0)):
        with pytest.raises(ValueError, match="expected a nonempty one-mode vector"):
            fock._splitter_on_vacuum(bad, 0.5)


def test_sector_eigensystem_is_the_real_form():
    # V diag(w) V+ is i K and V+ V is I, for the full sectors 0..80 and
    # the partial sectors of a 21-level pair; i K's rounding grows with
    # its norm, the largest |w|, so that residual is taken relative to it
    sectors = [(n, 0, n) for n in range(81)] + [(n, n - 20, 20) for n in range(21, 41)]
    for sector, low, high in sectors:
        w, v = fock._sector_eigensystem(sector, low, high)
        n_first = np.arange(low + 1, high + 1)
        coupling = np.sqrt(n_first * (sector - n_first + 1.0))
        ik = 1j * (np.diag(coupling, k=1) - np.diag(coupling, k=-1))
        scale = max(1.0, float(np.max(np.abs(w))))
        assert np.max(np.abs((v * w) @ v.conj().T - ik)) <= 1e-14 * scale, sector
        assert np.max(np.abs(v.conj().T @ v - np.eye(len(w)))) <= 1e-13, sector


def test_vacuum_tables_of_two_sizes_agree():
    # a sector's column does not depend on the table size: the sectors a
    # 21-level and a 62-level table share hold the same bits
    shared = np.add.outer(np.arange(21), np.arange(21)) < 21
    for eta in (0.0, 0.3, 0.5, 1.0):
        theta = fock._splitter_angle(eta)
        small, large = fock._vacuum_columns(theta, 21), fock._vacuum_columns(theta, 62)
        assert np.array_equal(small[shared], large[:21, :21][shared]), eta
        assert not np.any(small[~shared])


def test_vacuum_columns_are_the_block_columns():
    # sector n of the table, T[k, n - k] for k = 0..n, is the last column
    # of the full sector block; nothing lies past the last input sector
    for eta in (0.0, 0.3, 1.0):
        theta = fock._splitter_angle(eta)
        for size in (2, 21, 62):
            table = fock._vacuum_columns(theta, size)
            for n in range(size):
                k = np.arange(n + 1)
                column = fock._splitter_block(theta, n, 0, n)[:, -1]
                assert np.max(np.abs(table[k, n - k] - column)) < 1e-15, (eta, size, n)
            assert not np.any(table[np.add.outer(np.arange(size), np.arange(size)) >= size])


def test_coherent_parity_is_bitwise():
    # |-alpha> is the parity image of |alpha>: same magnitudes, same norm
    for truncation in (66, 80):
        for alpha in (0.0, 1e-3, 0.4, 1.0, 2.5, 3.3):
            for sign in (1.0, -1.0):
                vec = fock.coherent_vector(sign * alpha, truncation)
                flipped = fock.coherent_vector(-sign * alpha, truncation)
                assert np.array_equal(fock._parity(vec), flipped), (alpha, truncation)
                if alpha:
                    # sign bits too, away from the vacuum's zeros
                    assert np.array_equal(fock._parity(vec).view(np.uint64), flipped.view(np.uint64))
                assert np.array_equal(np.abs(vec), np.abs(flipped))
                assert np.linalg.norm(vec) == np.linalg.norm(flipped)
    assert np.array_equal(fock._parity(fock._parity(vec)), vec)


@pytest.mark.parametrize("size", [2, 21, 37, 62])
def test_beam_splitter_commutes_with_parity(size):
    # the splitter conserves the total photon number, so it commutes with
    # (-1)^(n_1 + n_2) entry for entry: each sector moves with one sign
    vac = np.zeros(size, dtype=complex)
    vac[0] = 1.0
    one_mode = np.outer(fock.coherent_vector(1.7, max(size - 1, 47))[:size], vac)
    for vec in list(_splitter_inputs(size)) + [one_mode]:
        for eta in (0.0, 0.3, 1.0):
            moved = fock.beam_splitter(vec, eta, check_tail=False)
            flipped = fock.beam_splitter(fock._parity(vec), eta, check_tail=False)
            assert np.array_equal(flipped, fock._parity(moved)), (size, eta)
    signs = fock._parity(np.ones((3, 4)))
    assert np.array_equal(signs, (-1.0) ** np.add.outer(np.arange(3), np.arange(4)))


def _dense_quasi_bell(state, truncation):
    # the four-vector build: every coherent vector made by coherent_vector
    # and the squared norm taken from the dense superposition
    sign = -1.0 if state.index in (2, 4) else 1.0
    b_first = -state.beta if state.index in (1, 2) else state.beta
    raw = np.outer(
        fock.coherent_vector(state.alpha, truncation), fock.coherent_vector(b_first, truncation)
    ) + sign * np.outer(
        fock.coherent_vector(-state.alpha, truncation), fock.coherent_vector(-b_first, truncation)
    )
    return raw / math.sqrt(np.vdot(raw, raw).real)


def _terms(state, truncation=None):
    # one state's terms, the stacked constructor's stack of one
    terms_a, terms_b = fock._quasi_bell_terms((state,), truncation)
    return terms_a[0], terms_b[0]


def test_quasi_bell_terms_match_the_dense_build():
    for index in (1, 2, 3, 4):
        for alpha, beta in ((1e-3, 1e-3), (0.3, 1.1), (1.0, 1.0), (2.0, 0.6), (1.0, 0.0)):
            if index in (2, 4) and beta == 0.0:
                continue  # a vanishing state
            state = coherent.CoherentQuasiBell(index, alpha, beta)
            got = fock.quasi_bell_fock(state, 50)
            assert np.max(np.abs(got - _dense_quasi_bell(state, 50))) < 1e-15, (index, alpha, beta)
            (a, c), (b, d) = _terms(state, 50)
            assert np.array_equal(got, np.outer(a, b) + np.outer(c, d))
    # the parity-class sums do not cancel where 1 - ka kb does: the first
    # mode-A term is the unit |alpha> over the norm
    tiny = coherent.CoherentQuasiBell(2, 1e-5)
    terms_a, _ = _terms(tiny, 31)
    norm_sq = 1.0 / np.vdot(terms_a[0], terms_a[0]).real
    assert norm_sq == pytest.approx(-2.0 * math.expm1(-4e-10), rel=1e-9)


def _parity_norm(a, b, sign):
    # the documented norm of a (x) b + sign (P a) (x) (P b) from the
    # even-n and odd-n sums of each vector
    even_a, odd_a, even_b, odd_b = (
        float(np.vdot(part, part).real) for part in (a[0::2], a[1::2], b[0::2], b[1::2])
    )
    if sign > 0:
        return math.sqrt(4.0 * (even_a * even_b + odd_a * odd_b))
    return math.sqrt(4.0 * (even_a * odd_b + odd_a * even_b))


def test_quasi_bell_terms_reuse_the_mode_a_vector(monkeypatch):
    # where |beta| = |alpha| mode B's vector is a or its parity image,
    # bitwise the fresh coherent_vector, so one coherent row serves the
    # state: the one _coherent_rows pass has one row per magnitude
    fresh, rows = fock.coherent_vector, fock._coherent_rows
    calls = []

    def counted(magnitudes, truncation):
        calls.append(list(magnitudes))
        return rows(magnitudes, truncation)

    monkeypatch.setattr(fock, "_coherent_rows", counted)
    for alpha, beta in ((1.0, 1.0), (-0.7, 0.7), (1.2, -1.2), (0.4, 1.1)):
        for index in (1, 2, 3, 4):
            calls.clear()
            state = coherent.CoherentQuasiBell(index, alpha, beta)
            terms_a, terms_b = _terms(state, 45)
            assert len(calls) == 1, (index, alpha, beta)
            assert len(calls[0]) == (1 if abs(alpha) == abs(beta) else 2), (index, alpha, beta)
            amp_b = -beta if index in (1, 2) else beta
            sign = -1.0 if index in (2, 4) else 1.0
            first_a, first_b = fresh(alpha, 45), fresh(amp_b, 45)
            norm = _parity_norm(first_a, first_b, sign)
            expected = (
                first_a / norm,
                sign * fresh(-alpha, 45) / norm,
                first_b,
                fresh(-amp_b, 45),
            )
            for got, want in zip((*terms_a, *terms_b), expected):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (index, alpha, beta)


def _stack_states():
    # every index at equal, opposite, unequal and zero mode-B amplitudes
    for index in (1, 2, 3, 4):
        for alpha, beta in ((1.0, 1.0), (-0.7, 0.7), (1.2, -1.2), (0.4, 1.1), (2.0, 0.6), (1.0, 0.0)):
            yield coherent.CoherentQuasiBell(index, alpha, beta)


def test_stacked_terms_are_the_single_state_terms(monkeypatch):
    # a stack of 24 states takes one _coherent_rows pass over its five
    # distinct nonzero magnitudes and the vacuum, and gives each state
    # the bits of its stack of one
    quasi_bells = list(_stack_states())
    rows, calls = fock._coherent_rows, []

    def counted(magnitudes, truncation):
        calls.append(sorted(magnitudes))
        return rows(magnitudes, truncation)

    monkeypatch.setattr(fock, "_coherent_rows", counted)
    terms_a, terms_b = fock._quasi_bell_terms(quasi_bells, 50)
    assert calls == [[0.0, 0.4, 0.6, 0.7, 1.0, 1.1, 1.2, 2.0]]
    assert terms_a.shape == terms_b.shape == (24, 2, 51)
    for state, got_a, got_b in zip(quasi_bells, terms_a, terms_b):
        want_a, want_b = _terms(state, 50)
        assert np.array_equal(got_a.view(np.uint64), want_a.view(np.uint64)), state
        assert np.array_equal(got_b.view(np.uint64), want_b.view(np.uint64)), state
    # without a truncation, the largest amplitude's adequacy rule sets it
    assert fock._quasi_bell_terms(quasi_bells)[0].shape[-1] == fock.adequate_truncation(2.0) + 1


def test_stacked_terms_keep_both_truncation_errors(monkeypatch):
    # the adequacy rule names the first amplitude of the stack above the
    # truncation, mode A before mode B; B1 flips its mode-B amplitude
    quasi_bells = [coherent.CoherentQuasiBell(2, 0.5), coherent.CoherentQuasiBell(1, 1.0, 3.0)]
    with pytest.raises(fock.TruncationError, match=r"below the adequacy rule \(61 for amplitude -3.0\)"):
        fock._quasi_bell_terms(quasi_bells, 40)
    # with the rule waived the norm guard names the first state whose
    # truncated norm misses 2 (1 +/- ka kb): at 15 levels B2(0.5) keeps
    # its norm and B1(1, 3) loses 2e-3 of it
    monkeypatch.setattr(fock, "adequate_truncation", lambda alpha: 0)
    with pytest.raises(fock.TruncationError, match=r"unnormalized norm\^2 1\.[0-9]+ differs from 2\.0"):
        fock._quasi_bell_terms(quasi_bells, 15)
    assert fock._quasi_bell_terms(quasi_bells[:1], 15)[0].shape == (1, 2, 16)


def test_coherent_vectors_are_the_single_vectors():
    amplitudes = [0.0, -0.0, 1e-3, -0.4, 1.0, -2.5, 3.0]
    vecs = fock._coherent_vectors(amplitudes, 66)
    for alpha, got in zip(amplitudes, vecs):
        assert np.array_equal(got.view(np.uint64), fock.coherent_vector(alpha, 66).view(np.uint64)), alpha
    assert fock._coherent_vectors(amplitudes).shape == (7, fock.adequate_truncation(3.0) + 1)
    with pytest.raises(fock.TruncationError, match=r"\(54 for amplitude -2.5\)"):
        fock._coherent_vectors(amplitudes, 40)


def _term_inputs():
    for index in (1, 2, 3, 4):
        for alpha, beta in ((0.5, 0.5), (1.0, 0.6), (0.3, 1.7), (1.0, 0.0)):
            state = coherent.CoherentQuasiBell(index, alpha, beta)
            yield state, *_terms(state, 60)


def test_term_kernels_match_the_dense_state():
    # the product-term traces and mean photon numbers against the dense
    # quasi_bell_fock state's operator_trace_charfunc and partial_trace
    rng = np.random.default_rng(1602)
    za = rng.uniform(-1.5, 1.5, 20) + 1j * rng.uniform(-1.5, 1.5, 20)
    zb = rng.uniform(-1.5, 1.5, 20) + 1j * rng.uniform(-1.5, 1.5, 20)
    worst = 0.0
    per_state = []
    for state, terms_a, terms_b in _term_inputs():
        vec = fock.quasi_bell_fock(state, 60)
        dense = [fock.operator_trace_charfunc(vec, coherent.CharFuncPoint(a, b)) for a, b in zip(za, zb)]
        traces = fock._char_traces(terms_a[None], terms_b[None], za[None], zb[None])[0]
        worst = max(worst, np.max(np.abs(traces - dense)))
        per_state.append([fock._mean_photon(terms_a, terms_b, mode) for mode in (0, 1)])
        for mode, numeric in enumerate(per_state[-1]):
            dense = fock.mean_photon(fock.partial_trace(vec, keep=(mode,)))
            worst = max(worst, abs(numeric - dense))
    assert worst < 1e-13
    # one stacked call per mode gives the per-state values bit for bit
    _, stack_a, stack_b = (np.array(column) for column in zip(*_term_inputs()))
    stacked = [fock._mean_photon(stack_a, stack_b, mode) for mode in (0, 1)]
    assert np.array_equal(np.transpose(stacked), per_state)


@pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (3.0, 3.0), (1.0, 0.6), (0.3, 1.7), (1.0, 0.0)])
def test_reduced_core_has_the_dense_spectrum(alpha, beta):
    # the 2 x 2 core's spectrum against the dense partial trace's, whose
    # other eigenvalues vanish: each reduced density has rank 2
    for index in (1, 2, 3, 4):
        state = coherent.CoherentQuasiBell(index, alpha, beta)
        n = fock.adequate_truncation(max(alpha, beta))
        terms_a, terms_b = _terms(state, n)
        vec = fock.quasi_bell_fock(state, n)
        for mode in (0, 1):
            core = fock._reduced_core(terms_a, terms_b, mode)
            assert core.shape == (2, 2)
            dense = np.linalg.eigvalsh(fock.partial_trace(vec, keep=(mode,)))[::-1]
            assert np.max(np.abs(np.linalg.eigvalsh(core)[::-1] - dense[:2])) <= 1e-13
            assert np.max(np.abs(dense[2:])) < 1e-14, (index, mode)


def test_term_traces_keep_the_boundary_rule():
    # a displacement that moves the state onto the truncation boundary is
    # named with the mass of the explicit displaced dense state
    state = coherent.CoherentQuasiBell(2, 1.0, 0.6)
    n = fock.adequate_truncation(1.0)
    terms_a, terms_b = _terms(state, n)
    za = np.array([[0.5, 4.0 + 1.0j]])
    moved = _direct_displacement(za[0, 1], n + 1) @ fock.quasi_bell_fock(state, n)
    mass = np.sum(np.abs(moved[-1, :]) ** 2) + np.sum(np.abs(moved[:, -1]) ** 2)
    with pytest.raises(fock.TruncationError, match=f"displaced state holds {mass:.3e} probability"):
        fock._char_traces(terms_a[None], terms_b[None], za, np.zeros((1, 2)))
    with pytest.raises(fock.TruncationError, match="below the adequacy rule"):
        fock._quasi_bell_terms((state,), n - 1)


def test_term_traces_take_a_state_axis():
    # S states with their own points in one call: each state's row is its
    # stack-of-one call, the boundary rule names the first offending
    # (state, point) in that order, and 2-D terms or points not one row
    # per state are refused
    rng = np.random.default_rng(2601)
    quasi_bells = [coherent.CoherentQuasiBell(index, 1.0, 0.6) for index in (1, 2, 3, 4)]
    terms_a, terms_b = fock._quasi_bell_terms(quasi_bells, 40)
    za = rng.uniform(-1.5, 1.5, (4, 6)) + 1j * rng.uniform(-1.5, 1.5, (4, 6))
    zb = rng.uniform(-1.5, 1.5, (4, 6)) + 1j * rng.uniform(-1.5, 1.5, (4, 6))
    stacked = fock._char_traces(terms_a, terms_b, za, zb)
    assert stacked.shape == (4, 6)
    for s in range(4):
        one = slice(s, s + 1)
        single = fock._char_traces(terms_a[one], terms_b[one], za[one], zb[one])
        assert single.shape == (1, 6)
        assert np.max(np.abs(stacked[s] - single[0])) <= 1e-15, s
    far = np.zeros((4, 6), dtype=complex)
    far[2, 3], far[3, 0] = 4.0 + 1.0j, 5.0
    moved = _direct_displacement(far[2, 3], 41) @ fock.quasi_bell_fock(quasi_bells[2], 40)
    mass = np.sum(np.abs(moved[-1, :]) ** 2) + np.sum(np.abs(moved[:, -1]) ** 2)
    with pytest.raises(fock.TruncationError, match=f"displaced state holds {mass:.3e} probability"):
        fock._char_traces(terms_a, terms_b, far, np.zeros((4, 6)))
    with pytest.raises(ValueError, match="equally long stacks"):
        fock._char_traces(terms_a, terms_b[:3], za, zb)
    with pytest.raises(ValueError, match=r"equally long stacks of mode vectors, shape \(S, T, N\)"):
        fock._char_traces(terms_a[0], terms_b[0], za[0], zb[0])
    for points in (za[0], za[:3], za[:, None]):
        with pytest.raises(ValueError, match=r"one row of points per state, shape \(S, P\)"):
            fock._char_traces(terms_a, terms_b, points, points)


def test_partial_trace_product_state():
    vec = np.outer(fock.coherent_vector(1.0, 40), fock.coherent_vector(0.5, 40))
    rho = fock.partial_trace(vec, keep=(0,))
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
    assert fock.von_neumann_entropy(rho) < 1e-9


def test_partial_trace_density_input():
    # the reduced state of the pure vector equals the partial trace of
    # its full two-mode density, taken here by np.trace over mode B
    vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(2, 0.8), 40)
    rho_full = np.outer(vec.ravel(), vec.ravel().conj())
    from_density = np.trace(rho_full.reshape((41,) * 4), axis1=1, axis2=3)
    from_vector = fock.partial_trace(vec, keep=(0,))
    assert np.max(np.abs(from_density - from_vector)) < 1e-12


def test_partial_trace_schmidt_symmetry():
    rng = np.random.default_rng(14)
    vec = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    vec /= np.linalg.norm(vec)
    lam_a = np.sort(np.linalg.eigvalsh(fock.partial_trace(vec, keep=(0,))))[::-1]
    lam_b = np.sort(np.linalg.eigvalsh(fock.partial_trace(vec, keep=(1,))))[::-1]
    assert np.max(np.abs(lam_a - lam_b)) < 1e-10


def test_von_neumann_entropy():
    pure = np.zeros((5, 5), dtype=complex)
    pure[0, 0] = 1.0
    assert fock.von_neumann_entropy(pure) == 0.0
    mixed = np.zeros((5, 5), dtype=complex)
    mixed[0, 0] = mixed[1, 1] = 0.5
    assert abs(fock.von_neumann_entropy(mixed) - 1.0) < 1e-14


def test_charfunc_trace_normalization_and_gaussian_identity():
    n = fock.adequate_truncation(1.0)
    vec = np.outer(fock.coherent_vector(1.0, n), fock.coherent_vector(0.4, n))
    assert abs(fock.operator_trace_charfunc(vec, coherent.CharFuncPoint(0, 0)) - 1.0) < 1e-12
    rng = np.random.default_rng(15)
    for _ in range(10):
        za, zb = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
        numeric = fock.operator_trace_charfunc(vec, coherent.CharFuncPoint(za, zb))
        closed = (
            np.exp(za * 1.0 - np.conj(za) * 1.0 - 0.5 * abs(za) ** 2)
            * np.exp(zb * 0.4 - np.conj(zb) * 0.4 - 0.5 * abs(zb) ** 2)
        )
        assert abs(numeric - closed) < 1e-8


def test_truncation_convergence():
    # doubling the truncation moves nothing by more than 1e-10
    state = coherent.CoherentQuasiBell(1, 1.5)
    n = fock.adequate_truncation(1.5)
    lam = {}
    for trunc in (n, 2 * n):
        vec = fock.quasi_bell_fock(state, trunc)
        lam[trunc] = np.sort(
            np.linalg.eigvalsh(fock.partial_trace(vec, keep=(0,)))
        )[::-1][:2]
    assert np.max(np.abs(lam[n] - lam[2 * n])) < 1e-10
    overlap = {
        trunc: np.vdot(
            fock.coherent_vector(1.5, trunc), fock.coherent_vector(-1.5, trunc)
        ).real
        for trunc in (n, 2 * n)
    }
    assert abs(overlap[n] - overlap[2 * n]) < 1e-10


def test_densities_are_physical():
    for index in (1, 2, 3, 4):
        vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(index, 2.0))
        rho = fock.partial_trace(vec, keep=(1,))
        lam = np.linalg.eigvalsh(rho)
        assert lam.min() > -1e-10
        assert 1.0 - 1e-10 <= np.trace(rho).real <= 1.0 + 1e-12


def test_splitter_cache_is_bounded():
    caches = (
        fock._splitter_block,
        fock._sector_eigensystem,
        fock._vacuum_column,
        fock._vacuum_columns,
    )
    assert all(cache.cache_info().maxsize is not None for cache in caches)
    verify.run_all()
    # sixty angles: more tables than the bound, and with every sector of
    # a 21-level pair, more blocks than the bound
    for eta in np.linspace(0.05, 0.95, 60):
        verify.family_overlap_curve(3.0, float(eta), [2.0])
        fock.beam_splitter(np.ones((21, 21), dtype=complex), float(eta), check_tail=False)
    # the eigensystems are theta-free, so they grow with the sectors only
    for sector in range(1, 1 + 2 * fock._sector_eigensystem.cache_info().maxsize):
        fock._sector_eigensystem(sector, sector - 1, sector)
    for cache in caches:
        assert cache.cache_info().currsize <= cache.cache_info().maxsize, cache
    cached = (
        *fock._sector_eigensystem(5, 0, 5),
        fock._splitter_block(0.4, 5, 0, 5),
        fock._vacuum_column(0.4, 5),
        fock._vacuum_columns(0.4, 6),
    )
    assert not any(array.flags.writeable for array in cached)


def _expm_antihermitian(gen):
    # exp(gen) for an anti-Hermitian generator, from the eigensystem of
    # the Hermitian matrix i gen = V diag(w) V+: exp(gen) = V diag(e^{-iw}) V+
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T


def test_displacement_matches_direct_exponential():
    # the rotation identity the traces rest on: exp(zeta a+ - zeta* a) =
    # R V diag(e^{-i r w}) V+ R+ from the cached eigensystem of the size
    for size in (21, 37):
        ladder = np.diag(np.sqrt(np.arange(1, size)), k=1)
        w, v = fock._displacement_eigensystem(size)
        for zeta in (0.0, 0.7, -1.2, 0.9j, 1.1 - 0.4j):
            direct = _expm_antihermitian(zeta * ladder.T - np.conj(zeta) * ladder)
            rotated = np.exp(1j * np.angle(zeta) * np.arange(size))[:, None] * v
            rotated = (rotated * np.exp(-1j * abs(zeta) * w)) @ rotated.conj().T
            assert np.max(np.abs(rotated - direct)) < 1e-13
            unit = rotated.conj().T @ rotated
            assert np.max(np.abs(unit - np.eye(size))) < 1e-13


def test_displacement_cache_is_bounded():
    info = fock._displacement_eigensystem.cache_info
    assert info().maxsize is not None
    for size in range(2, 2 + 2 * info().maxsize):
        fock._displacement_eigensystem(size)
    assert info().currsize <= info().maxsize


def _direct_displacement(zeta, size):
    ladder = np.diag(np.sqrt(np.arange(1, size)), k=1)
    return _expm_antihermitian(zeta * ladder.T - np.conj(zeta) * ladder)


def test_eigenbasis_traces_match_explicit_displacements():
    # sum |Y_ij|^2 e^{-i (ra w_i + rb w_j)} against <psi| Da psi Db^T>
    # built from the direct exponentials, at two (unequal) mode sizes
    rng = np.random.default_rng(1402)
    for state, shape in ((coherent.CoherentQuasiBell(2, 1.0, 0.6), None), (None, (41, 33))):
        if state is None:
            vec = np.outer(fock.coherent_vector(0.7, shape[0] - 1), fock.coherent_vector(0.3, shape[1] - 1))
        else:
            vec = fock.quasi_bell_fock(state)
        za = rng.uniform(-1.5, 1.5, 12) + 1j * rng.uniform(-1.5, 1.5, 12)
        zb = rng.uniform(-1.5, 1.5, 12) + 1j * rng.uniform(-1.5, 1.5, 12)
        traces = fock._char_traces(np.eye(vec.shape[0])[None], vec[None], za[None], zb[None])[0]
        explicit = [
            np.vdot(vec, _direct_displacement(a, vec.shape[0]) @ vec @ _direct_displacement(b, vec.shape[1]).T)
            for a, b in zip(za, zb)
        ]
        assert np.max(np.abs(traces - explicit)) < 1e-13
        single = fock.operator_trace_charfunc(vec, coherent.CharFuncPoint(za[3], zb[3]))
        assert type(single) is complex and single == traces[3]


def test_eigenbasis_traces_keep_the_boundary_rule():
    # the mass the displaced state puts on its last row and column, as
    # the explicit product gives it, names the first offending point
    n = fock.adequate_truncation(1.0)
    vec = np.outer(fock.coherent_vector(1.0, n), fock.coherent_vector(1.0, n))
    za = np.array([[0.5, 4.0, 5.0 + 1.0j]])
    moved = _direct_displacement(za[0, 1], n + 1) @ vec
    mass = np.sum(np.abs(moved[-1, :]) ** 2) + np.sum(np.abs(moved[:, -1]) ** 2)
    identity = np.eye(n + 1)[None]
    with pytest.raises(fock.TruncationError, match=f"displaced state holds {mass:.3e} probability"):
        fock._char_traces(identity, vec[None], za, np.zeros((1, 3)))
    assert np.isfinite(fock._char_traces(identity, vec[None], za[:, :1], np.zeros((1, 1)))).all()


def test_loss_purity_frobenius_equals_trace(lossy_pair_fock):
    # the battery's loss amplitude
    alpha, eta, n = 1.0, 0.5, fock.adequate_truncation(1.0)
    rho = fock.partial_trace(lossy_pair_fock(alpha, eta, n), keep=(0, 1))
    by_trace = np.trace(rho @ rho).real
    assert abs(np.vdot(rho, rho).real - by_trace) < 1e-13
    closed_rho = decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix
    closed = np.trace(closed_rho @ closed_rho).real
    deviation = verify.check_loss_purity(n).deviation
    assert abs(deviation - abs(by_trace - closed)) < 1e-13


def test_family_overlap_curve_matches_einsum(lossy_pair_fock):
    alpha, eta = 1.0, 0.3
    betas = np.linspace(0.25, 1.75, 7)
    n = fock.adequate_truncation(betas.max())
    psi = lossy_pair_fock(alpha, eta, n)
    reference = [
        np.sum(np.abs(np.einsum(
            "ab,abe->e",
            fock.quasi_bell_fock(coherent.CoherentQuasiBell(2, beta), n).conj(),
            psi,
        )) ** 2)
        for beta in betas
    ]
    curve = verify.family_overlap_curve(alpha, eta, betas)
    assert np.max(np.abs(curve - reference)) < 1e-14


def test_fock_imports_only_stdlib_and_numpy():
    # the oracle's independence: nothing from the closed-form modules
    tree = ast.parse(Path(fock.__file__).read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in fock"
            roots.add(node.module.split(".")[0])
    assert roots, "no imports found"
    assert "qbell" not in roots
    assert roots <= set(sys.stdlib_module_names) | {"numpy"}, roots
