"""Mutation floor: the smallest defect of each class the verify report catches.

Each case injects one defect into the package, runs run_suite("all") on
cold memo caches and asserts which check families fail.  The size is the
smallest power of ten that fails at least one line; a check that is
tightened, or an oracle that gets sharper, should move it down, never up.

The defect classes (relative unless noted):
* the kernel: dn * (1 + eps sn^2) behind jacobi_sn_cn_dn, for both
  outputs (all three functions, and dn alone);
* gamma * (1 + delta) and m_tilde * (1 + delta), out of the nome;
* A + delta, absolute, on both routes, through _consistency_A;
* shifts * (1 + delta), on maps built honestly;
* the FFT: mode 3 of the real half spectrum, and so its conjugate -3,
  raised by delta * max|u_hat|.

A wrong partner in the cyclic sums is no matter of size: every such
defect stops the run before a report line is written.  Nor is a spatial
period with alpha on the wrong side: it fails the one kdv line whose
grid it builds at alpha != 1.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import landen_kdv.elliptic as elliptic_module
import landen_kdv.fourier as fourier_module
import landen_kdv.landen as landen_module
from landen_kdv import AliasingWarning, ConsistencyError, DnWaveParams, run_suite
from landen_kdv.elliptic import complete_K
from test_package import memo_caches, package_modules


def kernel(eps):
    original = elliptic_module.jacobi_sn_cn_dn

    def sn_cn_dn(x, m, *, dn_only=False):
        s, c, d = original(x, m)
        d = d * (1.0 + eps * s * s)
        return d if dn_only else (s, c, d)

    return [(original, sn_cn_dn)]


def nome_output(index):
    def defect(delta):
        original = landen_module._nome

        def nome(p, m):
            out = list(original(p, m))
            out[index] *= 1.0 + delta
            return tuple(out)

        return [(original, nome)]

    return defect


def offset_constant(delta):
    original = landen_module._consistency_A
    return [(original, lambda *args: original(*args) + delta)]


def shifts(delta):
    original = landen_module.landen_map

    def shifted(p, m):
        lmap = original(p, m)
        return dataclasses.replace(lmap, shifts=tuple(s * (1.0 + delta) for s in lmap.shifts))

    return [(original, shifted)]


def fft_modes(delta):
    # entry 3 of a half spectrum is mode 3, and stands for mode -3 too
    original = fourier_module._rfft

    def rfft(x):
        out = original(x)
        out[3] += delta * np.max(np.abs(out))
        return out

    return [(original, rfft)]


# (defect, size, the families that fail); lines failed at the size, of 206:
# kernel 13, gamma 31, m_tilde 1, A 3, shifts 2, fft 2
FLOOR = [
    (kernel, 1e-11, {"equivalence", "soliton_exact"}),
    (nome_output(1), 1e-11, {"p2_closed_form", "equivalence"}),
    (nome_output(2), 1e-11, {"p2_closed_form"}),
    (offset_constant, 1e-11, {"equivalence"}),
    (shifts, 1e-11, {"residual_up"}),
    (fft_modes, 1e-11, {"residual_up"}),
]


def cyclic_partners(partner):
    """cyclic_sums with row i at offset r paired with row partner(i, r) mod p."""
    original = landen_module.cyclic_sums

    def sums(d):
        p = len(d)
        i, r = np.arange(p), np.arange(1, p)[:, np.newaxis]
        return np.sum(d * d[partner(i, r) % p], axis=1)

    return [(original, sums)]


# the honest partner is i + r; each of these pairs the sums wrongly
PARTNERS = {
    "2r": lambda i, r: i + 2 * r,
    "1-r": lambda i, r: i + 1 - r,
    "reversed_rows": lambda i, r: (i + r)[:, ::-1],
}


def run_patched(replacements, monkeypatch):
    """run_suite("all") on cold memo caches with each original replaced."""
    # taken before patching: a patched landen_map hides its cache
    caches = memo_caches().values()
    for cache in caches:
        cache.cache_clear()
    try:
        with monkeypatch.context() as patch:
            for original, replacement in replacements:
                # every module's name for the original, so no caller escapes
                for module in package_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            patch.setattr(module, name, replacement)
            return run_suite("all")
    finally:
        for cache in caches:
            cache.cache_clear()


@pytest.mark.parametrize("defect, size, failing", FLOOR,
                         ids=["kernel", "gamma", "m_tilde", "A", "shifts", "fft"])
def test_smallest_defect_the_report_catches(defect, size, failing, monkeypatch):
    results = run_patched(defect(size), monkeypatch)
    assert {r.check for r in results if not r.passed} == failing


@pytest.mark.parametrize("partner", PARTNERS.values(), ids=PARTNERS.keys())
def test_wrong_cyclic_partner_stops_the_run(partner, monkeypatch):
    # the first map built, landen_map(2, 0.1), refuses its cyclic constants;
    # a(r) against a(p - r) read the same products and added nothing
    with pytest.raises(ConsistencyError, match=r"a_2\(1\) varies with x at m=0\.1"):
        run_patched(cyclic_partners(partner), monkeypatch)


def test_spatial_period_with_alpha_inverted_fails_one_kdv_line(monkeypatch):
    # 2K/(p/alpha) for 2K/(p alpha); at alpha = 1 both give one length, so
    # every other kdv line that builds its grid from spatial_period passes
    monkeypatch.setattr(DnWaveParams, "spatial_period", property(
        lambda wave: 2.0 * complete_K(wave.m) / (wave.p / wave.alpha)))
    with warnings.catch_warnings():
        # the wave does not fit the grid, so its spectrum aliases too
        warnings.simplefilter("ignore", AliasingWarning)
        results = run_suite("kdv")
    assert [(r.check, r.params) for r in results if not r.passed] == [
        ("residual_up", {"p": 3, "alpha": 1.3, "beta": 0.2, "m": 0.7, "N": 256})]
