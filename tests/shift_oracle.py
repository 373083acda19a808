"""mpmath oracle for the shift demo's power-profile modular.

``modular_mp(segments, c, a)`` is integral_0^1 Phi(c s^a) ds by mpmath
quadrature in u = log s, split where c s^a crosses a breakpoint of Phi, with
Phi summed from its density segments ``(x0, kind, c, r)``; it knows nothing
of the program's per-segment closed forms.
"""

import mpmath as mp


def _phi_mp(segments, x):
    total = mp.mpf(0)
    for i, (x0, kind, c, r) in enumerate(segments):
        lo = mp.mpf(x0)
        hi = min(x, mp.mpf(segments[i + 1][0])) if i + 1 < len(segments) else x
        if hi <= lo:
            break
        if kind == "power":
            total += mp.mpf(c) / (r + 1) * (hi ** (r + 1) - lo ** (r + 1))
        else:
            total += mp.mpf(c) * (hi - lo)
    return total


def crossings_mp(segments, c, a):
    """log s in (-oo, 0) where c s^a meets a breakpoint, in ascending order."""
    us = ((mp.log(mp.mpf(x0)) - mp.log(mp.mpf(c))) / mp.mpf(a) for x0, *_ in segments[1:])
    return sorted(u for u in us if u < 0)


def levels_mp(segments, c, a):
    """ceil(-log2 s*) for the deepest crossing s* in (0, 1); 0 without one."""
    with mp.workdps(40):
        us = crossings_mp(segments, c, a)
        return int(mp.ceil(-us[0] / mp.log(2))) if us else 0


def modular_mp(segments, c, a):
    """integral_{-oo}^0 Phi(c e^{a u}) e^u du; each piece between crossings
    is cut at 1, 4, 16 and 64 below its top, where the weight e^u has decayed."""
    with mp.workdps(20):
        c, a = mp.mpf(c), mp.mpf(a)
        tops = [mp.mpf(0)] + [u for u in reversed(crossings_mp(segments, c, a))]
        pts = set(tops)
        for top in tops:
            pts |= {top - 4**k for k in range(4)}
        pts = sorted(p for p in pts if p <= 0)
        f = lambda u: _phi_mp(segments, c * mp.exp(a * u)) * mp.exp(u)
        return float(mp.quad(f, [-mp.inf] + pts))
