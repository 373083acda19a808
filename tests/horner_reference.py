"""The Horner kernel as it was before dead modes left its row loop.

``admlab.signals._horner`` takes the modes whose e^{λΔ} - 1 is exactly -1
at every width of a pass out of the per-row recursion and gives their run
sums in closed form.  This is the plain pass it replaces, every row update
over all n modes, kept verbatim as the bit-for-bit reference.
"""

import numpy as np

from admlab.signals import _BLOCK_ENTRIES, _TINY, SignalError, _expm1, _h


def horner(lams, widths, vals, per_mode=False, starts=(0,), cols=None):
    """Yield Σ_k r_k e^{λ s_k} Δ_k h(λΔ_k) for each run of pieces, last run first.

    Run i is pieces ``starts[i]`` up to the next start (the last run ends
    with the last piece), with s_k measured from the run's first piece.  The
    pieces are taken from the last one back in one pass,
    ``acc ← (acc + z_k acc) + c_k r_k``, and acc restarts from zero after
    each run, whose sum is yielded as soon as the pass leaves it, so memory
    stays O(n) for any number of runs.  The piece weight c_k = Δ_k h(λΔ_k)
    is taken as z_k·(1/λ), equal in exact arithmetic since z_k = e^{λΔ_k} -
    1, with 1/λ formed once.  That keeps full accuracy while |λ|·min(Δ_k, 1)
    is a normal number, which also makes 1/λ finite; where it is not (λ = 0,
    subnormal λ, or a λΔ_k below 2^-1022, where z_k has lost digits) the
    piece keeps Δ_k h(λΔ_k).  That test is made per piece, so a run's bits
    do not depend on the other runs in the pass, and only for the modes
    that fail it at the pass's smallest width: when none do, each row is
    one product z_k·(1/λ).  z comes from one :func:`_expm1` call per block of
    at most ``_BLOCK_ENTRIES`` piece–mode pairs (one piece when n exceeds
    it), whichever runs the block spans.

    r_k is piece k's value row as one value per mode: v_k for a scalar or a
    per-mode signal, and Σ_j v_kj b_j for an m-channel signal mixed through
    the m rows b_j of ``cols`` (m×n), so the accumulator is n long, not n×m.
    An m-channel signal without ``cols`` is summed per channel, as an n×m
    array shaped like :func:`mode_integrals`' result.  Every complex product
    is taken per piece row of n entries, never over a block: numpy's complex
    multiply rounds by array layout, and a row's bits must not depend on the
    runs its block happens to span.
    """
    if per_mode and vals.shape[1] != lams.size:
        raise SignalError("per-mode signal does not match the mode count")
    outer = vals.ndim == 2 and not per_mode and cols is None
    shape = lams.shape + vals.shape[1:] if outer else lams.shape
    mag = np.abs(lams)
    no_inv = ~(mag * min(widths.min(), 1.0) >= _TINY)
    bad = np.flatnonzero(no_inv)
    if bad.size:  # re-tested per piece below; only λ = 0 or subnormal λ lack 1/λ
        no_inv = ~(mag >= _TINY)
    inv = 1.0 / np.where(no_inv, 1.0, lams)
    inv[no_inv] = 0.0
    starts = list(starts)
    acc = np.zeros(shape, dtype=complex)
    step = max(1, _BLOCK_ENTRIES // max(lams.size, 1))
    for hi in range(len(widths), 0, -step):
        lo = max(0, hi - step)
        done = []
        with np.errstate(under="ignore"):
            w = np.multiply.outer(widths[lo:hi], lams)
            z = _expm1(w)
            for k in range(hi - lo - 1, -1, -1):
                c = z[k] * inv
                if bad.size:
                    dk = widths[lo + k]
                    sub = bad[~(mag[bad] * min(dk, 1.0) >= _TINY)]
                    c[sub] = dk * _h(w[k, sub], z[k, sub])
                v = vals[lo + k]
                if cols is not None:
                    r = v[0] * cols[0]
                    for j in range(1, len(cols)):
                        r += v[j] * cols[j]
                    c *= r
                elif outer:
                    c = c[:, None] * v
                else:
                    c *= v
                acc += z[k][..., None] * acc if outer else z[k] * acc
                acc += c
                if lo + k == starts[-1]:
                    done.append(acc)
                    acc = np.zeros(shape, dtype=complex)
                    starts.pop()
        yield from done  # outside errstate: the caller runs between yields
