"""Per-sensor sampling primitives for shared-pass fan-out acquisition.

One AES campaign observed by N sensors shares everything upstream of
the sensors: the cipher schedule, the Hamming-distance matrix, the
white-noise fill and the Gaussian quantisation draws (each sensor in a
real fan-out campaign sees the same victim and the same acquisition
RNG stream).  ``FusedAcquisitionKernel.acquire_many`` therefore runs
that shared prefix once and calls :func:`sample_sensor` per sensor with
the sensor's own droop block.

Bit-exactness contract
----------------------

``sample_sensor`` must produce, readout for readout, the same int16
values as the single-sensor fused path:

    volts = flat + offset          # pdn stage tail
    volts += noise                 # _add_noise (white term)
    readouts = _sample_normal(sensor, volts, draws)

with the same double-rounded linear interpolation (``dmu[ix]*frac +
mu0[ix]`` as two roundings, never an FMA) and the same half-even
``rint`` quantisation.  Two implementations honour the contract: a
single-pass C loop (:mod:`repro.kernels._csampler`, used when it
compiled and self-tested) and a tiled numpy fallback whose operation
order was validated element-exact against the single-sensor kernel.

The out-of-range check is deferred: the single-sensor path rejects a
block *before* sampling, the fan-out path samples first and raises the
same :class:`~repro.errors.SensorRangeError` (same message — it is
formatted from the block's minimum voltage) afterwards.  Only the
error path differs in timing; successful blocks are bit-identical.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.sensor import check_table_range
from repro.kernels._csampler import get_sampler as _get_csampler

#: Tile size of the numpy fallback.  Swept over 2**14..2**17 on the
#: default campaign; 2**15 keeps every scratch buffer L2-resident while
#: amortising numpy dispatch.
FANOUT_TILE = 1 << 15


def make_scratch(tile: int = FANOUT_TILE) -> Dict[str, np.ndarray]:
    """Reusable tile buffers for :func:`sample_sensor`'s numpy path."""
    return {
        "t": np.empty(tile),
        "flo": np.empty(tile),
        "idx": np.empty(tile, dtype=np.intp),
        "mu": np.empty(tile),
        "sg": np.empty(tile),
        "g": np.empty(tile),
    }


def sample_sensor(
    sensor,
    interp,
    flat: np.ndarray,
    offset: float,
    noise: np.ndarray,
    draw: np.ndarray,
    sigma_floor: float,
    out: np.ndarray,
    scratch: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Sample one sensor's readouts from its flat droop block.

    ``flat`` is the sensor's matmul output (droop without offset),
    ``noise``/``draw`` are the campaign's shared RNG fills, ``out`` is
    the sensor's flat int16 destination.  Raises ``SensorRangeError``
    exactly when the single-sensor path would.
    """
    grid = interp.table[0]
    sampler = _get_csampler()
    if sampler is not None:
        vmin = sampler.sample(
            flat, noise, draw, offset, interp, sigma_floor,
            float(sensor.output_width), out,
        )
    else:
        vmin = _sample_numpy(
            sensor, interp, flat, offset, noise, draw, sigma_floor, out,
            scratch if scratch is not None else make_scratch(),
        )
    if vmin < grid[0]:
        check_table_range(sensor, np.array([vmin]), grid)


def _sample_numpy(
    sensor,
    interp,
    flat: np.ndarray,
    offset: float,
    noise: np.ndarray,
    draw: np.ndarray,
    sigma_floor: float,
    out: np.ndarray,
    scratch: Dict[str, np.ndarray],
) -> float:
    tile = scratch["t"].size
    last_f = float(interp.last_cell)
    grid = interp.table[0]
    grid_lo = float(grid[0])
    # One past the last cell in grid-position units: a tile whose max
    # position stays below it needs neither the cell nor the frac clamp.
    grid_hi_pos = float(interp.last_cell + 1)
    sigma_safe = (
        float(interp.sigma.min()) >= sigma_floor
        and float((interp.sigma[:-1] + interp.dsigma).min()) >= sigma_floor
    )
    size = flat.size
    vmin = np.inf
    for start in range(0, size, tile):
        stop = min(start + tile, size)
        k = stop - start
        t = np.add(flat[start:stop], offset, out=scratch["t"][:k])
        t += noise[start:stop]
        tmin = t.min()
        tmax = t.max()
        if tmin < vmin:
            vmin = tmin
        p = t
        p -= interp.lo
        p *= interp.inv_step
        f = np.floor(p, out=scratch["flo"][:k])
        in_range = (tmax - grid_lo) * interp.inv_step < grid_hi_pos
        if not in_range:
            np.minimum(f, last_f, out=f)
        frac = p
        frac -= f
        if not in_range:
            np.minimum(frac, 1.0, out=frac)
        ix = scratch["idx"][:k]
        np.copyto(ix, f, casting="unsafe")
        mb = np.take(interp.dmu, ix, out=scratch["mu"][:k], mode="clip")
        mb *= frac
        gb = np.take(interp.mu, ix, out=scratch["g"][:k], mode="clip")
        mb += gb
        sb = np.take(interp.dsigma, ix, out=scratch["sg"][:k], mode="clip")
        sb *= frac
        gb = np.take(interp.sigma, ix, out=scratch["g"][:k], mode="clip")
        sb += gb
        if not sigma_safe:
            np.maximum(sb, sigma_floor, out=sb)
        d = np.multiply(draw[start:stop], sb, out=scratch["flo"][:k])
        d += mb
        np.rint(d, out=d)
        np.clip(d, 0, sensor.output_width, out=out[start:stop], casting="unsafe")
    return float(vmin)
