"""Refinement layer: learned linear measurements of the base-layer residual,
decoded by a small stack of unfolded ISTA iterations.

The unfolded decoder keeps ISTA's structure but learns a separate step size
and threshold per channel per layer (stored in raw form: step = exp(a),
threshold = softplus(b), which keeps both in range without projections).

``unfold_code`` runs all layers on the rows it is given, in three work
buffers reused across layers. It has no row loop of its own: the codec
synthesizes a table one block of ``codec._BLOCK_ROWS`` rows at a time, and a
training batch is one block, so its buffers stay in cache. Layer 0 starts
from beta = 0 (one matmul), and the soft threshold is computed as
``pre - clip(pre, -tau, tau)``: the soft threshold's values in fewer passes.
That difference is nonzero exactly outside the dead zone |pre| <= tau, with
the sign of pre, so a layer's output code is also its dead-zone mask and
sign: the trainer's backward reads them there, so a recorded layer keeps
only its input code and its measurement residual, and ``pre`` is one work
buffer on every path.

``prepare`` casts a model's layers to one precision once: G, a contiguous
G^T, D^T, and each layer's eta, tau and -tau, stored tiled t times. numpy
runs a (rows, n_atoms) op with an (n_atoms,) per-channel operand as one
short inner loop per row: on a (1024, 50) float32 block, ``maximum`` took
19.1 us and ``multiply`` 23.8 us, against 8.5 us for the same op on two
arrays of that shape (2-vCPU x86 host, numpy 2.4). When a block's rows are a multiple of t,
``unfold_code`` views its work arrays as (rows / t, t * n_atoms), so each
per-channel term runs as a few long loops against the tiles: ``maximum``
on a (4, 12800) view with 256-fold tiles took 9.0 us. The values are the
same bits, since only the iteration order of elementwise ops changes. The
codec prepares each stream once per table, tiled 256 times when the table
has a full block of rows. Tiles built for a few rows cost more than they
save: tiled 256 times, a 128-row file encoded 25% slower, and a 256-row
training batch took twice as long through the layers. So small tables and
the trainer run untiled (t = 1); the trainer prepares once per iteration,
and its backward reads G, G^T and the steps from the forward's object.
``prepare`` caps a tiled row at 2^14 floats and all tiles of one kind at
2^17, so no model makes the tiles large.

The analysis computes in the precision of its input (``linalg.working``)
and casts its weights to it on each call; the layers compute in the
precision ``prepare`` cast their weights to, once. The codec analyses in
float64 and prepares the layers in float32, so a table's refinement is
synthesized in float32, at about half the cost of float64. The trainer
passes float32 residuals and prepares float32 copies of its float64 master
weights, so training runs these same layers in float32 (see ``trainer``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimMismatch


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


@dataclass
class RefinementModel:
    """Measurement matrix, dictionary, and per-layer shrinkage parameters.

    measure:    (n_meas, dim) linear analysis map applied to the residual
    dictionary: (dim, n_atoms) synthesis dictionary
    step_raw:   (n_layers, n_atoms), per-channel log step sizes
    thresh_raw: (n_layers, n_atoms), per-channel pre-softplus thresholds
    """

    measure: np.ndarray
    dictionary: np.ndarray
    step_raw: np.ndarray
    thresh_raw: np.ndarray

    @property
    def n_meas(self) -> int:
        return self.measure.shape[0]

    @property
    def dim(self) -> int:
        return self.measure.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.dictionary.shape[1]

    @property
    def n_layers(self) -> int:
        return self.step_raw.shape[0]

    def steps(self) -> np.ndarray:
        return np.exp(self.step_raw)

    def thresholds(self) -> np.ndarray:
        return _softplus(self.thresh_raw)


_STEP_INIT = 0.8  # every layer's initial step, exp(step_raw)


def init_refinement(
    dim: int,
    n_meas: int,
    n_atoms: int,
    n_layers: int,
    rng: np.random.Generator,
    thresh_init: float,
) -> RefinementModel:
    """Measurement rows: unit-normalized Gaussian. Square dictionaries start
    at (jittered) identity: the residual is modeled as sparse in its own
    coordinates, and a Gaussian start trains far slower at small budgets.
    """
    a = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(n_meas, dim))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    if n_atoms == dim:
        d = np.eye(dim) + 0.01 * rng.normal(size=(dim, n_atoms))
    else:
        d = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, n_atoms))
    # softplus(b) = thresh_init  =>  b = log(expm1(thresh_init)), which is
    # thresh_init + log(-expm1(-thresh_init)) where expm1 overflows (above ~709.8)
    with np.errstate(over="ignore"):
        b0 = float(np.log(np.expm1(thresh_init)))
    if math.isinf(b0):
        b0 = thresh_init + math.log(-math.expm1(-thresh_init))
    return RefinementModel(
        measure=a,
        dictionary=d,
        step_raw=np.full((n_layers, n_atoms), np.log(_STEP_INIT)),
        thresh_raw=np.full((n_layers, n_atoms), b0),
    )


def analyze_refine(r: np.ndarray, model: RefinementModel) -> np.ndarray:
    """Linear measurements y = A r. Accepts (D,) vectors or (N, D) tables,
    and computes in their precision (``linalg.working``)."""
    r = linalg.working(r)
    if r.shape[-1] != model.dim:
        raise DimMismatch(f"expected last dim {model.dim}, got {r.shape[-1]}")
    return r @ np.ascontiguousarray(model.measure.T, dtype=r.dtype)  # see prepare's g_t


# The tile rule of ``prepare``: at most _TILE_ROW floats in one tiled row of
# a layer's eta, tau or -tau, so a row stays in cache beside the work array it
# scales, and at most _TILE_FLOATS in all layers' tiles of one kind.
_TILE_ROW = 1 << 14
_TILE_FLOATS = 1 << 17


@dataclass(frozen=True)
class Prepared:
    """A model's unfolded layers in one working precision, ready for
    ``unfold_code``: G, a contiguous G^T, D^T, and each layer's eta, tau and
    -tau tiled ``tile`` times (shape (n_layers, tile * n_atoms)). A row's
    first n_atoms entries are the layer's untiled parameters."""

    g: np.ndarray
    g_t: np.ndarray
    d_t: np.ndarray
    etas: np.ndarray
    taus: np.ndarray
    neg_taus: np.ndarray
    tile: int

    @property
    def dtype(self) -> np.dtype:
        return self.g.dtype

    @property
    def n_meas(self) -> int:
        return self.g.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.g.shape[1]


def prepare(model: RefinementModel, dtype, tile: int = 1) -> Prepared:
    """``model``'s layers cast to ``dtype`` once, each layer's eta, tau and
    -tau tiled at most ``tile`` times (a power of two).

    The tile is halved until a tiled row holds at most 2^14 floats and all
    layers' tiles of one kind at most 2^17, so the tiles keep
    3 * n_layers * tile * n_atoms floats: 1.5 * tile times the model's
    step_raw and thresh_raw floats, and never more than 3 * 2^17 floats
    (1.5 MiB in float32), whatever the model. G and G^T keep
    n_meas * n_atoms floats each, and D^T is a view of the dictionary in
    float64 and a dim * n_atoms copy in any other precision.
    """
    while tile > 1 and (tile * model.n_atoms > _TILE_ROW or tile * model.step_raw.size > _TILE_FLOATS):
        tile //= 2
    g = (model.measure @ model.dictionary).astype(dtype, copy=False)
    etas = model.steps().astype(dtype, copy=False)
    taus = model.thresholds().astype(dtype, copy=False)
    if tile > 1:
        etas, taus = np.tile(etas, (1, tile)), np.tile(taus, (1, tile))
    return Prepared(
        g=g,
        # A contiguous G^T: BLAS multiplies it faster than the transposed
        # view, as it does for analyze_refine, base_layer.synthesize_base and
        # the trainer's backward. The two give the same bits only at the
        # shapes checked: with OpenBLAS, (n x 50) @ (50 x 15) agrees for n
        # from 81 to 2199 and at 4096 and 20000, in float64 and float32
        # alike, but rounds differently at 80 rows or fewer, which includes a
        # short last block of the codec's synthesis.
        g_t=np.ascontiguousarray(g.T),
        d_t=model.dictionary.T.astype(dtype, copy=False),
        etas=etas,
        taus=taus,
        neg_taus=-taus,
        tile=tile,
    )


def unfold_synthesize(y: np.ndarray, layers: Prepared) -> np.ndarray:
    """Decode measurements through the unfolded layers; returns D beta.

    Accepts (n_meas,) vectors or (N, n_meas) tables, and computes in the
    precision ``layers`` were prepared in. beta starts at zero, so zero
    measurements decode to an exactly zero residual.
    """
    y = linalg.working(y)
    if y.shape[-1] != layers.n_meas:
        raise DimMismatch(f"expected last dim {layers.n_meas}, got {y.shape[-1]}")
    return unfold_code(y, layers) @ layers.d_t


def unfold_code(y: np.ndarray, layers: Prepared, record: list | None = None) -> np.ndarray:
    """The unfolded layers without checks; returns the final code beta.

    Runs in the precision ``layers`` were prepared in, whose G, G^T, steps
    and thresholds were cast once: no float64 operand promotes a float32
    layer.

    Every layer runs on all rows of ``y`` at once: callers that want bounded
    working memory pass a block of rows (the codec's ``_reconstruct_stream``
    does). When the rows are a multiple of the prepared tile t, each
    (rows, n_atoms) work array is viewed as (rows / t, t * n_atoms), so a
    per-channel term (the eta multiply and the clip to +-tau) runs as one
    long inner loop against the tiled parameters, not one short loop per
    row. The matmuls keep their shapes, and an elementwise op gives the same
    value in any order, so the tile changes no bit of the result.

    If ``record`` is a list, each layer appends the pair (beta, resid): its
    input code and its measurement residual ``beta @ G^T - y`` (zeros and
    ``-y`` for layer 0). That is all the trainer's backward reads: it takes
    layer k's dead zone and sign from beta k+1 (the returned code for the
    last layer), and its pre-activation is ``beta - eta * (resid @ G)``. The
    trainer's loss runs this same loop, so training and decoding share one
    forward definition.
    """
    y = linalg.working(y)
    g, g_t = layers.g, layers.g_t
    dt, (n_meas, n_atoms), n_layers = g.dtype, g.shape, layers.etas.shape[0]
    y2 = y.astype(dt, copy=False).reshape(-1, n_meas)
    n = y2.shape[0]
    t = layers.tile if n % layers.tile == 0 else 1
    shape, wide = (n, n_atoms), (n // t, t * n_atoms)
    width = wide[1]
    etas, taus, neg_taus = layers.etas[:, :width], layers.taus[:, :width], layers.neg_taus[:, :width]
    # the first layer writes all of beta; with no layer, beta stays zero
    beta = np.empty(shape, dt) if n_layers else np.zeros(shape, dt)
    resid, pre, clip = np.empty_like(y2), np.empty(shape, dt), np.empty(shape, dt)
    pre_w, clip_w = pre.reshape(wide), clip.reshape(wide)
    for k in range(n_layers):
        if k == 0:  # beta = 0: pre = -eta * (-y @ G) = eta * (y @ G)
            np.matmul(y2, g, out=pre)
            pre_w *= etas[0]
        else:
            np.matmul(beta, g_t, out=resid)
            resid -= y2
            np.matmul(resid, g, out=pre)
            pre_w *= etas[k]
            np.subtract(beta, pre, out=pre)
        nxt = beta if record is None else np.empty(shape, dt)
        np.minimum(np.maximum(pre_w, neg_taus[k], out=clip_w), taus[k], out=clip_w)
        np.subtract(pre, clip, out=nxt)
        if record is not None:  # a recorded layer keeps its beta and resid; the next gets new ones
            record.append((beta, resid) if k else (np.zeros(shape, dt), -y2))
            resid = np.empty_like(y2)
        beta = nxt
    return beta.reshape(y.shape[:-1] + (n_atoms,))


def param_count(model: RefinementModel) -> int:
    """Number of transmitted refinement parameters."""
    return (
        model.measure.size
        + model.dictionary.size
        + model.step_raw.size
        + model.thresh_raw.size
    )
