"""The paper's analytic pipelining model (Section 4).

For a wavefront moving along the first dimension of an ``n × n`` data space,
block distributed across ``p`` processors in that dimension, with pipeline
block size ``b`` and the linear communication model ``α + β·s``:

.. math::

    T_{comp} = \\frac{nb}{p}(p-1) + \\frac{n^2}{p}
    \\qquad
    T_{comm} = (\\alpha + \\beta m b)\\left(\\frac{n}{b} + p - 2\\right)

where ``m`` is the number of boundary rows per unit of block width (1 for a
single-array wavefront, 3 for the Tomcatv fragment whose ``d``, ``rx`` and
``ry`` all flow with the wave).  Minimising the sum over ``b`` gives

.. math::

    b^* = \\sqrt{\\frac{\\alpha n}{n(p-1)/p + \\beta m (p-2)}}
        \\approx \\sqrt{\\frac{\\alpha n p}{(m p \\beta + n)(p - 1)}}

**Model1** is the constant-communication-cost special case β = 0 (after
Hiranandani et al.), for which ``b* = sqrt(αp/(p-1)) ≈ sqrt(α)``; **Model2**
is the full model (after Ohta et al.).  The paper's Fig. 5 compares the two.

All three of ``predicted_time``/``optimal_block_size``/``speedup`` take the
generalised ``m``; the paper's formulas are the ``m = 1`` instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ModelError
from repro.machine.params import MachineParams
from repro.util.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class PipelineModel:
    """One configuration of the analytic model.

    Parameters
    ----------
    params:
        Machine parameters (α, β in element-compute units).
    n:
        Problem size: the wavefront sweeps ``n`` rows of width ``n``.
    p:
        Processors along the wavefront dimension.
    boundary_rows:
        The ``m`` factor: boundary elements per unit of block width.
    ignore_beta:
        Model1 when true (β treated as 0), Model2 otherwise.
    """

    params: MachineParams
    n: int
    p: int
    boundary_rows: int = 1
    ignore_beta: bool = False
    #: Width of the data space along the chunked (parallel) dimension;
    #: defaults to ``n`` (the paper's square case).
    cols: int | None = None

    def __post_init__(self) -> None:
        check_positive_int(self.n, "n")
        check_positive_int(self.p, "p")
        check_positive_int(self.boundary_rows, "boundary_rows")
        if self.cols is not None:
            check_positive_int(self.cols, "cols")
        if self.p < 2:
            raise ModelError("the pipeline model needs p >= 2 processors")

    @property
    def alpha(self) -> float:
        return self.params.alpha

    @property
    def beta(self) -> float:
        return 0.0 if self.ignore_beta else self.params.beta

    @property
    def width(self) -> int:
        """Extent of the chunked dimension (``cols`` or ``n``)."""
        return self.cols if self.cols is not None else self.n

    # ------------------------------------------------------------------
    # The Section 4 formulas
    # ------------------------------------------------------------------
    def compute_time(self, b: float) -> float:
        """``T_comp = (nb/p)(p-1) + n*width/p``."""
        b = check_positive(b, "b")
        n, p = self.n, self.p
        return (n * b / p) * (p - 1) + n * self.width / p

    def comm_time(self, b: float) -> float:
        """``T_comm = (α + β m b)(width/b + p - 2)``."""
        b = check_positive(b, "b")
        p = self.p
        message = self.alpha + self.beta * self.boundary_rows * b
        return message * (self.width / b + p - 2)

    def predicted_time(self, b: float) -> float:
        """Total pipelined execution time at block size ``b``."""
        return self.compute_time(b) + self.comm_time(b)

    def serial_time(self) -> float:
        """Uniprocessor time: one unit per element."""
        return float(self.n) * self.width

    def naive_time(self) -> float:
        """Non-pipelined (Fig. 4(a)) time: fully serialised along the wave,
        plus one whole-boundary message per processor boundary."""
        n, p = self.n, self.p
        message = self.alpha + self.beta * self.boundary_rows * self.width
        return n * self.width + (p - 1) * message

    def speedup(self, b: float) -> float:
        """Predicted speedup over the serial execution at block size ``b``."""
        return self.serial_time() / self.predicted_time(b)

    # ------------------------------------------------------------------
    # Optimal block size
    # ------------------------------------------------------------------
    def optimal_block_size_continuous(self) -> float:
        """The closed form from differentiating T(b) (paper Eq. (1))."""
        n, p = self.n, self.p
        denominator = n * (p - 1) / p + self.beta * self.boundary_rows * (p - 2)
        if denominator <= 0:
            raise ModelError("degenerate model: non-positive denominator")
        return math.sqrt(self.alpha * self.width / denominator)

    def optimal_block_size(self, b_max: int | None = None) -> int:
        """The best integer block size in ``1..b_max`` (exact search).

        The closed form ignores integrality and the ceiling in ``n/b``; the
        search is cheap and exact, and agrees with the closed form to within
        a unit in all sane configurations.
        """
        b_max = b_max if b_max is not None else self.width
        candidates = range(1, max(2, min(b_max, self.width) + 1))
        return min(candidates, key=self.predicted_time)

    def approximate_block_size(self) -> float:
        """The paper's approximation ``sqrt(αnp / ((mpβ + n)(p − 1)))``."""
        n, p = self.n, self.p
        return math.sqrt(
            self.alpha * n * p
            / ((self.boundary_rows * p * self.beta + n) * (p - 1))
        )


def model1(
    params: MachineParams, n: int, p: int, boundary_rows: int = 1,
    cols: int | None = None,
) -> PipelineModel:
    """Model1: constant communication cost (β ignored), after Hiranandani."""
    return PipelineModel(params, n, p, boundary_rows, ignore_beta=True, cols=cols)


def model2(
    params: MachineParams, n: int, p: int, boundary_rows: int = 1,
    cols: int | None = None,
) -> PipelineModel:
    """Model2: the full linear-cost model, after Ohta et al."""
    return PipelineModel(params, n, p, boundary_rows, ignore_beta=False, cols=cols)


def model2_of(plan, params: MachineParams, p: int) -> PipelineModel:
    """Model2 of a planned block: the ``rows``, ``cols`` and ``boundary_rows``
    of its :class:`~repro.compiler.schedule.WavefrontPlan` (duck-typed)."""
    return model2(params, plan.rows, p, max(1, plan.boundary_rows), plan.cols)


def amortized_alpha(alpha_c: float, gamma: float, fanout: int) -> float:
    """The per-edge α of a multicast release: ``(α_c + γ·f) / f``.

    One collective release costs ``α_c + γ·f`` and unblocks ``f`` consumer
    tiles at once (:mod:`repro.parallel.collectives`); each edge of the
    tile DAG therefore sees the amortised share.  With ``f = 1`` this
    degenerates to the point-to-point ``α_c + γ``, so the same Eq. (1)
    covers both fabrics.
    """
    f = max(1, fanout)
    return (alpha_c + gamma * f) / f


def collective_model2(
    params: MachineParams,
    n: int,
    p: int,
    boundary_rows: int = 1,
    cols: int | None = None,
    fanout: int = 1,
    gamma: float = 0.0,
) -> PipelineModel:
    """Model2 on the multicast fabric: Eq. (1) with the amortised α.

    ``params.alpha`` is read as the collective α_c and ``gamma`` as the
    marginal per-consumer cost, both in element-compute units; the model
    then runs the unchanged Section 4 formulas on the amortised per-edge
    value.  This is how the planner predicts a multicast schedule with the
    same machinery (and residual tables) as the point-to-point tables.
    """
    from dataclasses import replace

    amortized = replace(
        params,
        name=f"{params.name} (multicast f={max(1, fanout)})",
        alpha=amortized_alpha(params.alpha, gamma, fanout),
    )
    return PipelineModel(
        amortized, n, p, boundary_rows, ignore_beta=False, cols=cols
    )
