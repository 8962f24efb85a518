"""The one cluster guard every spectral cut goes through, and the certificates that use it."""

import numpy as np
import pytest

from hamuniv.config import DEFAULT, Config
from hamuniv.operators import (
    ClusterSplitError,
    DenseOperator,
    Subspace,
    SystemLayout,
    guard_cut,
)
from hamuniv.schrieffer_wolff import SWProblem, sw_exact
from hamuniv.simulation import plain_encoding, verify_simulation
from hamuniv.universality import first_order_sim_check

SPLIT = 1e-13  # half the gap of a pair far inside the cluster tolerance


def diag_op(values) -> DenseOperator:
    return DenseOperator(
        SystemLayout((len(values),)), np.diag(values).astype(complex), hermitian=True
    )


def e0(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)[:, :1]


class TestGuardCut:
    def test_cut_at_either_end_is_sound(self):
        vals = np.array([0.0, 0.0, 1.0])
        guard_cut(vals, 0, DEFAULT)
        guard_cut(vals, 3, DEFAULT)

    def test_gap_at_the_tolerance_splits(self):
        # scale max(1, max|values|) = 4; a gap of exactly the tolerance is a split
        cfg = Config(cluster_rtol=0.25)
        guard_cut(np.array([0.0, 1.0 + 1e-12, 4.0]), 1, cfg)
        with pytest.raises(ClusterSplitError):
            guard_cut(np.array([0.0, 1.0, 4.0]), 1, cfg)


def test_every_certificate_refuses_a_cut_inside_a_cluster():
    # first-order lemma: H_sim = diag(5 - s, 5 + s, 20) cut at delta/2 = 5
    delta = 10.0
    h0 = diag_op([0.0, 1.0, 1.0])
    h1 = diag_op([delta / 2 - SPLIT, -delta / 2 + SPLIT, delta])
    with pytest.raises(ClusterSplitError):
        first_order_sim_check(h0, h1, delta, e0(3), np.array([[delta / 2 - SPLIT]]), 0.0)

    h_prime = diag_op([1.0 - SPLIT, 1.0 + SPLIT, 3.0])
    with pytest.raises(ClusterSplitError):
        verify_simulation(np.zeros((1, 1)), h_prime, plain_encoding(e0(3)), 1.0)

    # H~ = diag(0.75 - s, 0.75 + s) with H_- the first basis state
    h0 = diag_op([0.5, 1.0])
    h1 = diag_op([0.25 - SPLIT, -0.25 + SPLIT])
    minus = Subspace.from_basis(h0.layout, e0(2))
    with pytest.raises(ClusterSplitError):
        sw_exact(SWProblem(h0=h0, h1=h1, delta=1.0, minus=minus))
