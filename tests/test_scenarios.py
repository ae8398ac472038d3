"""Scenario arithmetic, cross-checked on sign-twisted toy instances."""

import pytest

from iwaheights.heights import BlockPairing, BlockSpec, DerivedHeightPairing, HeightPairing
from iwaheights.lambdamod import infer_invariants, shape_dims
from iwaheights.scenarios import (
    POLARIZED,
    ScenarioInput,
    anticyclotomic_prediction,
    degeneracy_floor,
    parity_check,
)
from tests.conftest import twist_equivariance_check


class TestPrediction:
    def test_three_zero(self):
        pred = anticyclotomic_prediction(ScenarioInput(3, 0))
        assert pred.shape.e_infinity == 1
        assert pred.shape.multiplicity(1) == 0
        assert pred.shape.multiplicity(2) == 2
        assert pred.consistency_ok

    def test_minimal_case(self):
        pred = anticyclotomic_prediction(ScenarioInput(1, 0))
        assert pred.shape.e_infinity == 1
        assert pred.shape.j_blocks == ()
        assert pred.consistency_ok

    def test_equal_components_rejected(self):
        with pytest.raises(ValueError):
            anticyclotomic_prediction(ScenarioInput(2, 2))

    def test_consistency_identity_range(self):
        for sp in range(6):
            for sm in range(6):
                if abs(sp - sm) < 1:
                    continue
                pred = anticyclotomic_prediction(ScenarioInput(sp, sm))
                e1 = pred.shape.multiplicity(1)
                e2 = pred.shape.multiplicity(2)
                assert sp + sm == 1 + e1 + e2
                assert shape_dims(pred.shape, 1)[0] == sp + sm

    def test_round_trip_with_invariants(self):
        for sp, sm in ((3, 0), (0, 3), (4, 1), (2, 5)):
            pred = anticyclotomic_prediction(ScenarioInput(sp, sm))
            dims = shape_dims(pred.shape, 5)
            prof = infer_invariants(dims)
            assert prof.e_infinity == 1
            assert prof.multiplicity(1) == pred.shape.multiplicity(1)
            assert prof.multiplicity(2) == pred.shape.multiplicity(2)
            assert all(prof.multiplicity(r) == 0 for r in (3, 4))


class TestParity:
    def test_pass_case(self):
        assert parity_check([0, 2], POLARIZED).ok

    def test_flag_case(self):
        rep = parity_check([1, 1], POLARIZED)
        assert rep.flagged == (2,)

    def test_empty(self):
        assert parity_check([], POLARIZED).ok

    def test_non_polarized_rejected(self):
        with pytest.raises(ValueError):
            parity_check([0, 2], "general")


class TestDegeneracyFloor:
    def test_values(self):
        assert degeneracy_floor(ScenarioInput(3, 0)) == 3
        assert degeneracy_floor(ScenarioInput(2, 2)) == 0

    def test_toy_instances_respect_floor(self, spec31):
        # Level-0 toys built from a sign-twisted nondegenerate pair plus
        # dead blocks carrying one eigencomponent each.  The twist acts by
        # swapping the paired blocks (eigensplit s+ = s- = 1 there) and
        # fixing each dead block with a chosen sign, so an eigencomponent
        # imbalance can only come from dead (zero-pairing) directions,
        # and the kernel bound is sharp.
        cases = [
            # (dead_plus, dead_minus)
            (0, 0),
            (1, 0),
            (2, 0),
            (1, 1),
        ]
        for dp, dm in cases:
            blocks = [BlockSpec(0, 1), BlockSpec(0, -1)] + [
                BlockSpec(0, dead=True) for _ in range(dp + dm)
            ]
            bp = BlockPairing(spec31, blocks)
            h = HeightPairing(bp)
            M = h.module
            dim = M.dim
            # tau: swap the paired blocks; eigenvalue +1 on the first dp
            # dead blocks and -1 on the remaining dm
            tau = [[0] * dim for _ in range(dim)]
            tau[0][1] = tau[1][0] = 1
            for t in range(2, 2 + dp):
                tau[t][t] = 1
            for t in range(2 + dp, dim):
                tau[t][t] = -1 % 3
            assert twist_equivariance_check(h, tau, tau, -1) is True
            s_plus = 1 + dp
            s_minus = 1 + dm
            floor = degeneracy_floor(ScenarioInput(s_plus, s_minus))
            d1 = DerivedHeightPairing(h, 1)
            kernel = d1.left_kernel_elements()
            # log_3 of the kernel size = its dimension over F_3
            kdim = 0
            size = len(kernel)
            while size > 1:
                size //= 3
                kdim += 1
            assert floor <= kdim
            assert kdim == dp + dm  # sharp: exactly the dead directions
