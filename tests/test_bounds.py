"""Bound reconciliation: certificate lower bound against both upper bounds."""

import pytest

from torustc import BoundMismatch, InvalidSignature, TcBounds, compute_bounds


class TestComputeBounds:
    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 9) for r in range(1, n + 1)])
    def test_reconciles_everywhere(self, n, r):
        b = compute_bounds(n, r)
        assert b.lower == b.tc == min(n + 1, 2 * r)
        assert b.upper_constructive == n + 1
        assert b.upper_dimension == 2 * r
        assert b.tc == min(b.upper_constructive, b.upper_dimension)

    def test_frozen_values(self):
        assert compute_bounds(3, 2).tc == 4
        assert compute_bounds(1, 1).tc == 2
        assert compute_bounds(8, 8).tc == 9
        assert compute_bounds(8, 2).tc == 4

    def test_constructive_tightness_flag(self):
        b = compute_bounds(5, 2)
        assert b.tc == 4
        assert b.upper_constructive == 6
        assert not b.constructive_tight
        assert compute_bounds(3, 2).constructive_tight

    def test_monotone_in_r_for_fixed_n(self):
        for n in range(1, 9):
            values = [compute_bounds(n, r).tc for r in range(1, n + 1)]
            assert values == sorted(values)
            assert values[-1] == n + 1

    def test_monotone_in_n_for_fixed_r(self):
        for r in range(1, 5):
            values = [compute_bounds(n, r).tc for n in range(r, 9)]
            assert values == sorted(values)

    def test_invalid_signature_propagates(self):
        with pytest.raises(InvalidSignature, match="r exceeds n"):
            compute_bounds(2, 3)
        with pytest.raises(InvalidSignature):
            compute_bounds(0, 0)

    def test_jsonable(self):
        bounds = compute_bounds(5, 2)
        doc = bounds.to_jsonable()
        assert list(doc) == [*TcBounds._fields, "constructive_tight"]
        with pytest.raises(AttributeError):
            bounds.tc = 5
        assert doc == {
            "n": 5,
            "r": 2,
            "lower": 4,
            "upper_constructive": 6,
            "upper_dimension": 4,
            "tc": 4,
            "constructive_tight": False,
        }
