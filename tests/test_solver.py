from fractions import Fraction as F

import pytest

from nice_einstein.linalg import AffineSet
from nice_einstein.solver import decide_condition_p


def test_scale_gauge_preconditions_raise():
    # Raised, not asserted, so they hold under python -O as well.
    not_a_cone = AffineSet((F(1), F(0)), ((F(1), F(2)),))
    with pytest.raises(ValueError, match="cone"):
        decide_condition_p(not_a_cone, (0, 0), (F(1),), [[1, 0]], [F(2)], True)
    cone = AffineSet((F(0), F(0)), ((F(1), F(2)),))
    with pytest.raises(ValueError, match="scale-invariant"):
        decide_condition_p(cone, (0, 0), (F(1),), [[1, 0]], [F(2)], True)
