import itertools
import warnings

import numpy as np
import pytest

from ldpkit.extreal import INF, NEG_INF, ext_abs_diff, ext_sub

from oracles import scalar_ext_abs_diff, scalar_ext_sub

# infinities, both zeros, and finite pairs whose difference overflows
VALUES = [NEG_INF, -1e308, -1.5, -0.0, 0.0, 2.0, 1e308, INF]
PAIRS = list(itertools.product(VALUES, repeat=2))


@pytest.mark.parametrize(
    "fast, slow", [(ext_abs_diff, scalar_ext_abs_diff), (ext_sub, scalar_ext_sub)]
)
class TestExtendedDifferences:
    def test_scalars_match_the_definition(self, fast, slow):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = [fast(a, b) for a, b in PAIRS]
        # repr tells -0.0 from 0.0
        assert [repr(float(g)) for g in got] == [repr(slow(a, b)) for a, b in PAIRS]

    def test_arrays_match_the_definition(self, fast, slow):
        a, b = (np.array(side) for side in zip(*PAIRS))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = fast(a, b)
        assert got.shape == a.shape
        assert list(map(repr, got.tolist())) == [repr(slow(x, y)) for x, y in PAIRS]
