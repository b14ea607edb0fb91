import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sensorplace
from sensorplace import QpProblem, hessian_rows
from sensorplace.gram import COLUMN_BLOCK, cut_mask
from sensorplace.qp_solver import NormalMatrixAction


def test_woodbury_core_matches_dense(rng):
    n = 2 * COLUMN_BLOCK + 17  # a ragged last block
    root = rng.normal(size=(5, 5))
    rows = hessian_rows(root.T @ root, rng.normal(size=(5, n)))
    problem = QpProblem(np.zeros(n), rows, np.zeros(n), np.ones(n), n / 2)
    diag = rng.uniform(0.1, 4.0, n)
    action = NormalMatrixAction(problem, diag, rng.uniform(0.1, 2.0),
                                np.empty((NormalMatrixAction.ROWS, n)))
    dense = np.eye(rows.shape[0]) + (rows / diag) @ rows.T
    assert np.abs(action._core - dense).max() <= 1e-12 * np.abs(dense).max()


@settings(max_examples=200, deadline=None)
@given(
    lam=hnp.arrays(np.float64, st.integers(0, 12),
                   elements=st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)),
    rel=st.sampled_from([1e-12, 1e-10, 1e-3, 0.5]),
)
def test_cut_mask_keeps_exactly_the_entries_above_rel_max(lam, rel):
    ascending = np.sort(lam)
    descending = ascending[::-1]
    keep = cut_mask(ascending, rel)
    np.testing.assert_array_equal(cut_mask(descending, rel), keep[::-1])
    if lam.size == 0 or lam.max() <= 0.0:
        assert not keep.any()
    else:
        np.testing.assert_array_equal(keep, ascending > rel * lam.max())


def _package_imports(name):
    """Package modules that ``name`` imports, directly or through others."""
    todo, seen = [name], set()
    while todo:
        tree = ast.parse((Path(sensorplace.__file__).parent / f"{todo.pop()}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps = [node.module] if node.module else [a.name for a in node.names]
                todo.extend(d for d in deps if d not in seen)
                seen.update(deps)
    return seen


@pytest.mark.parametrize("module", ["chebyshev", "gram"])
def test_does_not_import_the_qp_solver(module):
    assert "qp_solver" not in _package_imports(module)
