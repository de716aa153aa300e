"""Tests for quadratic fields, gradients, and the differentiation form."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_derivative_rows, dense_grad_u

from fbsdekit.errors import InvalidArgument
from fbsdekit.fields import (
    QuadraticField,
    clamp,
    eval_u,
    eval_v_diff,
    feature_derivative,
    features,
    field_from_record,
    field_to_record,
    grad_u,
    inside_box,
    num_features,
    zero_field,
)


def make_field(dim, coeffs, half=10.0):
    return QuadraticField(
        dim=dim,
        coeffs=np.asarray(coeffs, dtype=np.float64),
        trunc_lo=np.full(dim, -half),
        trunc_hi=np.full(dim, half),
    )


# boxes of a 2-d field that are not two (2,) bounds with lo < hi
MALFORMED_BOXES = [
    pytest.param([-1.0], [1.0], id="1-box"),
    pytest.param([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], id="3-box"),
    pytest.param([[-1.0, -1.0]], [[1.0, 1.0]], id="1x2-box"),
    pytest.param([-1.0, -1.0], 1.0, id="scalar-hi"),
    pytest.param([-1.0, np.nan], [1.0, 1.0], id="nan-lo"),
    pytest.param([-1.0, -1.0], [np.nan, 1.0], id="nan-hi"),
    pytest.param([-1.0, 1.0], [1.0, 1.0], id="empty-width"),
]


class TestFeatures:
    def test_one_dim(self):
        assert np.array_equal(features([2.0], 1), [1.0, 2.0, 4.0])

    def test_two_dim_ordering(self):
        assert np.array_equal(features([1.0, 2.0], 2), [1.0, 1.0, 2.0, 1.0, 4.0, 2.0])

    def test_four_dim_length(self):
        assert num_features(4) == 15
        assert features(np.ones(4), 4).shape == (15,)

    def test_batched(self):
        x = np.array([[1.0, 2.0], [0.5, -1.0]])
        out = features(x, 2)
        assert out.shape == (2, 6)
        assert np.array_equal(out[0], features(x[0], 2))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgument):
            features([1.0, 2.0, 3.0], 2)


class TestEvalU:
    def test_constant_field(self):
        field = make_field(3, [4.5] + [0.0] * (num_features(3) - 1))
        x = np.random.default_rng(0).normal(size=(20, 3))
        assert np.allclose(eval_u(field, x), 4.5)

    def test_one_dim_value(self):
        field = make_field(1, [1.0, 2.0, 3.0])
        assert eval_u(field, [1.0]) == 6.0

    def test_clamping_makes_field_constant_outside(self):
        field = make_field(1, [1.0, 2.0, 3.0], half=2.0)
        assert eval_u(field, [5.0]) == eval_u(field, [2.0])
        assert eval_u(field, [-7.0]) == eval_u(field, [-2.0])


class TestGradU:
    def test_one_dim(self):
        field = make_field(1, [1.0, 2.0, 3.0])
        assert np.array_equal(grad_u(field, [1.0]), [8.0])

    def test_cross_term(self):
        coeffs = np.zeros(num_features(2))
        coeffs[5] = 1.0  # the x1*x2 feature
        field = make_field(2, coeffs)
        assert np.array_equal(grad_u(field, [3.0, 5.0]), [5.0, 3.0])

    def test_zero_outside_box(self):
        rng = np.random.default_rng(1)
        field = make_field(3, rng.normal(size=num_features(3)), half=1.5)
        g = grad_u(field, [0.3, 9.0, -0.2])
        assert g[1] == 0.0
        assert g[0] != 0.0 and g[2] != 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_central_differences(self, dim, seed):
        rng = np.random.default_rng(seed)
        field = make_field(dim, rng.normal(size=num_features(dim)))
        x = rng.uniform(-5.0, 5.0, size=dim)  # strictly inside the box
        step = 1e-5
        approx = np.empty(dim)
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = step
            approx[k] = (eval_u(field, x + e) - eval_u(field, x - e)) / (2 * step)
        exact = grad_u(field, x)
        scale = np.maximum(np.abs(exact), 1.0)
        assert np.all(np.abs(exact - approx) <= 1e-6 * scale)


def box_batch(dim, num_paths, seed):
    """A field with coefficients of mixed sign and states around its box.

    The states lie inside the box, beyond it on either side, and exactly on
    its faces, where the strict inequalities of the mask clamp them.
    """
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, -0.5, size=dim)
    hi = rng.uniform(0.5, 2.0, size=dim)
    coeffs = 3.0 * rng.normal(size=num_features(dim))
    coeffs[: 2 * dim] = np.abs(coeffs[: 2 * dim])
    coeffs[2 * dim :] = -np.abs(coeffs[2 * dim :])
    x = rng.uniform(lo - 1.0, hi + 1.0, size=(num_paths, dim))
    x = np.where(rng.random((num_paths, dim)) < 0.1, lo, x)
    x = np.where(rng.random((num_paths, dim)) < 0.1, hi, x)
    w = rng.normal(size=(num_paths, dim))
    return QuadraticField(dim, coeffs, lo, hi), x, w


class TestJacobianFreeKernels:
    """The gradient and the feature derivative equal, bit for bit, the
    contractions of the dense masked Jacobian in ``oracles``.

    This pins the summation order: ``numpy.einsum`` adds the terms one by
    one in feature order, and the kernels add the same non-zero terms in
    the same order.  A numpy that sums einsum in another order fails here
    rather than moving every result.  Along clamped directions both give
    zero.  The gradient's zeros are +0.0 like the contraction's, so its
    bytes are compared; the feature derivative's zeros may differ from the
    contraction's in their sign only, which ``np.array_equal`` does not see.
    """

    @pytest.mark.parametrize("num_paths", [1, 128, 8192])
    @pytest.mark.parametrize("dim", [1, 2, 4, 6])
    def test_gradient_matches_dense_jacobian(self, dim, num_paths):
        field, x, _ = box_batch(dim, num_paths, seed=dim * num_paths)
        if num_paths > 1:
            assert np.any(x == field.trunc_lo) and np.any(x == field.trunc_hi)
            assert np.any(x < field.trunc_lo) and np.any(x > field.trunc_hi)
        assert grad_u(field, x).tobytes() == dense_grad_u(field, x).tobytes()

    @pytest.mark.parametrize("num_paths", [1, 128, 8192])
    @pytest.mark.parametrize("dim", [1, 2, 4, 6])
    def test_feature_derivative_matches_dense_jacobian(self, dim, num_paths):
        field, x, w = box_batch(dim, num_paths, seed=dim * num_paths + 1)
        xc = clamp(x, field)
        rows = feature_derivative(xc, inside_box(x, field), w)
        assert np.array_equal(rows, dense_derivative_rows(field, x, w))
        phi = features(xc, dim)
        assert np.array_equal(phi + rows, phi + dense_derivative_rows(field, x, w))


def test_layouts_of_features_and_feature_derivative():
    # the feature derivative is stored paths-fastest; the public features
    # stay in C order, whatever the layout of the states
    field, x, w = box_batch(4, 128, seed=3)
    xc = np.asfortranarray(clamp(x, field))
    rows = feature_derivative(xc, inside_box(x, field), w)
    assert rows.strides[0] == rows.itemsize
    assert features(xc, 4).flags.c_contiguous


class TestEvalVDiff:
    def test_identity_sigma_equals_gradient(self):
        rng = np.random.default_rng(2)
        field = make_field(3, rng.normal(size=num_features(3)))
        x = rng.normal(size=(10, 3))

        def sigma(t, xs, y):
            return np.broadcast_to(np.eye(3), (xs.shape[0], 3, 3))

        assert np.array_equal(eval_v_diff(field, sigma, 0.0, x), grad_u(field, x))

    def test_constant_field_gives_zero(self):
        field = make_field(2, [7.0, 0.0, 0.0, 0.0, 0.0, 0.0])

        def sigma(t, xs, y):
            return np.ones((xs.shape[0], 2, 2))

        out = eval_v_diff(field, sigma, 0.0, np.zeros((4, 2)))
        assert np.array_equal(out, np.zeros((4, 2)))

    def test_scaled_identity_sigma(self):
        # sigma = y * I: component k equals u(x) * grad_u(x)_k.  At x = 0
        # with unit constant and linear coefficients, u = 1 and grad = 1.
        coeffs = np.zeros(num_features(4))
        coeffs[0] = 1.0
        coeffs[1:5] = 1.0
        field = make_field(4, coeffs)

        def sigma(t, xs, y):
            return y[:, None, None] * np.eye(4)[None, :, :]

        out = eval_v_diff(field, sigma, 0.0, np.zeros((1, 4)))
        assert np.allclose(out, [1.0, 1.0, 1.0, 1.0], rtol=0, atol=1e-15)

        # cross-check against central differences of u at a generic point
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, size=4)
        step = 1e-6
        fd = np.empty(4)
        for k in range(4):
            e = np.zeros(4)
            e[k] = step
            fd[k] = (eval_u(field, x + e) - eval_u(field, x - e)) / (2 * step)
        expected = eval_u(field, x) * fd
        got = eval_v_diff(field, sigma, 0.0, x)
        assert np.allclose(got, expected, rtol=1e-8)


class TestEvalVDirect:
    """Direct-method gradient fields: matrix coefficients read by ``eval_u``."""

    def test_zero_coeffs(self):
        field = QuadraticField(
            dim=2,
            coeffs=np.zeros((num_features(2), 3)),
            trunc_lo=np.full(2, -5.0),
            trunc_hi=np.full(2, 5.0),
        )
        assert np.array_equal(eval_u(field, np.ones((7, 2))), np.zeros((7, 3)))

    def test_constant_component(self):
        coeffs = np.zeros((num_features(1), 2))
        coeffs[0, 1] = 1.0
        field = QuadraticField(
            dim=1, coeffs=coeffs,
            trunc_lo=np.array([-5.0]), trunc_hi=np.array([5.0]),
        )
        out = eval_u(field, np.array([[0.3], [2.0]]))
        assert np.array_equal(out, [[0.0, 1.0], [0.0, 1.0]])

    def test_linear_component(self):
        coeffs = np.zeros((num_features(1), 1))
        coeffs[1, 0] = 1.0
        field = QuadraticField(
            dim=1, coeffs=coeffs,
            trunc_lo=np.array([-5.0]), trunc_hi=np.array([5.0]),
        )
        assert eval_u(field, [0.7])[0] == 0.7

    @pytest.mark.parametrize("dim, components", [(1, 1), (1, 2), (2, 3), (4, 4)])
    def test_matrix_field_equals_its_columns(self, dim, components):
        # dyadic points and coefficients keep every product and sum exact,
        # so the comparison does not depend on the order in which the BLAS
        # sums a matrix product (gemm and gemv round differently)
        rng = np.random.default_rng(dim)
        coeffs = rng.integers(-8, 9, size=(num_features(dim), components)) / 4.0
        lo, hi = np.full(dim, -1.0), np.full(dim, 1.5)
        x = rng.integers(-24, 25, size=(500, dim)) / 8.0  # many outside the box
        field = QuadraticField(dim, coeffs, lo, hi)
        columns = np.stack(
            [eval_u(QuadraticField(dim, coeffs[:, c].copy(), lo, hi), x)
             for c in range(components)],
            axis=1,
        )
        assert np.array_equal(eval_u(field, x), columns)
        assert np.array_equal(eval_u(field, x[0]), columns[0])

    @pytest.mark.parametrize("lo, hi", MALFORMED_BOXES)
    def test_malformed_box_rejected(self, lo, hi):
        with pytest.raises(InvalidArgument):
            QuadraticField(2, np.zeros(num_features(2)), np.array(lo), np.array(hi))

    def test_coefficient_rows_checked(self):
        with pytest.raises(InvalidArgument):
            QuadraticField(
                dim=2, coeffs=np.zeros((5, 2)),
                trunc_lo=np.full(2, -1.0), trunc_hi=np.full(2, 1.0),
            )


class TestLipschitz:
    def test_sampled_increment_bound(self):
        rng = np.random.default_rng(4)
        field = make_field(2, rng.normal(size=num_features(2)), half=3.0)
        xs = rng.uniform(-6.0, 6.0, size=(200, 2))
        ys = rng.uniform(-6.0, 6.0, size=(200, 2))
        grads = np.linalg.norm(
            grad_u(field, rng.uniform(-3.0, 3.0, size=(4000, 2))), axis=1
        )
        lip = grads.max() * 1.0001
        lhs = np.abs(eval_u(field, xs) - eval_u(field, ys))
        assert np.all(lhs <= lip * np.linalg.norm(xs - ys, axis=1) + 1e-12)


# Version-1 checkpoint records, one differentiation field and one
# direct-method field (value column, then one gradient column for
# dim_w = 1), as ``field_to_record`` writes them; ``dim_w`` counts columns.
VALUE_RECORD = (
    '{"version": 1, "time_index": 3, "dim": 2, '
    '"coeffs": [0.5, -1.25, 2.0, 0.0, 3.5, -0.75], '
    '"trunc_lo": [-2.0, -1.5], "trunc_hi": [4.0, 2.5]}'
)
GRADIENT_RECORD = (
    '{"version": 1, "time_index": 0, "dim": 1, '
    '"coeffs": [[1.0, -2.0], [0.25, 0.0], [-0.5, 3.0]], '
    '"trunc_lo": [-3.0], "trunc_hi": [3.0], "dim_w": 2}'
)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        field = make_field(3, rng.normal(size=num_features(3)))
        rec = field_to_record(field, time_index=7)
        back = field_from_record(rec)
        assert isinstance(back, QuadraticField)
        assert np.array_equal(back.coeffs, field.coeffs)
        assert np.array_equal(back.trunc_lo, field.trunc_lo)

    def test_zfield_round_trip(self):
        field = QuadraticField(
            dim=2,
            coeffs=np.arange(12, dtype=np.float64).reshape(6, 2),
            trunc_lo=np.full(2, -1.0),
            trunc_hi=np.full(2, 1.0),
        )
        back = field_from_record(field_to_record(field, 0))
        assert isinstance(back, QuadraticField)
        assert back.coeffs.shape == (6, 2)
        assert np.array_equal(back.coeffs, field.coeffs)

    @pytest.mark.parametrize("line", [VALUE_RECORD, GRADIENT_RECORD])
    def test_version_one_records_load_and_write_back(self, line):
        record = json.loads(line)
        field = field_from_record(record)
        assert json.dumps(field_to_record(field, record["time_index"])) == line

    def test_gradient_record_with_empty_box_rejected(self):
        record = json.loads(GRADIENT_RECORD)
        record["trunc_lo"], record["trunc_hi"] = record["trunc_hi"], record["trunc_lo"]
        with pytest.raises(InvalidArgument):
            field_from_record(record)

    @pytest.mark.parametrize("lo, hi", MALFORMED_BOXES)
    def test_value_record_with_malformed_box_rejected(self, lo, hi):
        record = json.loads(VALUE_RECORD)
        record["trunc_lo"], record["trunc_hi"] = lo, hi
        with pytest.raises(InvalidArgument):
            field_from_record(record)

    def test_record_columns_must_match_dim_w(self):
        record = json.loads(GRADIENT_RECORD)
        record["dim_w"] = 3
        with pytest.raises(InvalidArgument):
            field_from_record(record)
        del record["dim_w"]
        with pytest.raises(InvalidArgument):
            field_from_record(record)

    @pytest.mark.parametrize("record, key, value", [
        (VALUE_RECORD, "dim", 1.9), (VALUE_RECORD, "dim", True),
        (VALUE_RECORD, "dim", 0), (GRADIENT_RECORD, "dim_w", 2.7),
        (GRADIENT_RECORD, "dim_w", 0),
    ], ids=["dim-fraction", "dim-bool", "dim-zero", "dim_w-fraction", "dim_w-zero"])
    def test_record_counts_must_be_positive_integers(self, record, key, value):
        # int() used to read 1.9 and true as 1, and 2.7 as 2
        record = {**json.loads(record), key: value}
        with pytest.raises(InvalidArgument,
                           match=f"^{key} must be a positive integer"):
            field_from_record(record)

    def test_zero_field(self):
        field = zero_field(2, np.full(2, -1.0), np.full(2, 1.0))
        assert np.array_equal(field.coeffs, np.zeros(6))
