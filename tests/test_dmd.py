import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dmdkit import dmd as dmd_module
from dmdkit import kernel_edmd as kernel_edmd_module
from dmdkit.data import (
    SnapshotPair,
    Trajectory,
    concat_pairs,
    delay_embed,
    snapshot_pairs,
)
from dmdkit.dmd import (
    _BASIS_CONDITION_LIMIT,
    _PREDICT_BLOCK,
    _RESIDUAL_BLOCK,
    _from_pair_form,
    _invert_basis,
    _spectral_predict,
    eigenfunction_values,
    embedding_sweep,
    fit_companion,
    fit_svd_dmd,
    full_operator,
    predict,
)
from dmdkit.errors import (
    ConditioningError,
    ConfigError,
    EmptyRankError,
    NumericalError,
    ShapeError,
)
from dmdkit.edmd import fit_edmd, lift_snapshots
from dmdkit.kernel_edmd import fit_kernel_edmd
from dmdkit.linalg import DEFAULT_RTOL, conjugate_pairs, eig, spectral_order, svd_truncated
from dmdkit.observables import IdentityDictionary, build_dictionary, parse_kernel
from dmdkit.systems import (
    forced_linear_system,
    linear_system,
    rotation_system,
    simulate,
)


def spectra_gap(found, expected):
    """Worst nearest-match distance between two equal-length spectra."""
    found = list(np.asarray(found, dtype=complex))
    pool = list(np.asarray(expected, dtype=complex))
    assert len(found) == len(pool)
    worst = 0.0
    for value in found:
        dists = np.abs(np.array(pool) - value)
        j = int(np.argmin(dists))
        worst = max(worst, float(dists[j]))
        pool.pop(j)
    return worst


def linear_pair(a, x0, steps):
    return snapshot_pairs(simulate(linear_system(a, x0, steps)))


def block_rotation_traj(blocks, steps, seed):
    """Planar rotation blocks with seeded angles, run from a seeded start."""
    rng = np.random.default_rng(seed)
    a = np.zeros((2 * blocks, 2 * blocks))
    for k, theta in enumerate(rng.uniform(0.2, np.pi - 0.2, blocks)):
        c, s = np.cos(theta), np.sin(theta)
        a[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, -s], [s, c]]
    return simulate(linear_system(a, rng.standard_normal(2 * blocks), steps))


def raw_pair(x, xp):
    x = np.asarray(x, dtype=float)
    return SnapshotPair(x=x, xp=np.asarray(xp, dtype=float))


def test_companion_scalar_series():
    traj = Trajectory(dt=1.0, states=(0.5 ** np.arange(8.0)))
    fit = fit_companion(snapshot_pairs(traj))
    assert fit.eigenvalues.size == 1
    assert_allclose(fit.eigenvalues, [0.5], rtol=0, atol=1e-14)

def test_companion_diagonal_system():
    pair = linear_pair(np.diag([0.9, 0.5]), [1.0, 1.0], steps=9)
    fit = fit_companion(pair)
    assert fit.eigenvalues.size == 2
    assert_allclose(fit.eigenvalues, [0.9, 0.5], rtol=0, atol=1e-12)

def test_companion_rotation_spectrum():
    pair = snapshot_pairs(simulate(rotation_system(0.3, steps=12)))
    fit = fit_companion(pair)
    expected = np.array([np.exp(0.3j), np.exp(-0.3j)])
    assert spectra_gap(fit.eigenvalues, expected) < 1e-8

def test_companion_structure():
    pair = linear_pair(np.diag([0.9, 0.5, 0.2]), [1.0, -1.0, 0.5], steps=9)
    fit = fit_companion(pair)
    k = fit.eigenvalues.size
    assert fit.modes_v.shape == (3, k) and fit.coeffs.shape == (k, 3)
    # the eigenfunction map is the pseudoinverse of the modes
    assert_allclose(fit.coeffs @ fit.modes_v, np.eye(k), atol=1e-10)
    assert isinstance(fit.features, IdentityDictionary)
    assert fit.residuals["training"] < 1e-12

def test_companion_modes_reconstruct_snapshots():
    a = np.diag([0.9, 0.5])
    pair = linear_pair(a, [1.0, 1.0], steps=9)
    fit = fit_companion(pair)
    modes = fit.modes_v
    # data decomposes as x_j = sum_i lambda_i^j a_i v_i over the window, with
    # amplitudes a = C x_0
    window = fit.eigenvalues.size
    vander = np.vander(fit.eigenvalues, N=window, increasing=True)
    amplitudes = fit.coeffs @ pair.x[:, 0]
    assert_allclose((modes * amplitudes) @ vander, pair.x[:, :window], atol=1e-12)
    # diagonal A: each mode is parallel to a coordinate axis
    for col, axis in ((0, 0), (1, 1)):
        direction = modes[:, col] / np.linalg.norm(modes[:, col])
        assert_allclose(np.abs(direction), np.eye(2)[axis], atol=1e-10)

def test_companion_rejects_single_column():
    pair = raw_pair([[1.0]], [[0.5]])
    with pytest.raises(ShapeError):
        fit_companion(pair)

def test_companion_rank_deficient_rows_advises_svd():
    traj = simulate(linear_system(np.diag([0.9, 0.5]), [1.0, 1.0], steps=9))
    doubled = np.hstack([traj.states, traj.states[:, :1]])
    pair = snapshot_pairs(Trajectory(dt=1.0, states=doubled))
    with pytest.raises(ConditioningError) as err:
        fit_companion(pair)
    assert "svd" in str(err.value).lower()

def test_companion_refuses_krylov_window_shorter_than_rank():
    # 200 states x 300 steps has full row rank, but its leading Krylov columns
    # turn ill-conditioned before column 200; the window's spectrum is wrong
    for seed in range(6):
        pair = snapshot_pairs(block_rotation_traj(blocks=100, steps=300, seed=seed))
        with pytest.raises(ConditioningError, match="rank 200") as err:
            fit_companion(pair)
        assert "svd" in str(err.value).lower()

def test_companion_refuses_pairs_of_two_trajectories():
    # a stable system, yet the pairs of two runs do not chain into one Krylov
    # sequence; regressing them as one gave |lambda| near 3
    a = np.diag([0.9, 0.7, 0.5, 0.3])
    pair = concat_pairs([linear_pair(a, x0, steps=3) for x0 in
                         ([1.0, 1.0, 1.0, 1.0], [1.0, -2.0, 0.5, 3.0])])
    with pytest.raises(ConfigError, match="one trajectory") as err:
        fit_companion(pair)
    assert "fit_svd_dmd" in str(err.value)

@pytest.mark.parametrize("hold", [1, 5, 50])
def test_companion_with_held_inputs_needs_them_constant_over_the_window(hold):
    # an augmented column is [x_t; u_t] and its successor [x_t+1; u_t], so the
    # pairs chain only while the input holds its value; every pair is checked,
    # so a change after the 3-column window the fit regresses on (hold 5)
    # is refused too
    spec = forced_linear_system(np.diag([0.9, 0.5]), [1.0, 0.5], [1.0, -1.0],
                                steps=20, input_seed=1, input_hold=hold)
    pair = snapshot_pairs(simulate(spec), augment_inputs=True)
    if hold < 20:
        with pytest.raises(ConfigError, match="one trajectory"):
            fit_companion(pair)
    else:
        fit = fit_companion(pair)
        assert spectra_gap(fit.eigenvalues, [1.0, 0.9, 0.5]) < 1e-8

def test_companion_fits_a_growing_series_whose_window_is_well_conditioned():
    # all 89 columns have condition number near 3.6e15, but the 2-column
    # window the fit regresses on is well conditioned
    t = np.arange(90.0)
    pair = snapshot_pairs(Trajectory(dt=1.0, states=np.column_stack([1.5**t, 0.5**t])))
    fit = fit_companion(pair)
    assert_allclose(fit.eigenvalues, [1.5, 0.5], rtol=0, atol=1e-14)
    assert fit.residuals["training"] < 1e-14

def test_svd_dmd_exact_recovery_random_stable():
    rng = np.random.default_rng(11)
    for n in range(2, 7):
        for _ in range(4):
            a = rng.standard_normal((n, n))
            a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
            pair = linear_pair(a, rng.standard_normal(n), steps=2 * n + 1)
            model = fit_svd_dmd(pair, rtol=1e-10)
            assert spectra_gap(model.eigenvalues, np.linalg.eigvals(a)) < 1e-7

def test_svd_dmd_duplicated_row_keeps_rank_two():
    traj = simulate(linear_system(np.diag([0.9, 0.5]), [1.0, 1.0], steps=9))
    tripled = np.hstack([traj.states, traj.states[:, :1]])
    pair = snapshot_pairs(Trajectory(dt=1.0, states=tripled))
    model = fit_svd_dmd(pair, rtol=1e-8)
    assert model.eigenvalues.size == 2
    assert spectra_gap(model.eigenvalues, [0.9, 0.5]) < 1e-10

def test_svd_dmd_zero_data_raises():
    pair = raw_pair(np.zeros((2, 4)), np.zeros((2, 4)))
    with pytest.raises(EmptyRankError):
        fit_svd_dmd(pair)

def test_svd_dmd_single_column_flagged():
    # one rule for every fitter that takes one column pair (a companion fit
    # needs two)
    pair = raw_pair([[1.0], [0.0]], [[0.9], [0.0]])
    for model in (fit_svd_dmd(pair), fit_edmd(pair, build_dictionary("poly:2", 2)),
                  fit_kernel_edmd(pair, parse_kernel("gaussian:1"))):
        assert "degenerate_single_column" in model.flags
        assert model.eigenvalues.size == 1

def test_eigenvector_residual_invariant():
    rng = np.random.default_rng(5)
    for _ in range(6):
        x = rng.standard_normal((4, 12))
        xp = rng.standard_normal((4, 12))
        model = fit_svd_dmd(raw_pair(x, xp))
        factors = svd_truncated(x)
        k_hat = factors.u.T @ xp @ (factors.w / factors.sigma)
        # rows of C U = inv(P) are left eigenvectors of the reduced operator
        left = model.coeffs @ factors.u
        res = left @ k_hat - model.eigenvalues[:, None] * left
        scale = np.maximum(1.0, np.abs(model.eigenvalues)) * np.linalg.norm(left, axis=1)
        assert np.all(np.linalg.norm(res, axis=1) <= 1e-8 * scale)
        spectrum = eig(k_hat)
        vectors = _from_pair_form(spectrum.basis.T, conjugate_pairs(spectrum.values)).T
        assert_allclose(left @ vectors, np.eye(vectors.shape[0]), atol=1e-8)

def pair_count_of_exactly_closed(model):
    """Assert the model is exactly conjugate-closed; return its pair count.

    A real eigenvalue's mode column and coeffs row are real, and each lower
    pair member's are the exact conjugates of its upper member's, signed
    zeros aside (a model file stores +0.0 for -0.0).
    """
    real, upper, lower = conjugate_pairs(model.eigenvalues)
    for part in (model.coeffs, model.modes_v.T):
        assert not np.any(part[real].imag)
        assert np.array_equal(part[lower], np.conj(part[upper]))
        kept = part[np.concatenate([real, upper])].view(float)
        assert not np.signbit(kept[kept == 0]).any()
    return upper.size


def test_from_pair_form_closes_rows_of_a_stored_pair_form():
    # stored rows of a real eigenvalue, an upper and its lower member: the
    # real row stays real, the upper row takes the lower one as its
    # imaginary part, and the lower row becomes the upper one's conjugate,
    # with no -0.0 in the real and upper rows
    values = np.array([0.5, 0.9 + 0.1j, 0.9 - 0.1j])
    stored = np.array([[0.0, 1.0], [0.0, 3.0], [2.0, 0.0]])
    closed = _from_pair_form(stored, conjugate_pairs(values))
    assert_array_equal(closed, [[0.0, 1.0], [2.0j, 3.0], [-2.0j, 3.0]])
    assert not np.signbit(closed[:2].view(float)).any()


def _canonical_loop(vectors):
    """Unit-normalize columns and rotate each first entry above 1e-12 in
    modulus to be positive real, one column at a time: the reference for
    ``eig``'s vectorized pass."""
    out = np.array(vectors, dtype=complex)
    for j in range(out.shape[1]):
        v = out[:, j] / np.linalg.norm(out[:, j])
        lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        out[:, j] = v * (np.conj(lead) / np.abs(lead))
    return out


@pytest.mark.parametrize("algo", ["companion", "dmd", "edmd", "kernel-edmd"])
def test_fit_from_real_basis_matches_complex_eigenvectors(monkeypatch, algo):
    # A fit inverts the real pair-form basis P_r. Against C = inv(P) R and
    # V = M P formed from numpy's complex eigenvectors of the same K^, put in
    # eig's canonical form column by column, coeffs and modes agree within
    # 1e-12 of their largest entry (1.3e-15 seen); the eigenvalues are
    # numpy's, sorted, bit for bit
    calls = []

    def spy(k_hat, reduce, mode_base, features, algorithm, *args, **kwargs):
        calls.append((k_hat, reduce, mode_base, algorithm == "dmd"))  # SVD DMD's exact modes
        return projected_fit(k_hat, reduce, mode_base, features, algorithm, *args, **kwargs)

    projected_fit = dmd_module._projected_fit
    # dmd and edmd reach it through dmd._svd_fit, kernel EDMD by import
    for module in (dmd_module, kernel_edmd_module):
        monkeypatch.setattr(module, "_projected_fit", spy)
    # two damped rotations in a seeded orthogonal frame
    rng = np.random.default_rng(23)
    blocks = np.zeros((4, 4))
    for k, (radius, theta) in enumerate([(0.95, 0.4), (0.9, 1.3)]):
        c, s = radius * np.cos(theta), radius * np.sin(theta)
        blocks[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, -s], [s, c]]
    frame = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    pair = linear_pair(frame @ blocks @ frame.T, rng.standard_normal(4), steps=12)
    model = {
        "companion": lambda: fit_companion(pair),
        "dmd": lambda: fit_svd_dmd(pair),
        "edmd": lambda: fit_edmd(pair, build_dictionary("poly:2", 4)),
        "kernel-edmd": lambda: fit_kernel_edmd(pair, parse_kernel("gaussian:2")),
    }[algo]()
    (k_hat, reduce, mode_base, exact), = calls
    values, vectors = np.linalg.eig(k_hat)
    order = spectral_order(values)
    assert np.any(values.imag) and model.flags == ()
    assert_array_equal(model.eigenvalues, values[order])
    p = _canonical_loop(vectors[:, order])
    coeffs = np.linalg.inv(p) @ reduce
    modes = mode_base @ p / (values[order] if exact else 1.0)
    for found, expected in ((model.coeffs, coeffs), (model.modes_v, modes)):
        assert np.max(np.abs(found - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_conjugate_symmetry_of_real_fits():
    rng = np.random.default_rng(17)
    pairs = 0
    for _ in range(8):
        x = rng.standard_normal((3, 10))
        xp = rng.standard_normal((3, 10))
        model = fit_svd_dmd(raw_pair(x, xp))
        assert spectra_gap(model.eigenvalues, np.conj(model.eigenvalues)) < 1e-10
        pairs += pair_count_of_exactly_closed(model)
        a = rng.standard_normal((4, 4))
        a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
        pair = linear_pair(a, rng.standard_normal(4), steps=12)
        pairs += pair_count_of_exactly_closed(fit_companion(pair))
        pairs += pair_count_of_exactly_closed(fit_edmd(pair, build_dictionary("poly:2", 4)))
        pairs += pair_count_of_exactly_closed(
            fit_kernel_edmd(pair, parse_kernel("gaussian:2")))
    assert pairs > 40  # most of these fits have conjugate pairs

def test_companion_and_svd_agree_on_full_column_rank_data():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((6, 6))
    a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
    pair = linear_pair(a, rng.standard_normal(6), steps=6)
    assert pair.x.shape == (6, 6)
    companion = fit_companion(pair)
    svd_model = fit_svd_dmd(pair, rtol=1e-10)
    kept = svd_model.eigenvalues[np.abs(svd_model.eigenvalues) > 1e-9]
    assert spectra_gap(companion.eigenvalues, kept) < 1e-6

def test_modes_match_eigenvectors_of_nondiagonal_a():
    q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    a = q @ np.diag([0.9, 0.4]) @ q.T
    pair = linear_pair(a, [1.0, 0.3], steps=9)
    model = fit_svd_dmd(pair)
    order = spectral_order(model.eigenvalues)
    for idx, expected in zip(order, q.T):
        mode = model.modes_v[:, idx]
        cosine = np.abs(expected @ mode) / np.linalg.norm(mode)
        assert cosine > 1 - 1e-10

@pytest.mark.parametrize("noise", [0.0, 1e-3, 1e-1])
def test_training_residual_matches_lstsq_reference(noise):
    # at full rank with no zero eigenvalue the map Re(V Lambda C) is xp
    # pinv(x), so the training residual is that of the least-squares map
    # lstsq(x^T, xp^T). They agree to 1e-12 relative, or 1e-14 absolute where
    # the residual is itself roundoff (exact data).
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
    states = simulate(linear_system(a, rng.standard_normal(6), steps=40)).states
    states = states + noise * rng.standard_normal(states.shape)
    pair = snapshot_pairs(Trajectory(dt=1.0, states=states))
    model = fit_svd_dmd(pair)
    assert model.eigenvalues.size == 6 and not model.flags
    a_ls = np.linalg.lstsq(pair.x.T, pair.xp.T, rcond=None)[0].T
    reference = relative_error(pair.xp, a_ls @ pair.x)
    assert abs(model.fit_residual - reference) <= 1e-12 * reference + 1e-14
    if noise:
        assert reference > 1e-4  # the noisy case is not another exact fit


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_svd_dmd_training_residual_is_exact_below_full_rank(columns):
    # rank = columns < 4 states: the stored map is exact on the training
    # columns, so the residual is roundoff whatever the rank
    pair = rotation_pair(columns, 0.0)
    model = fit_svd_dmd(pair)
    assert model.eigenvalues.size == columns
    assert np.max(np.abs(full_operator(model) @ pair.x - pair.xp)) < 1e-14
    assert model.residuals["training"] < 1e-14


def relative_error(target, approx):
    """The one-shot training residual: the whole product formed at once."""
    return np.linalg.norm(target - approx) / np.linalg.norm(target)


def one_shot_residuals(algo, pair):
    """Each stored residual of a fit, recomputed with whole-width products.

    The training residual goes through the public model, Re(V Lambda C) F
    with F the fit's training features: x, its lift, or its Gram matrix.
    """
    others = {}
    if algo == "companion":
        model, features = fit_companion(pair), pair.x
    elif algo in ("dmd", "edmd"):
        # SVD DMD is the identity-dictionary fit, with the same three residuals
        if algo == "dmd":
            dictionary = IdentityDictionary(pair.n_observables)
            model = fit_svd_dmd(pair)
        else:
            dictionary = build_dictionary("poly:2", pair.n_observables)
            model = fit_edmd(pair, dictionary)
        lifted = lift_snapshots(pair, dictionary)
        features = model.features.transform(pair.x)
        factors = svd_truncated(lifted.x, DEFAULT_RTOL)
        k_hat = factors.u.T @ lifted.xp @ (factors.w / factors.sigma)
        d_coeffs = pair.x @ (factors.w / factors.sigma) @ factors.u.T
        k_full = factors.u @ k_hat @ factors.u.T
        others = {"lifted": relative_error(lifted.xp, k_full @ lifted.x),
                  "observable": relative_error(pair.x, d_coeffs @ lifted.x)}
    else:  # kernel-gaussian is the benchmark's kernel, kernel-edmd a polynomial one
        model = fit_kernel_edmd(pair, parse_kernel(
            "gaussian:2" if algo == "kernel-gaussian" else "poly:2"))
        features = model.features.transform(pair.x)
    training = relative_error(pair.xp, full_operator(model) @ features)
    return model, {"training": training, **others}


def rotation_pair(columns, noise):
    states = block_rotation_traj(2, columns, seed=12).states
    states = states + noise * np.random.default_rng(13).standard_normal(states.shape)
    return snapshot_pairs(Trajectory(dt=1.0, states=states))


@pytest.mark.parametrize("noise", [0.0, 1e-2], ids=["exact", "noisy"])
@pytest.mark.parametrize("algo,columns", [
    (algo, columns)
    for algo in ("companion", "dmd", "edmd", "kernel-edmd", "kernel-gaussian")
    for columns in (1, _RESIDUAL_BLOCK - 1, _RESIDUAL_BLOCK, _RESIDUAL_BLOCK + 1, 2000)
    if (algo, columns) != ("companion", 1)  # a companion fit needs 2 columns
])
def test_blocked_residuals_match_dense_reference(algo, columns, noise):
    model, reference = one_shot_residuals(algo, rotation_pair(columns, noise))
    assert list(model.residuals) == list(reference)
    # a noisy Gaussian fit keeps Gram singular values down to sqrt(m eps)
    # times the largest (850 of 2,000), which amplifies the rounding of any
    # evaluation: against a long-double one, the stored residual was off by
    # 8.1e-11 and the dense double reference by 3.2e-10 at 2,000 columns, and
    # the two differed by up to 2e-7 of the residual (the G-factor residual
    # of earlier versions missed 1e-13 too, by 2.2e-13 at 257 columns)
    tolerance = 1e-6 * reference["training"] if algo == "kernel-gaussian" and noise else 0.0
    for name, value in reference.items():
        assert abs(model.residuals[name] - value) <= 1e-13 + tolerance, name


@pytest.mark.parametrize("noise", [0.0, 1e-2], ids=["exact", "noisy"])
@pytest.mark.parametrize("block", [1, 3, 4, 5])
def test_blocked_companion_residual_matches_dense_reference(monkeypatch, block, noise):
    # blocks of 1, 3, 4 and 5 columns, so the last one is short or full; the
    # reference is what predict makes of each training column one step on
    monkeypatch.setattr("dmdkit.dmd._RESIDUAL_BLOCK", block)
    pair = rotation_pair(2000, noise)
    model = fit_companion(pair)
    assert model.eigenvalues.size == 4
    step = np.column_stack([predict(model, pair.x[:, j], 1)[0] for j in range(2000)])
    assert abs(model.fit_residual - relative_error(pair.xp, step)) <= 1e-13


def test_fit_svd_dmd_peak_memory_is_a_small_multiple_of_the_data():
    # the residual is formed in column blocks, so no 200 x 2000 complex
    # product (4 times x's bytes each) is ever held; and xp W inv(Sigma) is
    # formed once, with no r x m product, which took the peak from 3.2 to 2.5
    # times x's bytes
    rng = np.random.default_rng(14)
    a = rng.standard_normal((200, 200)) / 15
    x = rng.standard_normal((200, 2000))
    pair = SnapshotPair(x, a @ x)
    tracemalloc.start()
    try:
        fit_svd_dmd(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.9 * x.nbytes, peak / x.nbytes


def test_tall_fit_svd_dmd_peak_memory_is_a_small_multiple_of_the_data():
    # 600 observables over 200 columns: the n x r modes and r x f map C
    # dominate. The peak was 14.4 times x's bytes with complex models, 9.4
    # held real in pair form with the n x n one-step map (3 times x's bytes)
    # in the training residual, and 8.4 with every residual formed against W^T
    rng = np.random.default_rng(14)
    a = rng.standard_normal((600, 600)) / (2 * np.sqrt(600))
    x = rng.standard_normal((600, 200))
    pair = SnapshotPair(x, a @ x)
    tracemalloc.start()
    try:
        fit_svd_dmd(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.5 * x.nbytes, peak / x.nbytes


def test_zero_eigenvalue_modes_flagged_and_zeroed():
    # x -> shift map dies after two steps; the spectrum is all zeros
    states = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    pair = snapshot_pairs(Trajectory(dt=1.0, states=states))
    model = fit_svd_dmd(pair)
    assert "zero_eigenvalue_modes" in model.flags
    assert_allclose(np.abs(model.eigenvalues), 0.0, rtol=0, atol=1e-12)
    assert_allclose(model.modes_v, 0.0, rtol=0, atol=0)
    # the zero forecast would be wrong: the map sends (0, 1) to (1, 0)
    assert "eigenvector_basis_singular" in model.flags
    with pytest.raises(NumericalError, match="eigenvector_basis_singular"):
        predict(model, [0.0, 1.0], steps=2)

@pytest.mark.parametrize("fit", [fit_companion, fit_svd_dmd,
                                 lambda pair: fit_edmd(pair, IdentityDictionary(2))],
                         ids=["companion", "dmd", "edmd-identity"])
def test_singular_basis_model_refuses_eigenfunctions_and_one_step_map(fit):
    # the shift pair's map is [[0, 1], [0, 0]]; the pinv fallback's
    # eigenfunctions break phi(xp) = Lambda phi(x), and its map is zero. The
    # pairs chain and their Krylov block has rank 2, so the companion fit
    # reaches the same singular basis
    states = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    pair = snapshot_pairs(Trajectory(dt=1.0, states=states))
    model = fit(pair)
    assert "eigenvector_basis_singular" in model.flags
    assert model.fit_residual == pytest.approx(1.0, abs=1e-12)  # stored though flagged
    for call in (lambda: eigenfunction_values(model, pair.x),
                 lambda: full_operator(model),
                 lambda: predict(model, [0.0, 1.0], steps=1)):
        with pytest.raises(NumericalError, match="eigenvector_basis_singular"):
            call()
    # an unflagged model of the same fitter answers with the plain products
    fine = fit(linear_pair(np.array([[0.7, 0.2], [0.1, 0.5]]), [1.0, -1.0], steps=9))
    assert fine.flags == ()
    assert_array_equal(eigenfunction_values(fine, pair.x),
                       fine.coeffs @ fine.features.transform(pair.x))
    assert_array_equal(full_operator(fine),
                       ((fine.modes_v * fine.eigenvalues) @ fine.coeffs).real)

def test_predict_diagonal_two_steps():
    model = fit_svd_dmd(linear_pair(np.diag([0.9, 0.5]), [1.0, 1.0], steps=9))
    out = predict(model, [1.0, 1.0], steps=2)
    assert_allclose(out, [[0.9, 0.5], [0.81, 0.25]], atol=1e-11)

def test_predict_zero_steps_is_empty():
    model = fit_svd_dmd(linear_pair(np.diag([0.9, 0.5]), [1.0, 1.0], steps=9))
    assert predict(model, [1.0, 1.0], steps=0).shape == (0, 2)

def test_predict_rotation_matches_simulation():
    theta = 0.3
    model = fit_svd_dmd(snapshot_pairs(simulate(rotation_system(theta, steps=20))))
    out = predict(model, [1.0, 0.0], steps=4)
    expected = simulate(rotation_system(theta, steps=4)).states[1:]
    assert_allclose(out, expected, atol=1e-8)

def test_predict_in_sample_consistency():
    a = np.array([[0.8, 0.1], [0.0, 0.6]])
    traj = simulate(linear_system(a, [1.0, -0.7], steps=10))
    model = fit_svd_dmd(snapshot_pairs(traj))
    out = predict(model, traj.states[0], steps=10)
    assert_allclose(out, traj.states[1:], atol=1e-9)

def test_predict_validates_arguments():
    model = fit_svd_dmd(linear_pair(np.diag([0.9, 0.5]), [1.0, 1.0], steps=9))
    with pytest.raises(ShapeError):
        predict(model, [1.0, 1.0, 1.0], steps=2)
    with pytest.raises(ConfigError):
        predict(model, [1.0, 1.0], steps=-1)


@pytest.mark.parametrize("fit", [
    lambda pair: fit_edmd(pair, build_dictionary("poly:2", 2)),
    lambda pair: fit_kernel_edmd(pair, parse_kernel("poly:2")),
], ids=["edmd", "kernel-edmd"])
def test_predict_refuses_an_initial_condition_whose_features_overflow(fit):
    # (1e200)^2 overflows the lift and the kernel row: a NumericalError, no
    # RuntimeWarning (the test run makes one an error), no forecast of NaN
    model = fit(linear_pair(np.diag([0.9, 0.5]), [1.0, 1.0], steps=9))
    assert np.isfinite(predict(model, [1e100, 1e100], steps=2)).all()
    with pytest.raises(NumericalError, match="not finite"):
        predict(model, [1e200, 1e200], steps=2)


@pytest.mark.parametrize("fit", [
    lambda pair: fit_edmd(pair, build_dictionary("poly:2", 2)),
    lambda pair: fit_kernel_edmd(pair, parse_kernel("poly:2")),
], ids=["edmd", "kernel-edmd"])
def test_eigenfunction_values_refuse_a_point_whose_features_overflow(fit):
    # one check serves predict and eigenfunction_values: a NumericalError,
    # not a phi of NaN or inf behind a RuntimeWarning
    model = fit(linear_pair(np.diag([0.9, 0.5]), [1.0, 1.0], steps=9))
    points = np.array([[1e100, 0.5], [1e100, 0.5]])
    assert np.isfinite(eigenfunction_values(model, points)).all()
    points[:, 1] = 1e200
    with pytest.raises(NumericalError, match="eigenfunction values are not finite"):
        eigenfunction_values(model, points)


@pytest.mark.parametrize("block", [1, 4, _PREDICT_BLOCK])
def test_forecast_that_overflows_names_its_first_non_finite_step(monkeypatch, block):
    # 1e300 grows by 1.5 a step and passes the largest double at step 47:
    # a NumericalError naming it, not rows of inf behind a RuntimeWarning
    monkeypatch.setattr(dmd_module, "_PREDICT_BLOCK", block)
    model = fit_svd_dmd(linear_pair(np.diag([1.5, 0.5]), [1.0, 1.0], steps=10))
    assert np.isfinite(predict(model, [1e300, 1.0], steps=46)).all()
    for steps in (47, 50):
        with pytest.raises(NumericalError, match="^forecast step 47 is not finite"):
            predict(model, [1e300, 1.0], steps=steps)


@pytest.mark.parametrize("power", [600, -600])
def test_relative_error_is_the_same_for_data_scaled_by_a_power_of_two(power):
    # the squares of 2^600 (4e180) overflow and those of 2^-600 underflow,
    # so both are scaled back by a power of two: exact, bit for bit
    rng = np.random.default_rng(15)
    target, left, right = (rng.standard_normal(shape) for shape in ((5, 600), (5, 3), (3, 600)))
    ordinary = dmd_module._relative_error(target, left, right)
    scaled = dmd_module._relative_error(np.ldexp(target, power), np.ldexp(left, power), right)
    assert scaled == ordinary


@pytest.mark.parametrize("noise", [0.0, 1e-2], ids=["exact", "noisy"])
@pytest.mark.parametrize("fit", [fit_companion, fit_svd_dmd], ids=["companion", "dmd"])
def test_fit_of_data_scaled_by_2_to_the_600_has_its_residuals(fit, noise):
    # the SVD rescales such data, so the fits agree to rounding: every
    # residual within 1e-12 of its value plus 1e-14 (the exact fits read
    # ~1e-15, and differed by up to 4.3e-16)
    pair = rotation_pair(300, noise)
    model = fit(pair)
    big = fit(SnapshotPair(np.ldexp(pair.x, 600), np.ldexp(pair.xp, 600)))
    assert list(big.residuals) == list(model.residuals)
    for name, value in model.residuals.items():
        assert abs(big.residuals[name] - value) <= 1e-12 * value + 1e-14, name


def stepwise_forecast(modes, values, amplitudes, steps):
    """One step at a time, each row checked on its own: the reference loop."""
    out = np.empty((steps, modes.shape[0]))
    state = amplitudes.astype(complex)
    for m in range(steps):
        state = state * values
        row = modes @ state
        scale = max(1.0, float(np.max(np.abs(row.real))))
        residue = float(np.max(np.abs(row.imag)))
        if residue > 1e-8 * scale:
            raise NumericalError(f"prediction has imaginary residue {residue:.3e}")
        out[m] = row.real
    return out

def test_block_forecast_matches_stepwise_reference_across_blocks():
    traj = block_rotation_traj(blocks=10, steps=60, seed=3)
    model = fit_svd_dmd(snapshot_pairs(traj))
    g0 = traj.states[-1]
    steps = 2 * _PREDICT_BLOCK + 7
    amps = model.coeffs @ g0
    expected = stepwise_forecast(model.modes_v, model.eigenvalues, amps, steps)
    got = predict(model, g0, steps)
    assert got.shape == expected.shape
    # stated tolerance: 1e-12 relative to the largest forecast entry
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

def test_forecast_and_one_step_map_match_the_complex_formulas():
    model = fit_svd_dmd(snapshot_pairs(block_rotation_traj(blocks=2, steps=30, seed=1)))
    real, upper, _ = conjugate_pairs(model.eigenvalues)
    assert real.size == 0 and upper.size == 2
    g0 = np.array([1.0, 0.5, -0.3, 0.2])
    forecast = predict(model, g0, 5)
    # the forecast over the upper members with doubled amplitudes is the
    # real part of the forecast over every eigenvalue, and the real one-step
    # map (V_pf B) C_pf is Re(V Lambda C); stated tolerance for both: 1e-14
    # times the largest entry
    full = np.array([(model.modes_v * model.eigenvalues ** m) @ (model.coeffs @ g0)
                     for m in range(1, 6)])
    assert np.max(np.abs(full.imag)) <= 1e-14
    assert np.max(np.abs(forecast - full.real)) <= 1e-14 * np.max(np.abs(full.real))
    one_step = ((model.modes_v * model.eigenvalues) @ model.coeffs).real
    assert np.max(np.abs(full_operator(model) - one_step)) <= 1e-14 * np.max(np.abs(one_step))


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_forty_block_forecast_matches_stepwise_reference(seed):
    traj = block_rotation_traj(blocks=10, steps=60, seed=seed)
    model = fit_svd_dmd(snapshot_pairs(traj))
    g0 = traj.states[-1]
    steps = 40 * _PREDICT_BLOCK + 3
    expected = stepwise_forecast(model.modes_v, model.eigenvalues, model.coeffs @ g0, steps)
    got = predict(model, g0, steps)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

def test_growing_mode_forecast_stays_finite_without_warnings():
    # 20**256 overflows, so a full 256-row power table would print NaN from
    # step 237 although every forecast value is finite (1e-300 * 20**400 =
    # 2.6e220); one more carry after the last block would overflow as well
    modes = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    values = np.array([20.0, 0.5], dtype=complex)
    amps = np.array([1e-300, 1.0], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _spectral_predict(modes, values, amps, 400)
        expected = stepwise_forecast(modes, values, amps, 400)
    assert np.all(np.isfinite(got))
    err = np.max(np.abs(got - expected), axis=1)
    assert np.all(err <= 1e-13 * np.max(np.abs(expected), axis=1))

def test_eigenfunction_functional_equation_on_linear_data():
    a = np.array([[0.9, 0.2], [0.0, 0.5]])
    pair = linear_pair(a, [1.0, 1.0], steps=11)
    model = fit_svd_dmd(pair)
    phi_x = eigenfunction_values(model, pair.x)
    phi_xp = eigenfunction_values(model, pair.xp)
    residual = np.abs(phi_xp - model.eigenvalues[:, None] * phi_x)
    scale = np.max(np.abs(phi_x), axis=1)
    assert np.all(residual.max(axis=1) <= 1e-8 * scale)

def test_full_operator_recovers_a():
    a = np.array([[0.7, 0.2], [0.1, 0.5]])
    model = fit_svd_dmd(linear_pair(a, [1.0, -1.0], steps=9))
    assert_allclose(full_operator(model), a, atol=1e-10)

def test_fit_residual_small_on_linear_data():
    model = fit_svd_dmd(linear_pair(np.diag([0.9, 0.5]), [1.0, 1.0], steps=9))
    assert model.fit_residual < 1e-10

def test_embedding_sweep_finds_required_depth():
    traj = simulate(rotation_system(0.5, steps=63, observe="first"))
    report = embedding_sweep(traj, [1, 2, 3])
    depths = [h for h, _ in report]
    residuals = {h: r for h, r in report}
    assert depths == [1, 2, 3]
    assert residuals[1] > 1e-3
    assert residuals[2] < 1e-10
    assert residuals[3] < 1e-10

def test_hankel_rotation_recovery_and_shallow_failure():
    theta = 0.5
    traj = simulate(rotation_system(theta, steps=63, observe="first"))
    deep = fit_svd_dmd(snapshot_pairs(delay_embed(traj, 2)))
    expected = np.array([np.exp(1j * theta), np.exp(-1j * theta)])
    assert spectra_gap(deep.eigenvalues, expected) < 1e-6
    shallow = fit_svd_dmd(snapshot_pairs(delay_embed(traj, 1)))
    assert shallow.eigenvalues.size < 2


def kappa_1(p):
    return np.linalg.norm(p, 1) * np.linalg.norm(np.linalg.inv(p), 1)


@pytest.mark.parametrize("seed", range(5))
def test_kappa_1_lies_within_a_factor_r_of_kappa_2(seed):
    # |A|_2 / sqrt(r) <= |A|_1 <= sqrt(r) |A|_2 for r x r A, so
    # kappa_2 / r <= kappa_1 <= r kappa_2: the 1-norm rule and a 2-norm rule
    # at the same limit can only differ when kappa_2 is in (1e12 / r, 1e12 r)
    rng = np.random.default_rng(seed)
    r = 6
    p = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    p[:, -1] = p[:, 0] + 1e-6 * p[:, -1]
    k1, k2 = kappa_1(p), np.linalg.cond(p)
    assert k2 / r <= k1 <= r * k2


def test_basis_flag_follows_kappa_1_where_the_2_norm_rule_would_not():
    # P = diag(eps, 1, ..., 1) H with H the orthonormal 8 x 8 Hadamard matrix:
    # kappa_2 = 1/eps, kappa_1 = (7 + eps)/eps, so at eps = 2e-12 the 2-norm
    # rule would keep inv (5e11) while the 1-norm rule flags (3.5e12)
    h = np.array([[1.0]])
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    h /= np.sqrt(8)
    scale = np.ones(8)
    scale[0] = 2e-12
    p = (scale[:, None] * h).astype(complex)
    assert np.linalg.cond(p) < _BASIS_CONDITION_LIMIT / 1.5
    assert kappa_1(p) > 3 * _BASIS_CONDITION_LIMIT
    p_inv, flags = _invert_basis(p)
    assert flags == ("eigenvector_basis_singular",)
    assert_array_equal(p_inv, np.linalg.pinv(p))


@pytest.mark.parametrize("p", [
    np.array([[1.0, 1.0], [1.0, 1.0]]),  # exactly singular: inv raises
    np.array([[1.0, 1.0], [0.0, 1e-14]]),  # nearly singular: kappa_1 ~ 4e14
    np.array([[1.0, 0.0], [0.0, 1e-320]]),  # subnormal pivot: inv returns NaN
], ids=["singular", "near-singular", "non-finite-inverse"])
def test_ill_conditioned_bases_are_flagged_and_pseudo_inverted(p):
    p = p.astype(complex)
    p_inv, flags = _invert_basis(p)
    assert flags == ("eigenvector_basis_singular",)
    assert np.all(np.isfinite(p_inv))
    assert_array_equal(p_inv, np.linalg.pinv(p))


def test_well_conditioned_basis_is_inverted_by_inv():
    p = np.array([[1.0, 0.6], [0.0, 0.8]], dtype=complex)
    p_inv, flags = _invert_basis(p)
    assert flags == ()
    assert_array_equal(p_inv, np.linalg.inv(p))
