"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a PASS line when its criterion holds, so running
``pytest tests/test_acceptance.py -v -s`` gives one line per criterion.
The whole file runs in a few seconds.
"""

import subprocess
import sys

import numpy as np

from dmdkit.data import SnapshotPair, delay_embed, snapshot_pairs
from dmdkit.dmd import _from_pair_form, fit_companion, fit_svd_dmd, full_operator
from dmdkit.dmd import eigenfunction_values as dmd_phi
from dmdkit.edmd import fit_edmd, lift_snapshots
from dmdkit.kernel_edmd import fit_kernel_edmd
from dmdkit.kernel_edmd import eigenfunction_values as kernel_phi
from dmdkit.linalg import eig, svd_truncated
from dmdkit.observables import (CustomDictionary, IdentityDictionary, PolynomialDictionary,
                                PolynomialKernel)
from dmdkit.systems import (
    exact_lift_oracle,
    forced_linear_system,
    quadratic_system,
    rotation_system,
    simulate,
)


def spectra_gap(found, expected):
    """Greedy nearest matching without replacement; max pairwise distance."""
    found = list(np.asarray(found, dtype=complex))
    expected = list(np.asarray(expected, dtype=complex))
    assert len(found) == len(expected)
    worst = 0.0
    for e in expected:
        gaps = [abs(f - e) for f in found]
        k = int(np.argmin(gaps))
        worst = max(worst, gaps[k])
        found.pop(k)
    return worst


def stable_matrix(rng, n):
    a = rng.standard_normal((n, n))
    return a * (0.9 / max(np.abs(np.linalg.eigvals(a))))


def linear_pair(a, x0, length):
    cols = [np.asarray(x0, dtype=float)]
    for _ in range(length - 1):
        cols.append(a @ cols[-1])
    states = np.column_stack(cols)
    return SnapshotPair(states[:, :-1], states[:, 1:])


def seeded_linear_problems():
    """20 seeded stable systems: four random draws per dimension 2..6."""
    problems = []
    for n in range(2, 7):
        for draw in range(4):
            rng = np.random.default_rng(100 * n + draw)
            a = stable_matrix(rng, n)
            x0 = rng.standard_normal(n)
            problems.append((n, a, linear_pair(a, x0, 4 * n)))
    return problems


def angular_error(fitted, true):
    v = fitted / np.linalg.norm(fitted)
    w = true / np.linalg.norm(true)
    return float(np.linalg.norm(v - (np.vdot(w, v)) * w))


def canonical(values):
    order = np.lexsort((-values.imag, -np.abs(values)))
    return values[order], order


def quadratic_setup(steps=30):
    spec = quadratic_system(0.9, 0.5, 1.0, (1.0, -0.4), steps)
    return spec, snapshot_pairs(simulate(spec))


def closed_quadratic_dictionary():
    return CustomDictionary(2, [
        ("1", lambda z: 1.0),
        ("x1", lambda z: z[0]),
        ("x2", lambda z: z[1]),
        ("x1^2", lambda z: z[0] ** 2),
    ])


def spiral_pair(steps=11):
    rot = 0.9 * np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
    return linear_pair(rot, [1.0, 0.2], steps + 1)


def nonzero(values, tol=1e-8):
    return values[np.abs(values) > tol]


def functional_equation_gap(phi_x, phi_xp, values):
    worst = 0.0
    for i, lam in enumerate(values):
        scale = float(np.max(np.abs(phi_x[i])))
        if scale == 0.0:
            continue
        gap = float(np.max(np.abs(phi_xp[i] - lam * phi_x[i]))) / scale
        worst = max(worst, gap)
    return worst


def run_cli(argv, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "dmdkit.cli"] + argv,
        capture_output=True, text=True, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def parse_csv(text):
    lines = [line for line in text.splitlines() if line]
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def test_criterion_1_linear_exact_recovery():
    for n, a, pair in seeded_linear_problems():
        model = fit_svd_dmd(pair)
        true_values, order = canonical(np.linalg.eigvals(a).astype(complex))
        _, true_vectors = np.linalg.eig(a)
        true_vectors = true_vectors[:, order]
        assert model.eigenvalues.size == n
        fitted, fitted_order = canonical(model.eigenvalues)
        modes = model.modes_v[:, fitted_order]
        assert np.max(np.abs(fitted - true_values)) <= 1e-7
        for i in range(n):
            assert angular_error(modes[:, i], true_vectors[:, i]) <= 1e-6
    print("PASS criterion 1: 20 seeded stable systems recovered "
          "(eigenvalues 1e-7, mode angle 1e-6)")


def test_svd_dmd_is_identity_edmd_on_criterion_1_systems():
    # one SVD fit: DMD is EDMD over the identity dictionary, so the two agree
    # bit for bit but in the modes, which DMD takes exact, xp W inv(Sigma) P
    # / lambda, where EDMD's are x W inv(Sigma) P (Tu et al. 2014)
    for n, _, pair in seeded_linear_problems():
        dmd = fit_svd_dmd(pair)
        edmd = fit_edmd(pair, IdentityDictionary(n))
        assert np.array_equal(dmd.eigenvalues, edmd.eigenvalues)
        assert np.array_equal(dmd.coeffs_pf, edmd.coeffs_pf)
        for name in ("lifted", "observable"):
            assert dmd.residuals[name] == edmd.residuals[name]
        factors = svd_truncated(pair.x)
        scaled = factors.w / factors.sigma
        basis = eig(factors.u.T @ (pair.xp @ scaled)).basis
        for model, base, divisor in ((dmd, pair.xp, dmd.eigenvalues), (edmd, pair.x, 1.0)):
            explicit = _from_pair_form((base @ scaled @ basis).T, model.pairs).T / divisor
            assert np.max(np.abs(model.modes_v - explicit)) <= 1e-13 * np.max(np.abs(explicit))
    print("PASS: SVD DMD is identity EDMD with exact modes on 20 seeded systems")


def test_criterion_2_companion_svd_agreement():
    for n, a, pair in seeded_linear_problems():
        companion = fit_companion(pair)
        svd = fit_svd_dmd(pair)
        left = nonzero(companion.eigenvalues)
        right = nonzero(svd.eigenvalues)
        assert left.size == right.size
        assert spectra_gap(left, right) <= 1e-6
    print("PASS criterion 2: companion and SVD nonzero spectra agree to 1e-6")


def test_criterion_3_delay_embedding_recovery():
    for theta in (0.2, 0.5, 1.0):
        traj = simulate(rotation_system(theta, 127, observe="first"))
        assert traj.length == 128
        embedded = fit_svd_dmd(snapshot_pairs(delay_embed(traj, 2)))
        expected = [np.exp(1j * theta), np.exp(-1j * theta)]
        assert embedded.eigenvalues.size == 2
        assert spectra_gap(embedded.eigenvalues, expected) <= 1e-6
        flat = fit_svd_dmd(snapshot_pairs(traj))
        assert flat.eigenvalues.size < 2
    print("PASS criterion 3: depth-2 embedding recovers e^{+-i theta} to 1e-6; "
          "depth 1 cannot")


def test_criterion_4_edmd_invariant_subspace():
    spec, pair = quadratic_setup()
    model = fit_edmd(pair, PolynomialDictionary(2, degree=2))
    for expected in (0.9, 0.5, 0.81):
        assert np.min(np.abs(model.eigenvalues - expected)) <= 1e-6
    oracle = exact_lift_oracle(spec, PolynomialDictionary(2, degree=2))
    assert oracle is not None
    for expected in np.linalg.eigvals(oracle.matrix):
        assert np.min(np.abs(model.eigenvalues - expected)) <= 1e-6
    degree_one = fit_edmd(pair, PolynomialDictionary(2, degree=1))
    assert degree_one.lifted_residual > 1e-3
    print("PASS criterion 4: poly:2 spectrum matches the exact lift to 1e-6; "
          "poly:1 residual exceeds 1e-3")


def test_criterion_5_kernel_explicit_equivalence():
    pair = spiral_pair()
    assert pair.n_columns <= 30 and pair.n_observables <= 3
    for degree in (1, 2, 3):
        kernel = PolynomialKernel(degree)
        km = fit_kernel_edmd(pair, kernel)
        em = fit_edmd(pair, kernel.explicit_dictionary(pair.n_observables))
        left = nonzero(km.eigenvalues)
        right = nonzero(em.eigenvalues)
        assert left.size == right.size
        assert spectra_gap(left, right) <= 1e-6
    print("PASS criterion 5: kernel EDMD matches explicit weighted EDMD "
          "for degrees 1..3 to 1e-6")


def test_criterion_6_eigenfunction_functional_equation():
    worst = 0.0
    for n, a, pair in seeded_linear_problems():
        model = fit_svd_dmd(pair)
        gap = functional_equation_gap(
            dmd_phi(model, pair.x), dmd_phi(model, pair.xp), model.eigenvalues
        )
        worst = max(worst, gap)
        assert gap <= 1e-6
    for theta in (0.2, 0.5, 1.0):
        traj = simulate(rotation_system(theta, 127, observe="first"))
        pair = snapshot_pairs(delay_embed(traj, 2))
        model = fit_svd_dmd(pair)
        gap = functional_equation_gap(
            dmd_phi(model, pair.x), dmd_phi(model, pair.xp), model.eigenvalues
        )
        worst = max(worst, gap)
        assert gap <= 1e-6
    _, pair = quadratic_setup()
    dictionary = closed_quadratic_dictionary()
    model = fit_edmd(pair, dictionary)
    lifted = lift_snapshots(pair, dictionary)
    phi_x = model.coeffs @ lifted.x
    phi_xp = model.coeffs @ lifted.xp
    gap = functional_equation_gap(phi_x, phi_xp, model.eigenvalues)
    worst = max(worst, gap)
    assert gap <= 1e-6
    pair = spiral_pair()
    for degree in (1, 2, 3):
        model = fit_kernel_edmd(pair, PolynomialKernel(degree))
        gap = functional_equation_gap(
            kernel_phi(model, pair.x), kernel_phi(model, pair.xp), model.eigenvalues
        )
        worst = max(worst, gap)
        assert gap <= 1e-6
    print(f"PASS criterion 6: functional equation holds to 1e-6 "
          f"(worst residual {worst:.2e})")


def test_criterion_7_mode_reconstruction():
    _, pair = quadratic_setup()
    dictionary = closed_quadratic_dictionary()
    explicit = fit_edmd(pair, dictionary)
    lifted = lift_snapshots(pair, dictionary)
    phi = explicit.coeffs @ lifted.x
    recon = (explicit.modes_v @ phi).real
    explicit_err = np.linalg.norm(pair.x - recon) / np.linalg.norm(pair.x)
    assert explicit_err <= 1e-6

    spiral = spiral_pair()
    kernel_model = fit_kernel_edmd(spiral, PolynomialKernel(2))
    phi_train = kernel_phi(kernel_model, spiral.x)
    recon = (kernel_model.modes_v @ phi_train).real
    kernel_err = np.linalg.norm(spiral.x - recon) / np.linalg.norm(spiral.x)
    assert kernel_err <= 1e-6
    print(f"PASS criterion 7: mode reconstruction errors "
          f"{explicit_err:.2e} (explicit), {kernel_err:.2e} (kernel)")


def test_criterion_8_forced_system_fit():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 3))
    a = m @ np.diag([0.9, 0.7, 0.5]) @ np.linalg.inv(m)
    b_in = np.array([[1.0], [0.5], [-0.3]])
    spec = forced_linear_system(a, b_in, [0.2, -0.1, 0.3], 60, input_seed=4)
    traj = simulate(spec)
    pair = snapshot_pairs(traj, augment_inputs=True)
    model = fit_svd_dmd(pair)
    assert model.fit_residual <= 1e-8
    state_block = full_operator(model)[:3, :3]
    gap = spectra_gap(np.linalg.eigvals(state_block), [0.9, 0.7, 0.5])
    assert gap <= 1e-6
    print(f"PASS criterion 8: forced fit residual {model.fit_residual:.2e}, "
          f"state-block spectrum gap {gap:.2e}")


def test_criterion_9_cli_end_to_end(tmp_path):
    # Linear system through the dmd path.
    run_cli([
        "simulate", "--system", "linear", "--a", "0.85,0.1;0.05,0.55",
        "--x0", "1,1", "--steps", "20", "--out", "traj.csv",
    ], tmp_path)
    states = np.array(parse_csv((tmp_path / "traj.csv").read_text()))[:, 1:]
    out_a = run_cli([
        "fit", "--algo", "dmd", "--data", "traj.csv", "--out", "model_a.json",
    ], tmp_path)
    out_b = run_cli([
        "fit", "--algo", "dmd", "--data", "traj.csv", "--out", "model_b.json",
    ], tmp_path)
    assert out_a == out_b
    assert (tmp_path / "model_a.json").read_bytes() == \
        (tmp_path / "model_b.json").read_bytes()
    (tmp_path / "ic.csv").write_text("1,1\n")
    pred_a = run_cli(["predict", "model_a.json", "ic.csv", "20"], tmp_path)
    pred_b = run_cli(["predict", "model_a.json", "ic.csv", "20"], tmp_path)
    assert pred_a == pred_b
    forecast = np.array(parse_csv(pred_a))[:, 1:]
    assert np.max(np.abs(forecast - states[1:])) <= 1e-5

    # Quadratic system through the edmd path.
    run_cli([
        "simulate", "--system", "quadratic", "--mu", "0.9", "--lam", "0.5",
        "--c", "1", "--x0=1,-0.4", "--steps", "30", "--out", "quad.csv",
    ], tmp_path)
    quad_states = np.array(parse_csv((tmp_path / "quad.csv").read_text()))[:, 1:]
    run_cli([
        "fit", "--algo", "edmd", "--dict", "poly:2",
        "--data", "quad.csv", "--out", "quad_a.json",
    ], tmp_path)
    run_cli([
        "fit", "--algo", "edmd", "--dict", "poly:2",
        "--data", "quad.csv", "--out", "quad_b.json",
    ], tmp_path)
    assert (tmp_path / "quad_a.json").read_bytes() == \
        (tmp_path / "quad_b.json").read_bytes()
    (tmp_path / "qic.csv").write_text("1,-0.4\n")
    pred = run_cli(["predict", "quad_a.json", "qic.csv", "30"], tmp_path)
    forecast = np.array(parse_csv(pred))[:, 1:]
    assert np.max(np.abs(forecast - quad_states[1:])) <= 1e-5
    print("PASS criterion 9: CLI simulate/fit/save/load/predict round trips "
          "within 1e-5 with byte-identical reruns")
