import base64
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dmdkit.model_io
from dmdkit.cli import main
from dmdkit.data import Trajectory, save_trajectory
from dmdkit.systems import linear_system, simulate


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def write_diag_traj(capsys, tmp_path, name="traj.csv"):
    path = tmp_path / name
    code, _, _ = run(capsys, [
        "simulate", "--system", "linear", "--a", "0.9,0;0,0.5",
        "--x0", "1,1", "--steps", "20", "--out", str(path),
    ])
    assert code == 0
    return path


def write_block_rotation_traj(tmp_path, blocks, steps, seed, name="rot.csv"):
    """Planar rotation blocks with seeded angles, run from a seeded start."""
    rng = np.random.default_rng(seed)
    a = np.zeros((2 * blocks, 2 * blocks))
    for k, theta in enumerate(rng.uniform(0.2, np.pi - 0.2, blocks)):
        c, s = np.cos(theta), np.sin(theta)
        a[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, -s], [s, c]]
    path = tmp_path / name
    save_trajectory(simulate(linear_system(a, rng.standard_normal(2 * blocks), steps)), path)
    return path


def write_quadratic_traj(capsys, tmp_path, name="quad.csv"):
    path = tmp_path / name
    code, _, _ = run(capsys, [
        "simulate", "--system", "quadratic", "--mu", "0.9", "--lam", "0.5",
        "--c", "0.4", "--x0", "1,-0.4", "--steps", "30", "--out", str(path),
    ])
    assert code == 0
    return path


def test_simulate_stdout_is_trajectory_csv(capsys):
    code, out, _ = run(capsys, [
        "simulate", "--system", "linear", "--a", "0.9,0;0,0.5",
        "--x0", "1,1", "--steps", "3",
    ])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["t", "x1", "x2"]
    assert_allclose(rows, [
        [0, 1, 1], [1, 0.9, 0.5], [2, 0.81, 0.25], [3, 0.729, 0.125],
    ], atol=1e-15)


def test_simulate_rotation_first_coordinate_is_scalar(capsys):
    code, out, _ = run(capsys, [
        "simulate", "--system", "rotation", "--theta", "0.5",
        "--observe", "first", "--steps", "4",
    ])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["t", "x1"]
    assert_allclose([r[1] for r in rows], np.cos(0.5 * np.arange(5)), atol=1e-14)


@pytest.mark.parametrize("flags", [
    ["--system", "linear", "--a", "0.9,0;0,0.5", "--x0", "1,1"],
    ["--system", "quadratic", "--mu", "0.9", "--lam", "0.5", "--c", "1", "--x0", "1,1"],
    ["--system", "forced-linear", "--a", "0.9,0;0,0.5", "--b", "1;0.5", "--x0", "1,1"],
], ids=["linear", "quadratic", "forced-linear"])
def test_simulate_observe_first_records_x1_for_every_system(capsys, flags):
    code, full, _ = run(capsys, ["simulate", *flags, "--steps", "2"])
    assert code == 0
    code, first, _ = run(capsys, ["simulate", *flags, "--steps", "2", "--observe", "first"])
    assert code == 0
    header, rows = csv_rows(first)
    assert header[:2] == ["t", "x1"] and "x2" not in header
    full_header, full_rows = csv_rows(full)
    keep = [full_header.index(name) for name in header]
    assert rows == [[row[i] for i in keep] for row in full_rows]


def test_fit_dmd_prints_eigenvalues_and_residual(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    code, out, err = run(capsys, [
        "fit", "--algo", "dmd", "--data", str(traj), "--out", str(model),
    ])
    assert code == 0
    assert model.exists()
    header, rows = csv_rows(out)
    assert header == ["index", "re", "im", "training_residual"]
    found = sorted(r[1] for r in rows)
    assert_allclose(found, [0.5, 0.9], atol=1e-10)
    assert all(r[3] < 1e-10 for r in rows)
    assert "wrote model" in err


def test_fit_reruns_are_byte_identical(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    code_a, out_a, _ = run(capsys, [
        "fit", "--algo", "dmd", "--data", str(traj), "--out", str(first),
    ])
    code_b, out_b, _ = run(capsys, [
        "fit", "--algo", "dmd", "--data", str(traj), "--out", str(second),
    ])
    assert code_a == code_b == 0
    assert first.read_bytes() == second.read_bytes()
    assert out_a == out_b


def test_fit_concatenates_multiple_data_files(capsys, tmp_path):
    first = write_diag_traj(capsys, tmp_path, "t1.csv")
    second = tmp_path / "t2.csv"
    code, _, _ = run(capsys, [
        "simulate", "--system", "linear", "--a", "0.9,0;0,0.5",
        "--x0=-0.3,0.8", "--steps", "15", "--out", str(second),
    ])
    assert code == 0
    model = tmp_path / "model.json"
    code, out, _ = run(capsys, [
        "fit", "--algo", "dmd", "--data", str(first), "--data", str(second),
        "--out", str(model),
    ])
    assert code == 0
    _, rows = csv_rows(out)
    assert_allclose(sorted(r[1] for r in rows), [0.5, 0.9], atol=1e-10)


def test_spectrum_rotation_magnitudes_and_phases(capsys, tmp_path):
    traj = tmp_path / "rot.csv"
    code, _, _ = run(capsys, [
        "simulate", "--system", "rotation", "--theta", "0.3",
        "--steps", "32", "--out", str(traj),
    ])
    assert code == 0
    model = tmp_path / "model.json"
    code, _, _ = run(capsys, [
        "fit", "--algo", "dmd", "--data", str(traj), "--out", str(model),
    ])
    assert code == 0
    code, out, _ = run(capsys, ["spectrum", str(model)])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["index", "re", "im", "magnitude", "phase"]
    assert len(rows) == 2
    mags = [r[3] for r in rows]
    assert_allclose(mags, [1.0, 1.0], atol=1e-10)
    assert_allclose(sorted(r[4] for r in rows), [-0.3, 0.3], atol=1e-10)


def test_spectrum_rows_sorted_by_magnitude(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj), "--out", str(model)])
    code, out, _ = run(capsys, ["spectrum", str(model)])
    assert code == 0
    _, rows = csv_rows(out)
    mags = [r[3] for r in rows]
    assert mags == sorted(mags, reverse=True)
    assert all(r[2] == 0.0 and r[4] == 0.0 for r in rows)


def test_spectrum_magnitude_column_never_increases(capsys, tmp_path):
    # 20 unit-modulus eigenvalues: numpy's vectorised |z| and the scalar |z|
    # differ in the last bit for some of them, so rows must print the very
    # magnitudes they were sorted by; no ulp of slack is allowed
    traj = write_block_rotation_traj(tmp_path, blocks=10, steps=60, seed=1)
    model = tmp_path / "model.json"
    code, _, _ = run(capsys, ["fit", "--algo", "dmd", "--data", str(traj), "--out", str(model)])
    assert code == 0
    code, out, _ = run(capsys, ["spectrum", str(model)])
    assert code == 0
    mags = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
    assert len(mags) == 20
    assert all(later <= earlier for earlier, later in zip(mags, mags[1:]))


def test_predict_diagonal_powers(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj), "--out", str(model)])
    ic = tmp_path / "ic.csv"
    ic.write_text("1,1\n")
    code, out, _ = run(capsys, ["predict", str(model), str(ic), "2"])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["step", "g1", "g2"]
    assert_allclose(rows, [[1, 0.9, 0.5], [2, 0.81, 0.25]], atol=1e-10)


@pytest.mark.parametrize("rows, message", [
    ("1,1,1\n", "history rows have 3 values, expected 2"),
    ("1,1\n1,1\n", "model needs 1 history row, got 2"),
], ids=["values", "rows"])
def test_initial_condition_shape_errors_name_the_file(capsys, tmp_path, rows, message):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj), "--out", str(model)])
    ic = tmp_path / "ic.csv"
    ic.write_text(rows)
    code, out, err = run(capsys, ["predict", str(model), str(ic), "2"])
    assert code == 3
    assert out == ""
    assert err.strip() == f"error: {ic}: {message}"


def test_predict_reruns_are_byte_identical(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj), "--out", str(model)])
    ic = tmp_path / "ic.csv"
    ic.write_text("0.4,-0.7\n")
    _, out_a, _ = run(capsys, ["predict", str(model), str(ic), "5"])
    _, out_b, _ = run(capsys, ["predict", str(model), str(ic), "5"])
    assert out_a == out_b


def test_companion_fit_and_predict(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    code, out, _ = run(capsys, [
        "fit", "--algo", "companion", "--data", str(traj), "--out", str(model),
    ])
    assert code == 0
    _, rows = csv_rows(out)
    assert_allclose(sorted(r[1] for r in rows), [0.5, 0.9], atol=1e-9)
    ic = tmp_path / "ic.csv"
    ic.write_text("1,1\n")
    code, out, _ = run(capsys, ["predict", str(model), str(ic), "2"])
    assert code == 0
    _, rows = csv_rows(out)
    assert_allclose(rows, [[1, 0.9, 0.5], [2, 0.81, 0.25]], atol=1e-9)


def test_companion_ill_conditioned_window_exits_4_without_model(capsys, tmp_path):
    traj = write_block_rotation_traj(tmp_path, blocks=100, steps=300, seed=0)
    model = tmp_path / "model.json"
    code, out, err = run(capsys, [
        "fit", "--algo", "companion", "--data", str(traj), "--out", str(model),
    ])
    assert code == 4
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "ill-conditioned" in errors[0]
    assert "Traceback" not in err
    assert not model.exists()


def test_companion_fit_of_two_trajectories_exits_2_without_model(capsys, tmp_path):
    # in the second case the fit regresses on a.csv's first 3 samples alone,
    # so only a check of every pair sees that b.csv is another trajectory
    diag4 = "0.9,0,0,0;0,0.7,0,0;0,0,0.5,0;0,0,0,0.3"
    cases = [
        [(diag4, "1,1,1,1", "3"), (diag4, "1,-2,0.5,3", "3")],
        [("0.9,0;0,0.5", "1,1", "10"), ("0.7,0;0,0.2", "1,1", "10")],
    ]
    for case, runs in enumerate(cases):
        paths = []
        for name, (a, x0, steps) in zip(("a.csv", "b.csv"), runs):
            path = tmp_path / f"{case}{name}"
            code, _, _ = run(capsys, [
                "simulate", "--system", "linear", "--a", a, "--x0", x0,
                "--steps", steps, "--out", str(path),
            ])
            assert code == 0
            paths += ["--data", str(path)]
        model = tmp_path / f"{case}model.json"
        code, out, err = run(capsys, ["fit", "--algo", "companion", *paths, "--out", str(model)])
        assert code == 2
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "one trajectory" in errors[0] and "--algo dmd" in errors[0]
        assert "Traceback" not in err
        assert not model.exists()


def test_svd_dmd_fit_holds_one_copy_of_the_data(capsys, tmp_path):
    # x and xp are windows of one matrix, and the trajectory is dropped once
    # they exist: the traced peak reads 4.2 times the data, against 6.2 times
    # while the trajectory, x and xp were three copies
    states = np.random.default_rng(41).standard_normal((2001, 200))
    path = tmp_path / "wide.csv"
    save_trajectory(Trajectory(dt=0.01, states=states), path)
    tracemalloc.start()
    try:
        code = main(["fit", "--algo", "dmd", "--data", str(path),
                     "--out", str(tmp_path / "model.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= 5 * states.nbytes, peak / states.nbytes


def test_edmd_cli_round_trip_tracks_simulation(capsys, tmp_path):
    traj = write_quadratic_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    code, out, _ = run(capsys, [
        "fit", "--algo", "edmd", "--dict", "poly:2",
        "--data", str(traj), "--out", str(model),
    ])
    assert code == 0
    _, rows = csv_rows(out)
    found = [r[1] for r in rows]
    for expected in (0.9, 0.5, 0.81):
        assert min(abs(v - expected) for v in found) < 1e-6
    ic = tmp_path / "ic.csv"
    ic.write_text("1,-0.4\n")
    code, out, _ = run(capsys, ["predict", str(model), str(ic), "5"])
    assert code == 0
    _, rows = csv_rows(out)
    x = np.array([1.0, -0.4])
    for step, row in enumerate(rows, start=1):
        x = np.array([0.9 * x[0], 0.5 * x[1] + 0.4 * x[0] ** 2])
        assert row[0] == step
        assert_allclose(row[1:], x, atol=1e-5)


def test_kernel_edmd_cli_round_trip(capsys, tmp_path):
    traj = write_quadratic_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    code, out, _ = run(capsys, [
        "fit", "--algo", "kernel-edmd", "--kernel", "poly:2",
        "--data", str(traj), "--out", str(model),
    ])
    assert code == 0
    ic = tmp_path / "ic.csv"
    ic.write_text("1,-0.4\n")
    code, out, _ = run(capsys, ["predict", str(model), str(ic), "5"])
    assert code == 0
    _, rows = csv_rows(out)
    x = np.array([1.0, -0.4])
    for row in rows:
        x = np.array([0.9 * x[0], 0.5 * x[1] + 0.4 * x[0] ** 2])
        assert_allclose(row[1:], x, atol=1e-5)


def test_embedded_predict_needs_full_history(capsys, tmp_path):
    traj = tmp_path / "rot.csv"
    run(capsys, [
        "simulate", "--system", "rotation", "--theta", "0.5",
        "--observe", "first", "--steps", "64", "--out", str(traj),
    ])
    model = tmp_path / "model.json"
    code, _, _ = run(capsys, [
        "fit", "--algo", "dmd", "--data", str(traj), "--embed", "2",
        "--out", str(model),
    ])
    assert code == 0
    short = tmp_path / "short.csv"
    short.write_text("1.0\n")
    code, _, err = run(capsys, ["predict", str(model), str(short), "3"])
    assert code == 3
    assert "2 history rows" in err
    full = tmp_path / "full.csv"
    full.write_text("1.0\n" + format(np.cos(0.5), ".17g") + "\n")
    code, out, _ = run(capsys, ["predict", str(model), str(full), "3"])
    assert code == 0
    _, rows = csv_rows(out)
    assert_allclose(
        [r[2] for r in rows], np.cos(0.5 * np.arange(2, 5)), atol=1e-8
    )


@pytest.mark.parametrize("augment", [False, True])
def test_embedded_model_of_forced_data_predicts(capsys, tmp_path, augment):
    # zero inputs keep the states linear; without --augment-inputs the inputs
    # stay out of the model and the history rows hold states only
    traj = tmp_path / "forced.csv"
    run(capsys, [
        "simulate", "--system", "forced-linear", "--a", "0.9,0.1;0,0.5", "--b", "1;0.5",
        "--x0", "1,0.5", "--input-scale", "0", "--steps", "30", "--out", str(traj),
    ])
    model = tmp_path / "model.json"
    flags = ["--augment-inputs"] if augment else []
    code, _, _ = run(capsys, ["fit", "--algo", "dmd", "--embed", "2", *flags,
                              "--data", str(traj), "--out", str(model)])
    assert code == 0
    _, rows = csv_rows(traj.read_text())
    history = np.array(rows)[:2, 1:] if augment else np.array(rows)[:2, 1:3]
    ic = tmp_path / "ic.csv"
    ic.write_text("".join(",".join(format(v, ".17g") for v in row) + "\n" for row in history))
    code, out, err = run(capsys, ["predict", str(model), str(ic), "3"])
    assert code == 0, err
    _, forecast = csv_rows(out)
    # step m holds the window (x_m, x_m+1), states block first
    assert_allclose(np.array(forecast)[:, 3:5], np.array(rows)[2:5, 1:3], atol=1e-8)


def write_u_and_d_traj(capsys, tmp_path):
    """A forced-linear CSV with two held columns, the second renamed d1."""
    path = tmp_path / "u.csv"
    code, _, _ = run(capsys, [
        "simulate", "--system", "forced-linear", "--a", "0.9,0.1;0,0.5",
        "--b", "1,0.3;0.5,-1", "--x0", "1,0.5", "--steps", "40", "--out", str(path),
    ])
    assert code == 0
    text = path.read_text()
    assert text.startswith("t,x1,x2,u1,u2\n")
    mixed = tmp_path / "ud.csv"
    mixed.write_text(text.replace("u2", "d1", 1))
    return path, mixed


def test_u_and_d_columns_fit_like_all_u_columns(capsys, tmp_path):
    # d columns are further inputs: the fit and its model file are the same
    # bytes as for the table with every held column named u
    outputs = []
    for traj in write_u_and_d_traj(capsys, tmp_path):
        model = tmp_path / f"{traj.stem}.json"
        code, out, err = run(capsys, ["fit", "--algo", "dmd", "--augment-inputs",
                                      "--data", str(traj), "--out", str(model)])
        assert code == 0, err
        outputs.append((out, model.read_bytes()))
    assert outputs[0] == outputs[1]
    fit_meta = json.loads(outputs[0][1])["fit"]
    assert fit_meta["inputs"] == 2 and fit_meta["observable_dim"] == 4
    assert not {"augment_inputs", "base_split"} & set(fit_meta)


def test_embedded_augmented_model_of_u_and_d_data_predicts_from_data_rows(capsys, tmp_path):
    # history rows are whole data rows (states, then u and d); the held block
    # of the observable is ordered by time, u and d together
    _, traj = write_u_and_d_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    code, _, err = run(capsys, ["fit", "--algo", "dmd", "--embed", "2", "--augment-inputs",
                                "--data", str(traj), "--out", str(model)])
    assert code == 0, err
    assert json.loads(model.read_text())["fit"]["inputs"] == 2
    _, rows = csv_rows(traj.read_text())
    history = np.array(rows)[:2, 1:]
    ic = tmp_path / "ic.csv"
    ic.write_text("".join(",".join(format(v, ".17g") for v in row) + "\n" for row in history))
    code, out, err = run(capsys, ["predict", str(model), str(ic), "3"])
    assert code == 0, err
    forecast = np.array(csv_rows(out)[1])
    # the inputs hold for 5 samples, so steps 1-3 see the history's levels
    assert_allclose(forecast[:, 3:5], np.array(rows)[2:5, 1:3], atol=1e-10)
    assert_allclose(forecast[:, 5:], np.tile(history[:, 2:].reshape(-1), (3, 1)), atol=1e-10)


def test_augmented_fit_refuses_files_that_split_states_and_inputs_differently(capsys, tmp_path):
    # the same width, but B's u1 sits where A has x2: it must not be fitted as a state
    rows = "".join(f"{t},{0.9 ** t},{0.5 ** t},{t % 2}\n" for t in range(6))
    first, second = tmp_path / "A.csv", tmp_path / "B.csv"
    first.write_text("t,x1,x2,u1\n" + rows)
    second.write_text("t,x1,u1,u2\n" + rows)
    model = tmp_path / "model.json"
    code, out, err = run(capsys, ["fit", "--algo", "dmd", "--augment-inputs",
                                  "--data", str(first), "--data", str(second),
                                  "--out", str(model)])
    assert code == 3 and out == "" and one_error_line(err)
    last = err.splitlines()[-1]
    assert f"{first} has 2 x and 1 u columns" in last
    assert f"{second} has 1 x and 2 u columns" in last
    assert not model.exists()
    # files that split alike still fit as one set
    code, _, err = run(capsys, ["fit", "--algo", "dmd", "--augment-inputs",
                                "--data", str(first), "--data", str(first),
                                "--out", str(model)])
    assert code == 0, err
    assert json.loads(model.read_text())["fit"]["inputs"] == 1


def test_embedding_as_deep_as_the_trajectory_exits_3(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    code, _, err = run(capsys, ["fit", "--algo", "dmd", "--data", str(traj), "--embed", "21",
                                "--out", str(tmp_path / "m.json")])
    assert code == 3
    assert "fewer than 2 samples to pair" in err


@pytest.mark.parametrize("flags", [
    ["--input-scale", "nan"],
    ["--input-scale", "inf"],
    ["--input-scale", "-1"],
    ["--input-scale", "1e308"],
    ["--input-seed", "-1"],
    ["--a", "nan,0;0,0.5"],
    ["--b", "1;inf"],
], ids=["scale-nan", "scale-inf", "scale-negative", "scale-overflow", "seed-negative",
        "a-nan", "b-inf"])
def test_bad_forced_linear_flags_exit_with_one_line(capsys, flags):
    argv = ["simulate", "--system", "forced-linear", "--a", "0.9,0;0,0.5", "--b", "1;0.5",
            "--x0", "1,1", "--steps", "5"]
    code, out, err = run(capsys, argv + flags)  # a later flag overrides an earlier one
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("flags", [
    ["--system", "linear", "--a", "0.9,0;0,0.5", "--x0", "1,1,1"],
    ["--system", "linear", "--a", "0.9,0;0,0.5", "--x0=nan,1"],
    ["--system", "linear", "--a", "nan,0;0,0.5", "--x0", "1,1"],
    ["--system", "linear", "--a", "0.9,0,1;0,0.5,1", "--x0", "1,1"],
    ["--system", "rotation", "--theta", "0.5", "--x0", "1,0,0"],
    ["--system", "quadratic", "--mu", "0.9", "--lam", "0.5", "--c", "1", "--x0", "1"],
    ["--system", "forced-linear", "--a", "0.9,0;0,0.5", "--b", "1,1,1", "--x0", "1,1"],
], ids=["linear-x0-long", "linear-x0-nan", "linear-a-nan", "linear-a-not-square",
        "rotation-x0-long", "quadratic-x0-short", "forced-b-wide"])
def test_simulate_flag_of_the_wrong_shape_exits_2_and_writes_nothing(capsys, tmp_path, flags):
    # the system factories raise ShapeError; from the command line it is a
    # usage error, as the other refused simulate flags are
    out_path = tmp_path / "traj.csv"
    code, out, err = run(capsys, ["simulate", *flags, "--steps", "3", "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")  # no traceback
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--algo", "dmd", "--dict", "poly:2"],
    ["fit", "--algo", "edmd"],
    ["fit", "--algo", "kernel-edmd"],
    ["fit", "--algo", "companion", "--kernel", "poly:2"],
    ["fit", "--algo", "dmd", "--embed", "0"],
])
def test_incompatible_fit_flags_exit_2(capsys, tmp_path, argv):
    traj = write_diag_traj(capsys, tmp_path)
    full = argv + ["--data", str(traj), "--out", str(tmp_path / "m.json")]
    code, _, err = run(capsys, full)
    assert code == 2
    assert "error" in err.lower()


def test_missing_required_flag_is_usage_error(capsys, tmp_path):
    code, _, _ = run(capsys, ["fit", "--algo", "dmd", "--data", "x.csv"])
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


@pytest.mark.parametrize("argv,words", [
    (["fit", "--algo", "bogus", "--data", "x", "--out", "y"], "invalid choice: 'bogus'"),
    (["fit", "--algo", "dmd", "--data", "x"], "required: --out"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["predict", "m.json", "ic.csv", "notint"], "invalid int value: 'notint'"),
], ids=["bad-choice", "missing-flag", "unknown-subcommand", "non-integer-steps"])
def test_malformed_command_line_is_one_error_line(capsys, argv, words):
    # no usage lines and no "dmdkit fit: error:" prefix: the one error line
    # every refused input gets, exit 2
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and one_error_line(err)
    assert words in err


@pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: dmdkit")


def test_malformed_data_csv_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x1\n0,1\n1,word\n")
    code, _, err = run(capsys, [
        "fit", "--algo", "dmd", "--data", str(bad),
        "--out", str(tmp_path / "m.json"),
    ])
    assert code == 3
    assert "word" in err


def test_missing_data_file_exits_3(capsys, tmp_path):
    code, _, _ = run(capsys, [
        "fit", "--algo", "dmd", "--data", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path / "m.json"),
    ])
    assert code == 3


def test_zero_data_exits_4(capsys, tmp_path):
    traj = tmp_path / "zero.csv"
    run(capsys, [
        "simulate", "--system", "linear", "--a", "0.9", "--x0", "0",
        "--steps", "6", "--out", str(traj),
    ])
    code, _, err = run(capsys, [
        "fit", "--algo", "dmd", "--data", str(traj),
        "--out", str(tmp_path / "m.json"),
    ])
    assert code == 4
    assert "error" in err


def write_huge_traj(tmp_path, power, name="huge.csv"):
    """The diagonal system's states times 2^power, a trajectory of finite data."""
    states = simulate(linear_system(np.diag([0.9, 0.5]), [1.0, 1.0], 20)).states
    path = tmp_path / name
    save_trajectory(Trajectory(dt=1.0, states=np.ldexp(states, power)), path)
    return path


@pytest.mark.parametrize("algo", ["dmd", "companion"])
def test_fit_of_data_scaled_by_2_to_the_600_exits_0(capsys, tmp_path, algo):
    # squares of 4e180 overflow; the residual is scaled back by a power of
    # two, so it reads as the unscaled fit's within 1e-12 of it plus 1e-14
    residuals = []
    for power in (0, 600):
        code, out, _ = run(capsys, [
            "fit", "--algo", algo, "--data", str(write_huge_traj(tmp_path, power)),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 0
        residuals.append(csv_rows(out)[1][0][3])
    assert abs(residuals[1] - residuals[0]) <= 1e-12 * residuals[0] + 1e-14


@pytest.mark.parametrize("algo", [["edmd", "--dict", "poly:2"], ["kernel-edmd", "--kernel", "poly:2"]],
                         ids=["edmd", "kernel-edmd"])
def test_predict_from_an_overflowing_initial_condition_exits_4(capsys, tmp_path, algo):
    model = tmp_path / "m.json"
    code, _, _ = run(capsys, ["fit", "--algo", *algo, "--data",
                              str(write_diag_traj(capsys, tmp_path)), "--out", str(model)])
    assert code == 0
    ic = tmp_path / "ic.csv"
    ic.write_text("1e200,1e200\n")
    code, out, err = run(capsys, ["predict", str(model), str(ic), "3"])
    assert (code, out) == (4, "")
    assert err.splitlines() == ["error: eigenfunction values are not finite: the point's "
                                "features overflow"]


@pytest.mark.parametrize("algo,message", [
    (["kernel-edmd", "--kernel", kernel], f"Gram matrix G contains non-finite entries: "
                                          f"the {kernel} kernel overflows on the snapshots")
    for kernel in ("gaussian:1", "poly:2", "laplacian:1")
] + [(["edmd", "--dict", "poly:2"], "snapshot matrices contain non-finite entries")],
    ids=["gaussian", "poly", "laplacian", "edmd"])
def test_fit_whose_features_overflow_exits_3_with_one_line(capsys, tmp_path, algo, message):
    # states near 1.3e200 (2^665) are finite, but their Gram matrix or lift
    # is not: one error line after the fit's note, and no RuntimeWarning
    model = tmp_path / "m.json"
    code, _, err = run(capsys, ["fit", "--algo", *algo, "--data",
                                str(write_huge_traj(tmp_path, 665)), "--out", str(model)])
    assert code == 3
    assert err.splitlines()[1:] == [f"error: {message}"]
    assert not model.exists()


def test_schema_bump_is_rejected_on_load(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj), "--out", str(model)])
    payload = json.loads(model.read_text())
    payload["schema_version"] = dmdkit.model_io.SCHEMA_VERSION + 1
    model.write_text(json.dumps(payload))
    code, _, err = run(capsys, ["spectrum", str(model)])
    assert code == 3
    assert "schema_version" in err
    ic = tmp_path / "ic.csv"
    ic.write_text("1,1\n")
    code, _, _ = run(capsys, ["predict", str(model), str(ic), "1"])
    assert code == 3


def doubles(text):
    return np.frombuffer(base64.b64decode(text), "<f8")


def packed(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _nan_in_modes(payload):
    modes = payload["matrices"]["modes"]
    modes["real"] = packed(np.concatenate([[np.nan], doubles(modes["real"])[1:]]))


def _inf_in_coeffs(payload):
    coeffs = payload["matrices"]["coeffs"]
    coeffs["real"] = packed(np.concatenate([[np.inf], doubles(coeffs["real"])[1:]]))


def _non_alphabet_character(payload):
    modes = payload["matrices"]["modes"]
    modes["real"] = "*" + modes["real"][1:]


def _one_double_short(payload):
    coeffs = payload["matrices"]["coeffs"]
    coeffs["real"] = packed(doubles(coeffs["real"])[:-1])


def _bad_padding(payload):
    modes = payload["matrices"]["modes"]
    assert modes["real"].endswith("=")  # 4 doubles: 32 bytes, one pad
    modes["real"] = modes["real"][:-1]


def _number_list(payload):
    modes = payload["matrices"]["modes"]
    modes["real"] = doubles(modes["real"]).tolist()


def _text_row_count(payload):
    payload["matrices"]["coeffs"]["rows"] = "2"


def _text_residual(payload):
    payload["fit"]["residuals"]["training"] = "small"


def _one_eigenvalue(payload):
    values = payload["matrices"]["eigenvalues"]
    values["cols"] = 1
    values["real"] = packed(doubles(values["real"])[:1])
    values.pop("imag", None)


def _unpaired_eigenvalue(payload):
    values = payload["matrices"]["eigenvalues"]
    assert "imag" not in values  # a diagonal system's spectrum is real
    values["imag"] = packed([0.25] + [0.0] * (values["cols"] - 1))


def _wrong_observable_dim(payload):
    payload["fit"]["observable_dim"] = 3


def _no_features(payload):
    del payload["fit"]["features"]


def _polynomial_features(payload):
    payload["fit"]["features"] = "poly:1"


@pytest.mark.parametrize("damage, named", [
    (_nan_in_modes, "NaN"),
    (_inf_in_coeffs, "'coeffs' is not finite"),
    (_non_alphabet_character, "'modes' real is not valid base64"),
    (_one_double_short, "'coeffs' real holds"),
    (_bad_padding, "'modes' real is not valid base64"),
    (_number_list, "'modes' real must be a base64 string"),
    (_text_row_count, "'coeffs' rows"),
    (_text_residual, "residual 'training'"),
    (_one_eigenvalue, "eigenvalue count"),
    (_unpaired_eigenvalue, "eigenvalues are not closed under conjugation"),
    (_wrong_observable_dim, "observable dimension"),
    (_no_features, "missing fit key 'features'"),
    (_polynomial_features, "a dmd model cannot hold PolynomialDictionary features"),
])
def test_damaged_model_file_exits_3_with_one_line(capsys, tmp_path, damage, named):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj), "--out", str(model)])
    payload = json.loads(model.read_text())
    damage(payload)
    model.write_text(json.dumps(payload))
    ic = tmp_path / "ic.csv"
    ic.write_text("1,1\n")
    for argv in (["spectrum", str(model)], ["predict", str(model), str(ic), "3"]):
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err


def test_model_file_with_unusable_kernel_width_exits_3(capsys, tmp_path):
    traj = write_quadratic_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    run(capsys, ["fit", "--algo", "kernel-edmd", "--kernel", "gaussian:1",
                 "--data", str(traj), "--out", str(model)])
    payload = json.loads(model.read_text())
    payload["fit"]["features"] = "gaussian:1e200"
    model.write_text(json.dumps(payload))
    ic = tmp_path / "ic.csv"
    ic.write_text("1,-0.4\n")
    for argv in (["spectrum", str(model)], ["predict", str(model), str(ic), "3"]):
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert one_error_line(err) and "'gaussian:1e200' are unusable" in err


def _drop_field(lines, rng):
    row = int(rng.integers(len(lines)))
    fields = lines[row].split(",")
    del fields[int(rng.integers(len(fields)))]
    lines[row] = ",".join(fields)


def _set_field(lines, rng, values, column=None):
    row = int(rng.integers(1, len(lines)))
    fields = lines[row].split(",")
    if column is None:
        column = int(rng.integers(len(fields)))
    fields[column] = values[int(rng.integers(len(values)))]
    lines[row] = ",".join(fields)


def _non_numeric(lines, rng):
    _set_field(lines, rng, ["abc", "", "1.2.3", "one", "1e", "--1"])


def _nan_value(lines, rng):
    _set_field(lines, rng, ["nan", "NaN", "-nan"], column=int(rng.integers(1, 5)))


def _nan_time_stamp(lines, rng):
    _set_field(lines, rng, ["nan", "NaN", "-nan"], column=0)


def _duplicate_time_stamp(lines, rng):
    row = int(rng.integers(2, len(lines)))
    fields = lines[row].split(",")
    fields[0] = lines[row - 1].split(",")[0]
    lines[row] = ",".join(fields)


def _rename_header(lines, rng):
    names = lines[0].split(",")
    names[int(rng.integers(len(names)))] = ["y1", "x0", "T", "x 1", "u1"][int(rng.integers(5))]
    lines[0] = ",".join(names)


def _reorder_header(lines, rng):
    names = lines[0].split(",")
    i, j = rng.choice(len(names), size=2, replace=False)
    names[i], names[j] = names[j], names[i]
    lines[0] = ",".join(names)


def _truncate_last_line(lines, rng):
    # cut before the last comma, so at least one field goes missing or empty
    lines[-1] = lines[-1][: int(rng.integers(1, lines[-1].rindex(",") + 1))]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("damage", [
    _drop_field, _non_numeric, _nan_value, _nan_time_stamp, _duplicate_time_stamp,
    _rename_header, _reorder_header, _truncate_last_line,
])
def test_damaged_trajectory_csv_exits_3_with_one_line(capsys, tmp_path, damage, seed):
    rng = np.random.default_rng(seed)
    path = write_block_rotation_traj(tmp_path, blocks=2, steps=30, seed=seed)
    lines = path.read_text().splitlines()
    damage(lines, rng)
    path.write_text("\n".join(lines) + ("\n" if damage is not _truncate_last_line else ""))
    model = tmp_path / "model.json"
    code, out, err = run(capsys, ["fit", "--algo", "dmd", "--data", str(path),
                                  "--out", str(model)])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not model.exists()


def test_wrong_ic_width_exits_3(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj), "--out", str(model)])
    ic = tmp_path / "ic.csv"
    ic.write_text("1,2,3\n")
    code, _, err = run(capsys, ["predict", str(model), str(ic), "2"])
    assert code == 3
    assert "3" in err


def test_simulate_missing_system_parameter_exits_2(capsys):
    code, _, err = run(capsys, ["simulate", "--system", "linear", "--steps", "5"])
    assert code == 2
    assert "--a" in err


def test_fit_quadratic_edmd_eigenvalue_081_present(capsys, tmp_path):
    traj = write_quadratic_traj(capsys, tmp_path)
    code, out, _ = run(capsys, [
        "fit", "--algo", "edmd", "--dict", "poly:2",
        "--data", str(traj), "--out", str(tmp_path / "m.json"),
    ])
    assert code == 0
    _, rows = csv_rows(out)
    assert min(abs(r[1] - 0.81) for r in rows) < 1e-6


@pytest.mark.parametrize("algo", [["companion"], ["dmd"], ["edmd", "--dict", "identity"]],
                         ids=["companion", "dmd", "edmd"])
def test_singular_basis_fit_keeps_modes_and_refuses_predict(capsys, tmp_path, algo):
    # x -> shift map with a defective operator: the eigenvector basis is singular
    data = tmp_path / "shift.csv"
    data.write_text("t,x1,x2\n0,0,1\n1,1,0\n2,0,0\n")
    model = tmp_path / "model.json"
    code, out, err = run(capsys, ["fit", "--algo", *algo,
                                  "--data", str(data), "--out", str(model)])
    assert code == 0
    assert "note: eigenvector_basis_singular" in err
    assert "no modes" not in err
    residuals = json.loads(model.read_text())["fit"]["residuals"]
    assert list(residuals)[0] == "training"
    _, rows = csv_rows(out)
    assert all(row[3] == float(residuals["training"]) for row in rows)
    # the map sends (0, 1) to (1, 0), which no spectral forecast can give here
    ic = tmp_path / "ic.csv"
    ic.write_text("0,1\n")
    code, out, err = run(capsys, ["predict", str(model), str(ic), "2"])
    assert code == 4
    assert out == ""
    assert one_error_line(err) and len(err.splitlines()) == 1
    assert "eigenvector_basis_singular" in err
    code, out, _ = run(capsys, ["spectrum", str(model)])
    assert code == 0
    assert len(csv_rows(out)[1]) == 2


def test_flagged_model_without_flags_key_exits_3(capsys, tmp_path):
    # without its flags the shift map's model would forecast (0, 0) from (0, 1)
    data = tmp_path / "shift.csv"
    data.write_text("t,x1,x2\n0,0,1\n1,1,0\n2,0,0\n")
    model = tmp_path / "model.json"
    code, _, _ = run(capsys, ["fit", "--algo", "edmd", "--dict", "identity",
                              "--data", str(data), "--out", str(model)])
    assert code == 0
    payload = json.loads(model.read_text())
    assert payload.pop("flags") == ["eigenvector_basis_singular"]
    model.write_text(json.dumps(payload))
    ic = tmp_path / "ic.csv"
    ic.write_text("0,1\n")
    code, out, err = run(capsys, ["predict", str(model), str(ic), "2"])
    assert code == 3
    assert out == ""
    assert one_error_line(err) and len(err.splitlines()) == 1
    assert "'flags'" in err


@pytest.mark.parametrize("kernel", [None, "gauss\nian:1", "gauss\u2028ian:1"],
                         ids=["csv-field", "kernel-newline", "kernel-line-separator"])
def test_error_quoting_a_line_break_stays_one_line(capsys, tmp_path, kernel):
    # a quoted CSV field (exit 3) and a --kernel value (exit 2) may hold a
    # line break, which the one error line quotes escaped
    if kernel is None:
        data = tmp_path / "data.csv"
        data.write_text('t,x1,x2\n0,1,"1\n2"\n1,2,3\n')
        argv, expected = ["--algo", "dmd"], (3, r"non-numeric value '1\n2'")
    else:
        data = write_diag_traj(capsys, tmp_path)
        argv = ["--algo", "kernel-edmd", "--kernel", kernel]
        expected = (2, repr(kernel))
    code, out, err = run(capsys, ["fit", *argv, "--data", str(data),
                                  "--out", str(tmp_path / "model.json")])
    assert (code, out) == (expected[0], "")
    assert one_error_line(err) and expected[1] in err.splitlines()[-1]
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1


def one_error_line(err):
    """One ``error:`` line, after any progress notes, and no traceback."""
    lines = err.splitlines()
    return bool(lines) and lines[-1].startswith("error: ") and not any(
        line.startswith(("error", "Traceback")) for line in lines[:-1])


@pytest.mark.parametrize("row", ["nan,1", "inf,1", "1,-inf"])
def test_non_finite_initial_condition_exits_3(capsys, tmp_path, row):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj), "--out", str(model)])
    ic = tmp_path / "ic.csv"
    ic.write_text("\n" + row + "\n")
    code, out, err = run(capsys, ["predict", str(model), str(ic), "2"])
    assert code == 3
    assert out == ""
    assert one_error_line(err) and f"{ic}: line 2: non-finite value" in err


BINARY = b"t,x1\n\x00\xff\xfe\x80binary\n"


def test_binary_data_csv_exits_3(capsys, tmp_path):
    data = tmp_path / "data.csv"
    data.write_bytes(BINARY)
    model = tmp_path / "model.json"
    code, out, err = run(capsys, ["fit", "--algo", "dmd", "--data", str(data),
                                  "--out", str(model)])
    assert code == 3
    assert out == ""
    assert one_error_line(err) and "not UTF-8" in err
    assert not model.exists()


def test_binary_initial_condition_exits_3(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj), "--out", str(model)])
    ic = tmp_path / "ic.csv"
    ic.write_bytes(BINARY)
    code, out, err = run(capsys, ["predict", str(model), str(ic), "2"])
    assert code == 3
    assert out == ""
    assert one_error_line(err) and "not UTF-8" in err


BOM = b"\xef\xbb\xbf"


def test_data_csv_with_byte_order_mark_fits_as_without(capsys, tmp_path):
    plain = write_diag_traj(capsys, tmp_path)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(BOM + plain.read_bytes())
    fits = []
    for data in (plain, marked):
        model = tmp_path / f"{data.stem}.json"
        code, out, err = run(capsys, ["fit", "--algo", "dmd", "--data", str(data),
                                      "--out", str(model)])
        assert code == 0, err
        fits.append((out, json.loads(model.read_text())["matrices"]))
    assert fits[1] == fits[0]
    # one mark is dropped, and only one
    twice = tmp_path / "twice.csv"
    twice.write_bytes(BOM + marked.read_bytes())
    code, _, err = run(capsys, ["fit", "--algo", "dmd", "--data", str(twice),
                                "--out", str(tmp_path / "twice.json")])
    assert code == 3
    assert one_error_line(err) and "line 1: header must start with column 't'" in err


def test_initial_condition_with_byte_order_mark_predicts_as_without(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj), "--out", str(model)])
    plain = tmp_path / "ic.csv"
    plain.write_text("1,0.5\n")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(BOM + plain.read_bytes())
    expected = run(capsys, ["predict", str(model), str(plain), "4"])
    assert expected[0] == 0
    assert run(capsys, ["predict", str(model), str(marked), "4"]) == expected


def from_stdin(argv, cwd, data):
    """Run the CLI in a child whose standard input is a pipe carrying ``data``."""
    proc = subprocess.run([sys.executable, "-m", "dmdkit.cli", *argv], cwd=cwd,
                          input=data, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def test_fit_reads_data_from_a_pipe_as_from_a_file(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    code, expected, _ = run(capsys, ["fit", "--algo", "dmd", "--data", str(traj),
                                     "--out", str(tmp_path / "file.json")])
    assert code == 0
    code, out, err = from_stdin(["fit", "--algo", "dmd", "--data", "/dev/stdin",
                                 "--out", "pipe.json"], tmp_path, traj.read_bytes())
    assert code == 0, err
    assert out == expected
    matrices = [json.loads((tmp_path / name).read_text())["matrices"]
                for name in ("file.json", "pipe.json")]
    assert matrices[1] == matrices[0]


def test_predict_reads_initial_condition_from_a_pipe_as_from_a_file(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj),
                 "--out", str(tmp_path / "model.json")])
    (tmp_path / "ic.csv").write_text("1,0.5\n")
    code, expected, _ = run(capsys, ["predict", str(tmp_path / "model.json"),
                                     str(tmp_path / "ic.csv"), "4"])
    assert code == 0
    assert from_stdin(["predict", "model.json", "/dev/stdin", "4"], tmp_path,
                      b"1,0.5\n") == (0, expected, "")


def test_damaged_csv_from_a_pipe_names_its_line(capsys, tmp_path):
    # the fallback parse and the line search rewind a pipe's text in memory
    traj = write_diag_traj(capsys, tmp_path)
    lines = traj.read_text().splitlines()
    lines[5] = "oops," + lines[5].split(",", 1)[1]
    code, out, err = from_stdin(["fit", "--algo", "dmd", "--data", "/dev/stdin",
                                 "--out", "pipe.json"], tmp_path,
                                ("\n".join(lines) + "\n").encode())
    assert (code, out) == (3, "")
    assert one_error_line(err) and "line 6: non-numeric value 'oops'" in err
    assert not (tmp_path / "pipe.json").exists()


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="needs Linux /proc")
def test_unreadable_data_file_exits_3_as_a_read_error(capsys, tmp_path):
    # opening succeeds; reading from offset 0 fails with EIO
    code, out, err = run(capsys, ["fit", "--algo", "dmd", "--data", "/proc/self/mem",
                                  "--out", str(tmp_path / "model.json")])
    assert (code, out) == (3, "")
    assert one_error_line(err) and "cannot read trajectory file" in err


def closed_pipe(argv, cwd, lines):
    """Run the CLI with its stdout read for ``lines`` lines, then closed (``| head``)."""
    proc = subprocess.Popen([sys.executable, "-m", "dmdkit.cli", *argv], cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err


def test_predict_into_closed_pipe_ends_quietly(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj),
                 "--out", str(tmp_path / "model.json")])
    (tmp_path / "ic.csv").write_text("1,1\n")
    # 200,000 rows are far more than a pipe buffer holds
    code, err = closed_pipe(["predict", "model.json", "ic.csv", "200000"], tmp_path, 2)
    assert (code, err) == (1, b"")


def test_simulate_into_closed_pipe_ends_quietly(tmp_path):
    argv = ["simulate", "--system", "rotation", "--theta", "0.5", "--steps", "200000"]
    assert closed_pipe(argv, tmp_path, 1) == (1, b"")


def test_fit_to_missing_directory_exits_3(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "absent" / "m.json"
    code, out, err = run(capsys, ["fit", "--algo", "dmd", "--data", str(traj),
                                  "--out", str(model)])
    assert code == 3
    assert out == ""
    assert one_error_line(err) and "cannot write model file" in err
    assert not model.parent.exists()


def test_simulate_to_missing_directory_exits_3(capsys, tmp_path):
    out_path = tmp_path / "absent" / "t.csv"
    code, out, err = run(capsys, ["simulate", "--system", "rotation", "--theta", "0.5",
                                  "--steps", "5", "--out", str(out_path)])
    assert code == 3
    assert out == ""
    assert one_error_line(err) and "cannot write trajectory file" in err
    assert not out_path.parent.exists()


@pytest.mark.parametrize("a, x0", [
    ("1e300,-1e300;0,0.5", "1e10,1e10"),  # overflows to -inf
    # inf - inf: NaN with OpenBLAS, whose sum order decides it
    ("1e300,-1e300,1e300,-1e300;0,0.5,0,0;0,0,0.5,0;0,0,0,0.5", "1e10,1e10,1e10,1e10"),
])
def test_diverging_simulation_exits_4_with_one_line(a, x0):
    proc = subprocess.run(
        [sys.executable, "-m", "dmdkit.cli", "simulate", "--system", "linear",
         "--a", a, "--x0", x0, "--steps", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == "error: trajectory diverged at step 1\n"


def test_failed_model_write_leaves_no_partial_file(capsys, tmp_path, monkeypatch):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"

    def full_disk(payload, handle, **options):
        handle.write("{\n")  # the disk fills after the first piece
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(dmdkit.model_io.json, "dump", full_disk)
    code, out, err = run(capsys, ["fit", "--algo", "dmd", "--data", str(traj),
                                  "--out", str(model)])
    assert code == 3
    assert out == ""
    assert one_error_line(err) and "No space left on device" in err
    assert not model.exists()


def test_predict_to_full_disk_exits_3(capsys, tmp_path):
    traj = write_diag_traj(capsys, tmp_path)
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj),
                 "--out", str(tmp_path / "model.json")])
    (tmp_path / "ic.csv").write_text("1,1\n")
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "dmdkit.cli", "predict", "model.json", "ic.csv", "3"],
            cwd=tmp_path, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 3
    assert one_error_line(proc.stderr) and "No space left on device" in proc.stderr


@pytest.mark.parametrize("rtol", ["2", "nan", "-1"])
@pytest.mark.parametrize("algo", [
    ["companion"], ["dmd"], ["edmd", "--dict", "poly:2"],
    ["kernel-edmd", "--kernel", "gaussian:1"],
])
def test_fit_rtol_out_of_range_exits_2_before_reading_data(capsys, tmp_path, algo, rtol):
    model = tmp_path / "model.json"
    code, out, err = run(capsys, ["fit", "--algo", *algo, "--rtol", rtol,
                                  "--data", str(tmp_path / "missing.csv"),
                                  "--out", str(model)])
    assert code == 2
    assert out == ""
    assert one_error_line(err) and "rtol must lie in [0, 1)" in err
    assert not model.exists()


def test_predict_negative_steps_exits_2_before_reading_the_model(capsys, tmp_path):
    code, out, err = run(capsys, ["predict", str(tmp_path / "missing.json"),
                                  str(tmp_path / "ic.csv"), "-1"])
    assert code == 2
    assert out == ""
    assert one_error_line(err) and "steps must be non-negative" in err


def test_forecast_that_overflows_exits_4_without_rows(capsys, tmp_path):
    data = tmp_path / "grow.csv"
    run(capsys, ["simulate", "--system", "linear", "--a", "1.5,0;0,0.5", "--x0", "1,1",
                 "--steps", "10", "--out", str(data)])
    model = tmp_path / "model.json"
    run(capsys, ["fit", "--algo", "dmd", "--data", str(data), "--out", str(model)])
    ic = tmp_path / "ic.csv"
    ic.write_text("1e300,1\n")
    code, out, err = run(capsys, ["predict", str(model), str(ic), "46"])
    assert code == 0 and "inf" not in out
    code, out, err = run(capsys, ["predict", str(model), str(ic), "50"])
    assert (code, out) == (4, "")
    assert err.splitlines() == ["error: forecast step 47 is not finite: the forecast overflows"]


def test_companion_model_file_stores_the_tolerance_its_fit_applies(capsys, tmp_path):
    # the companion fit never reads --rtol; its file holds the 1e-12 it cuts at
    model = tmp_path / "model.json"
    code, _, _ = run(capsys, ["fit", "--algo", "companion", "--rtol", "0.5", "--data",
                              str(write_diag_traj(capsys, tmp_path)), "--out", str(model)])
    assert code == 0
    assert json.loads(model.read_text())["fit"]["rtol"] == 1e-12


def test_fit_of_files_with_different_time_steps_exits_3(capsys, tmp_path):
    first = write_diag_traj(capsys, tmp_path)
    second = tmp_path / "slow.csv"
    second.write_text("t,x1,x2\n0,1,1\n2,0.9,0.5\n4,0.81,0.25\n")  # dt 2, not 1
    model = tmp_path / "model.json"
    code, out, err = run(capsys, ["fit", "--algo", "dmd", "--data", str(first),
                                  "--data", str(second), "--out", str(model)])
    assert (code, out) == (3, "")
    assert one_error_line(err) and "mismatched sampling intervals" in err
    assert not model.exists()


def test_fit_of_files_sampled_alike_from_different_start_times_exits_0(capsys, tmp_path):
    # 5.1 - 5.0 reads 0.09999999999999964, not the 0.1 of 0.1 - 0.0
    first, second = tmp_path / "early.csv", tmp_path / "late.csv"
    first.write_text("t,x1,x2\n0,1,1\n0.1,0.9,0.5\n0.2,0.81,0.25\n")
    second.write_text("t,x1,x2\n5,1,1\n5.1,0.9,0.5\n5.2,0.81,0.25\n")
    model = tmp_path / "model.json"
    code, _, err = run(capsys, ["fit", "--algo", "dmd", "--data", str(first),
                                "--data", str(second), "--out", str(model)])
    assert code == 0 and "error" not in err
    assert model.exists()


@pytest.mark.parametrize("steps", [10**15, 2**62, 10**30])
def test_unallocatable_forecast_exits_2_naming_the_step_count(capsys, tmp_path, steps):
    traj = write_diag_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    run(capsys, ["fit", "--algo", "dmd", "--data", str(traj), "--out", str(model)])
    ic = tmp_path / "ic.csv"
    ic.write_text("1,1\n")
    code, out, err = run(capsys, ["predict", str(model), str(ic), str(steps)])
    assert code == 2
    assert out == ""
    assert one_error_line(err) and f"forecast of {steps} steps" in err


@pytest.mark.parametrize("system", [["linear"], ["forced-linear", "--b", "1"]])
def test_unallocatable_trajectory_exits_2_naming_the_step_count(capsys, system):
    # past the address space, so no memory is committed; the forced input
    # draw must not fail first
    steps = 10**20
    code, out, err = run(capsys, ["simulate", "--system", *system, "--a", "0.5",
                                  "--x0", "1", "--steps", str(steps)])
    assert code == 2
    assert out == ""
    assert one_error_line(err)
    assert f"a trajectory of {steps} steps is too large to allocate" in err


@pytest.mark.parametrize("hold", ["99999999999999999999", "1000000000000000000"])
def test_input_hold_far_beyond_the_steps_is_one_level(capsys, hold):
    code, out, err = run(capsys, ["simulate", "--system", "forced-linear", "--a", "0.9",
                                  "--b", "1", "--x0", "1", "--steps", "5",
                                  "--input-hold", hold])
    assert code == 0, err
    header, rows = csv_rows(out)
    assert header == ["t", "x1", "u1"] and len(rows) == 6
    assert len({row[2] for row in rows}) == 1


@pytest.mark.parametrize("algo, flag, spec", [
    ("kernel-edmd", "--kernel", "gaussian:1e200"),
    ("kernel-edmd", "--kernel", "laplacian:1e200"),
    ("kernel-edmd", "--kernel", "gaussian:1e-200"),
    ("edmd", "--dict", "rbf:1e200:5"),
    ("edmd", "--dict", "rbf:1e-200:5"),
])
def test_width_without_a_finite_positive_square_exits_2(capsys, tmp_path, algo, flag, spec):
    traj = write_quadratic_traj(capsys, tmp_path)
    model = tmp_path / "model.json"
    code, out, err = run(capsys, ["fit", "--algo", algo, flag, spec, "--data", str(traj),
                                  "--out", str(model)])
    assert code == 2
    assert out == ""
    assert one_error_line(err) and "positive finite square" in err
    assert not model.exists()


def under_address_limit(argv, cwd, limit=1 << 30, above_loaded=False):
    """Run the CLI in a child whose address space is capped at ``limit`` bytes.

    With ``above_loaded`` the cap is ``limit`` bytes above the child's size
    once it has imported the CLI (read from /proc). An allocation past the
    cap fails at once, so a test of an oversize fit asks for no real memory.
    One BLAS thread keeps the library's own buffers well inside the cap.
    """
    resource = pytest.importorskip("resource")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    base = "0"
    if above_loaded:
        if not os.path.exists("/proc/self/status"):
            pytest.skip("no /proc/self/status to read the process size from")
        base = ("next(int(line.split()[1]) * 1024 for line in open('/proc/self/status') "
                "if line.startswith('VmSize:'))")
    code = ("import resource, sys; from dmdkit.cli import main; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({base} + {limit}, {hard})); "
            "sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_oversize_polynomial_dictionary_is_refused_before_it_is_built(tmp_path):
    # poly:4 on 200 states has comb(204, 4) = 70,058,751 monomials; their
    # exponents alone take longer to enumerate than any test timeout
    traj = write_block_rotation_traj(tmp_path, blocks=100, steps=40, seed=0)
    code, out, err = under_address_limit(
        ["fit", "--algo", "edmd", "--dict", "poly:4", "--data", str(traj),
         "--out", "model.json"], tmp_path)
    assert code == 2
    assert out == ""
    assert one_error_line(err) and "70058751 monomials" in err
    assert not (tmp_path / "model.json").exists()


def test_weighted_dictionary_with_weights_past_the_double_range_exits_2(capsys, tmp_path):
    # wpoly:1100 on one state has the weight sqrt(comb(1100, 550)), and
    # comb(1100, 550) ~ 1e329 is no double; wpoly:200's largest count,
    # comb(200, 100) ~ 9e58, is
    traj = tmp_path / "one.csv"
    code, _, _ = run(capsys, ["simulate", "--system", "linear", "--a", "0.9", "--x0", "1",
                              "--steps", "20", "--out", str(traj)])
    assert code == 0
    model = tmp_path / "model.json"
    code, out, err = run(capsys, ["fit", "--algo", "edmd", "--dict", "wpoly:1100",
                                  "--data", str(traj), "--out", str(model)])
    assert code == 2
    assert out == ""
    assert one_error_line(err) and "too large for a double" in err
    assert not model.exists()
    code, _, _ = run(capsys, ["fit", "--algo", "edmd", "--dict", "wpoly:200",
                              "--data", str(traj), "--out", str(model)])
    assert code == 0 and model.exists()


def test_fit_that_cannot_be_allocated_exits_2(capsys, tmp_path):
    # the 30,000 x 30,000 Gram matrix alone needs 6.7 GiB
    code, _, _ = run(capsys, ["simulate", "--system", "rotation", "--theta", "0.5",
                              "--steps", "30000", "--out", str(tmp_path / "rot.csv")])
    assert code == 0
    code, out, err = under_address_limit(
        ["fit", "--algo", "kernel-edmd", "--kernel", "gaussian:1", "--data", "rot.csv",
         "--out", "model.json"], tmp_path)
    assert code == 2
    assert out == ""
    assert one_error_line(err) and "kernel-edmd fit" in err and "too large to allocate" in err
    assert not (tmp_path / "model.json").exists()


def test_model_file_that_cannot_be_allocated_exits_2_and_leaves_no_file(
        capsys, tmp_path, monkeypatch):
    # the fit succeeds but memory runs out while its model file is written,
    # as a 3,001 x 999 SVD DMD fit capped 275-295 MiB above the loaded CLI
    # did in base64; the partial file is removed
    traj = write_diag_traj(capsys, tmp_path)

    def short_of_memory(payload, handle, **options):
        handle.write("{")
        raise MemoryError

    monkeypatch.setattr(json, "dump", short_of_memory)
    model = tmp_path / "model.json"
    code, out, err = run(capsys, ["fit", "--algo", "dmd", "--data", str(traj),
                                  "--out", str(model)])
    assert code == 2
    assert out == ""
    assert one_error_line(err) and "dmd fit" in err and "too large to allocate" in err
    assert not model.exists()


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    """600 samples of 1,200 observables, small integers (1.4 MB of text)."""
    path = tmp_path_factory.mktemp("wide") / "wide.csv"
    values = np.random.default_rng(0).integers(0, 10, (600, 1200))
    with open(path, "w") as handle:
        handle.write("t," + ",".join(f"x{i + 1}" for i in range(1200)) + "\n")
        for k, row in enumerate(values):
            handle.write(f"{k}," + ",".join(map(str, row)) + "\n")
    return path


@pytest.mark.parametrize("margin_mb", [45, 55, 65])
def test_svd_that_leaves_openblas_no_buffer_exits_2(tmp_path, wide_csv, margin_mb):
    # Capped 45-65 MB above the loaded CLI, numpy finds room for the SVD's
    # arrays but OpenBLAS none for its own buffer; without the reservation
    # in svd_truncated, OpenBLAS prints "Memory allocation still failed
    # after 10 retries" and ends the process with exit 1
    code, out, err = under_address_limit(
        ["fit", "--algo", "dmd", "--data", str(wide_csv), "--out", "model.json"],
        tmp_path, limit=margin_mb << 20, above_loaded=True)
    assert "OpenBLAS" not in err
    assert code == 2
    assert out == ""
    assert one_error_line(err) and "the SVD of a 1200 x 599 matrix needs" in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("margin_mb", [6, 10])
def test_data_that_cannot_be_allocated_exits_2(tmp_path, wide_csv, margin_mb):
    # Capped 6 MB above the loaded CLI, the reader cannot grow its table by
    # the next piece's rows; at 10 MB the table loads but its contiguous copy
    # of the states does not fit. The pair's shape is not known yet, so the
    # message names the file
    code, out, err = under_address_limit(
        ["fit", "--algo", "dmd", "--data", str(wide_csv), "--out", "model.json"],
        tmp_path, limit=margin_mb << 20, above_loaded=True)
    assert code == 2
    assert out == ""
    assert one_error_line(err) and "too large to allocate" in err
    assert f"a dmd fit of the data in {wide_csv}" in err
    assert not (tmp_path / "model.json").exists()
