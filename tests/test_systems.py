import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dmdkit.errors import ConfigError, DivergenceError, ShapeError
from dmdkit.observables import PolynomialDictionary
from dmdkit.errors import DmdkitError
from dmdkit.systems import (
    SystemSpec,
    exact_lift_oracle,
    forced_linear_system,
    linear_system,
    quadratic_system,
    rotation_system,
    simulate,
)


def test_linear_simulation_matches_matrix_powers():
    a = np.array([[0.9, 0.2], [0.0, 0.5]])
    x0 = np.array([1.0, -1.0])
    traj = simulate(linear_system(a, x0, steps=6))
    assert traj.length == 7
    assert traj.dt == 1.0
    expected = x0
    for t in range(7):
        assert_allclose(traj.states[t], expected, rtol=0, atol=1e-14)
        expected = a @ expected

def test_quadratic_single_step_by_hand():
    traj = simulate(quadratic_system(0.9, 0.5, 1.0, x0=[1.0, 0.0], steps=1))
    assert_allclose(traj.states[1], [0.9, 1.0], rtol=0, atol=1e-15)

@pytest.mark.parametrize("mu, lam, c", [
    (0.9, 0.5, 1.0), (0.9, 0.5, 0.0), (0.0, 0.5, 1.0), (-0.7, 0.3, -2.5), (1.0, -1.0, 0.01),
])
def test_quadratic_simulation_is_its_recurrence(mu, lam, c):
    traj = simulate(quadratic_system(mu, lam, c, x0=[1.0, -0.4], steps=200))
    x1, x2 = 1.0, -0.4
    for t in range(201):
        assert traj.states[t].tolist() == [x1, x2]
        x1, x2 = mu * x1, lam * x2 + c * x1**2

def test_rotation_matches_closed_form():
    theta = 0.3
    traj = simulate(rotation_system(theta, steps=20))
    t = np.arange(21)
    assert_allclose(traj.states[:, 0], np.cos(theta * t), atol=1e-12)
    assert_allclose(traj.states[:, 1], np.sin(theta * t), atol=1e-12)

def test_rotation_first_coordinate_observation():
    traj = simulate(rotation_system(0.5, steps=10, observe="first"))
    assert traj.n_states == 1
    assert_allclose(traj.states[:, 0], np.cos(0.5 * np.arange(11)), atol=1e-12)

def test_divergence_guard_trips():
    with pytest.raises(DivergenceError):
        simulate(linear_system([[2.0]], [1.0], steps=60))

@pytest.mark.parametrize("step", [1, 255, 256, 257, 512, 700])
def test_divergence_names_its_first_step_across_check_blocks(step):
    # x doubles each step, so x0 = 1e12 / 2**step + a little first passes 1e12 at ``step``
    x0 = np.nextafter(1e12 / 2.0**step, np.inf)
    with pytest.raises(DivergenceError, match=f"diverged at step {step}$"):
        simulate(linear_system([[2.0]], [x0], steps=700))
    # the last step of the run
    with pytest.raises(DivergenceError, match=f"diverged at step {step}$"):
        simulate(linear_system([[2.0]], [x0], steps=step))
    if step > 1:
        assert simulate(linear_system([[2.0]], [x0], steps=step - 1)).length == step


def test_forced_simulation_equals_a_step_by_step_loop_across_check_blocks():
    a = np.array([[0.5, 0.1, 0.0], [-0.2, 0.7, 0.3], [0.0, 0.4, -0.6]])
    b = np.array([[1.0, 0.0], [2.0, -0.5], [0.3, 0.9]])
    traj = simulate(forced_linear_system(a, b, [1.0, -1.0, 0.5], steps=600, input_seed=5,
                                         input_hold=7))
    expected = np.empty((601, 3))
    expected[0] = [1.0, -1.0, 0.5]
    for t in range(1, 601):
        expected[t] = a @ expected[t - 1] + b @ traj.inputs[t - 1]
    assert_array_equal(traj.states, expected)


@pytest.mark.parametrize("bad", ["0.5", None, 0.5j, [0.5], float("nan"), 4.0])
@pytest.mark.parametrize("factory", [
    lambda v: rotation_system(v, 3),
    lambda v: quadratic_system(v, 0.5, 1.0, [1.0, 0.0], 3),
    lambda v: quadratic_system(0.5, v, 1.0, [1.0, 0.0], 3),
], ids=["theta", "mu", "lam"])
def test_factories_refuse_non_numeric_parameters_with_config_error(factory, bad):
    with pytest.raises(ConfigError, match="must be a real number"):
        factory(bad)

def test_forced_inputs_are_seed_reproducible():
    a = 0.8 * np.eye(2)
    b = np.array([[1.0], [0.5]])
    spec = forced_linear_system(a, b, [0.0, 0.0], steps=30, input_seed=7, input_hold=4)
    t1 = simulate(spec)
    t2 = simulate(spec)
    assert_allclose(t1.states, t2.states, rtol=0, atol=0)
    assert_allclose(t1.inputs, t2.inputs, rtol=0, atol=0)
    # held levels actually change every input_hold steps and are constant inside
    u = t1.inputs[:, 0]
    assert_allclose(u[0:4], u[0], rtol=0, atol=0)
    assert u[4] != u[3]

def test_forced_inputs_recorded_consistently_with_dynamics():
    a = np.array([[0.5, 0.1, 0.0], [-0.2, 0.7, 0.3], [0.0, 0.4, -0.6]])
    b = np.array([[1.0, 0.0], [2.0, -0.5], [0.3, 0.9]])
    traj = simulate(forced_linear_system(a, b, [1.0, -1.0, 0.5], steps=200, input_seed=3,
                                         input_hold=3))
    x = traj.states[0]
    for t in range(200):
        x = a @ x + b @ traj.inputs[t]
        assert traj.states[t + 1].tolist() == x.tolist()

@pytest.mark.parametrize("args, error", [
    (dict(a=[[np.nan]]), ShapeError),
    (dict(b_in=[[np.inf]]), ShapeError),
    (dict(x0=[]), ShapeError),
    (dict(a=np.eye(2)), ShapeError),
    (dict(b_in=np.ones((2, 1))), ShapeError),
    (dict(b_in=[1.0, 1.0]), ShapeError),
    (dict(steps=0), ConfigError),
    (dict(input_hold=0), ConfigError),
    (dict(input_seed=-1), ConfigError),
    (dict(input_scale=np.nan), ConfigError),
], ids=["a-finite", "b-finite", "x0", "a-shape", "b-rows", "b-1d-rows", "steps", "hold", "seed",
     "scale"])
def test_forced_factory_refuses_each_bad_argument(args, error):
    good = dict(a=[[0.5]], b_in=[[1.0]], x0=[1.0], steps=3)
    with pytest.raises(error):
        forced_linear_system(**{**good, **args})

GOOD_SPEC = dict(initial_state=[1.0, 2.0], steps=3, a=[[0.5, 0.0], [0.0, 0.5]])
FORCED = dict(b_in=[[1.0], [0.5]])


@pytest.mark.parametrize("fields, error, named", [
    (dict(a=np.eye(3)), ShapeError, r"^a must be 2 x 2 for an initial_state of size 2, "
                                     r"got shape \(3, 3\)$"),
    (dict(initial_state=[1.0], a=[[0.5]], c=1.0), ConfigError, "^c couples"),
    (dict(b_in=[1.0, 0.5, 0.2]), ShapeError, r"^b_in must have a row per state .*\(3, 1\)$"),
    (dict(FORCED, input_hold=0), ConfigError, "^input_hold must be an integer >= 1"),
    (dict(observe="bogus"), ConfigError, "^observe must be 'full' or 'first', got 'bogus'"),
    (dict(steps=0), ConfigError, "^steps must be an integer >= 1"),
    (dict(steps=2.5), ConfigError, "^steps must be an integer >= 1"),
    (dict(steps="3"), ConfigError, "^steps must be an integer >= 1"),
    (dict(FORCED, input_seed=-1), ConfigError, "^input_seed must be an integer >= 0"),
    (dict(FORCED, input_seed=1.5), ConfigError, "^input_seed must be an integer >= 0"),
    (dict(FORCED, input_scale=np.nan), ConfigError, "^input_scale must lie in"),
    (dict(FORCED, input_scale=-1.0), ConfigError, "^input_scale must lie in"),
    (dict(FORCED, input_scale="1"), ConfigError, "^input_scale must lie in"),
    (dict(initial_state=[1.0, np.nan]), ShapeError, "^initial_state contains non-finite"),
    (dict(a=[[0.5, np.inf], [0.0, 0.5]]), ShapeError, "^a contains non-finite"),
    (dict(b_in=[[np.nan], [0.5]]), ShapeError, "^b_in contains non-finite"),
    (dict(c=np.nan), ShapeError, "^c contains non-finite"),
    (dict(c=[1.0]), ShapeError, "^c must be 0-D"),
], ids=["a-size", "c-one-state", "b-1d-rows", "hold", "observe", "steps-0", "steps-float",
        "steps-str", "seed-negative", "seed-float", "scale-nan", "scale-negative", "scale-str",
        "x0-nan", "a-inf", "b-nan", "c-nan", "c-vector"])
def test_hand_built_spec_refuses_each_bad_field(fields, error, named):
    with pytest.raises(error, match=named) as err:
        SystemSpec(**{**GOOD_SPEC, **fields})
    assert isinstance(err.value, DmdkitError)


def test_hand_built_spec_takes_lists_and_a_1d_input_column():
    # a list initial state and a 1-D b_in, refused with raw numpy errors
    # before specs checked themselves, simulate as the factory's spec does
    spec = SystemSpec(initial_state=[1.0, 2.0], steps=20, a=[[0.9, 0.1], [0.0, 0.5]],
                      b_in=[1.0, 0.5], input_seed=3, input_hold=2)
    made = forced_linear_system([[0.9, 0.1], [0.0, 0.5]], [[1.0], [0.5]], [1.0, 2.0], 20,
                                input_seed=3, input_hold=2)
    assert spec.b_in.tobytes() == made.b_in.tobytes() and spec.b_in.shape == (2, 1)
    got, want = simulate(spec), simulate(made)
    assert got.states.tobytes() == want.states.tobytes()
    assert got.inputs.tobytes() == want.inputs.tobytes()


def test_spec_arrays_are_read_only():
    a, b_in, x0 = np.eye(2) * 0.5, np.ones((2, 1)), np.array([1.0, 2.0])
    spec = SystemSpec(initial_state=x0, steps=3, a=a, b_in=b_in)
    for name in ("initial_state", "a", "b_in"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(spec, name)[0] = 7.0
    a[0, 0] = b_in[0, 0] = x0[0] = 3.0  # the caller's arrays stay writable


def test_input_hold_past_the_samples_is_one_level():
    # every hold up to the step count repeats its levels as before, and a
    # hold far beyond it gives the one level a hold of steps + 1 gives
    a, b = 0.8 * np.eye(2), np.array([[1.0], [0.5]])
    samples = 31
    for hold in range(1, samples + 1):
        levels = np.random.default_rng(7).uniform(-1.0, 1.0, (-(-samples // hold), 1))
        spec = forced_linear_system(a, b, [0.0, 0.0], steps=samples - 1, input_seed=7,
                                    input_hold=hold)
        want = np.repeat(levels, hold, axis=0)[:samples]
        assert simulate(spec).inputs.tobytes() == want.tobytes()
    far = simulate(forced_linear_system(a, b, [0.0, 0.0], steps=samples - 1, input_seed=7,
                                        input_hold=10**20))
    assert np.all(far.inputs == far.inputs[0])
    assert far.inputs.tobytes() == want.tobytes()

@pytest.mark.parametrize("make_spec", [
    lambda steps: linear_system([[0.5]], [1.0], steps),
    lambda steps: forced_linear_system([[0.5]], [[1.0]], [1.0], steps),
], ids=["linear", "forced-linear"])
def test_unallocatable_trajectory_is_a_config_error_naming_the_steps(make_spec):
    # past the address space: refused before anything is committed
    steps = 10**20
    with pytest.raises(ConfigError, match=f"a trajectory of {steps} steps is too large"):
        simulate(make_spec(steps))

@pytest.mark.parametrize("bad", [0, -3, 2.5])
def test_step_count_validation(bad):
    with pytest.raises(ConfigError):
        linear_system(np.eye(2), [1.0, 1.0], steps=bad)

def test_parameter_validation():
    with pytest.raises(ConfigError):
        rotation_system(np.pi, steps=5)
    with pytest.raises(ConfigError):
        quadratic_system(1.2, 0.5, 1.0, [1.0, 1.0], steps=5)
    with pytest.raises(ShapeError):
        linear_system(np.eye(3), [1.0, 1.0], steps=5)
    with pytest.raises(ShapeError):
        forced_linear_system(np.eye(2), np.ones((3, 1)), [1.0, 1.0], steps=5)

def test_oracle_linear_identity_block():
    # for a diagonal A and degree 1, the lift is [[1, 0], [0, A]] up to ordering
    a = np.diag([0.9, 0.5])
    spec = linear_system(a, [1.0, 1.0], steps=2)
    lift = exact_lift_oracle(spec, PolynomialDictionary(2, 1))
    assert lift is not None
    assert lift.names == ("1", "x1", "x2")
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    expected[1:, 1:] = a
    assert_allclose(lift.matrix, expected, rtol=0, atol=1e-15)

def test_oracle_quadratic_invariant_subset():
    spec = quadratic_system(0.9, 0.5, 1.0, x0=[1.0, -0.4], steps=2)
    lift = exact_lift_oracle(spec, PolynomialDictionary(2, 2))
    assert lift is not None
    # the full degree-2 basis does not close (x1*x2 maps through x1^3),
    # so the oracle keeps exactly {1, x1, x2, x1^2}
    assert lift.names == ("1", "x1", "x2", "x1^2")
    eigs = np.sort(np.linalg.eigvals(lift.matrix).real)
    assert_allclose(eigs, [0.5, 0.81, 0.9, 1.0], rtol=0, atol=1e-12)

def test_oracle_quadratic_matrix_by_hand():
    mu, lam, c = 0.9, 0.5, 1.0
    spec = quadratic_system(mu, lam, c, x0=[1.0, -0.4], steps=2)
    lift = exact_lift_oracle(spec, PolynomialDictionary(2, 2))
    expected = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, mu, 0.0, 0.0],
        [0.0, 0.0, lam, c],
        [0.0, 0.0, 0.0, mu ** 2],
    ])
    assert_allclose(lift.matrix, expected, rtol=0, atol=1e-15)

def test_oracle_unavailable_when_state_drops_out():
    # degree 1 cannot express x1^2, so x2 has no closed image and the
    # state monomials do not survive the pruning
    spec = quadratic_system(0.9, 0.5, 1.0, x0=[1.0, -0.4], steps=2)
    assert exact_lift_oracle(spec, PolynomialDictionary(2, 1)) is None

def _assert_lifts_trajectory(spec, dictionary, lift):
    theta = dictionary.transform(simulate(spec).states.T)[lift.indices]
    assert_allclose(theta[:, 1:], lift.matrix @ theta[:, :-1], rtol=0, atol=1e-12)

def test_oracle_consistency_along_trajectory():
    spec = quadratic_system(0.9, 0.5, 0.8, x0=[1.0, -0.4], steps=15)
    dictionary = PolynomialDictionary(2, 2)
    _assert_lifts_trajectory(spec, dictionary, exact_lift_oracle(spec, dictionary))

def test_oracle_drops_zero_coefficients():
    # c = 0: x2 maps to lam*x2 alone, so degree 1 closes
    spec = quadratic_system(0.9, 0.5, 0.0, x0=[1.0, -0.4], steps=20)
    dictionary = PolynomialDictionary(2, 1)
    lift = exact_lift_oracle(spec, dictionary)
    assert lift.names == ("1", "x1", "x2")
    assert lift.matrix.tolist() == np.diag([1.0, 0.9, 0.5]).tolist()
    _assert_lifts_trajectory(spec, dictionary, lift)
    # mu = 0: x1*x2 maps to 0, not through x1^3
    spec = quadratic_system(0.0, 0.5, 1.0, x0=[1.0, -0.4], steps=20)
    dictionary = PolynomialDictionary(2, 2)
    lift = exact_lift_oracle(spec, dictionary)
    assert lift.names == ("1", "x1", "x2", "x1^2", "x1*x2")
    eigs = np.sort(np.linalg.eigvals(lift.matrix).real)
    assert_allclose(eigs, [0.0, 0.0, 0.0, 0.5, 1.0], rtol=0, atol=1e-12)
    _assert_lifts_trajectory(spec, dictionary, lift)

def test_oracle_weighted_dictionary_is_similarity_transform():
    spec = quadratic_system(0.9, 0.5, 1.0, x0=[1.0, -0.4], steps=2)
    plain = exact_lift_oracle(spec, PolynomialDictionary(2, 2))
    weighted = exact_lift_oracle(spec, PolynomialDictionary(2, 2, weighted=True))
    assert weighted.names == plain.names
    # same spectrum, and consistency holds in the weighted basis too
    assert_allclose(
        np.sort(np.linalg.eigvals(weighted.matrix).real),
        np.sort(np.linalg.eigvals(plain.matrix).real),
        atol=1e-12,
    )
    dictionary = PolynomialDictionary(2, 2, weighted=True)
    traj = simulate(spec)
    theta = dictionary.transform(traj.states.T)[weighted.indices]
    assert_allclose(theta[:, 1:], weighted.matrix @ theta[:, :-1], rtol=0, atol=1e-12)

def test_oracle_rotation_full_state():
    theta = 0.4
    spec = rotation_system(theta, steps=3)
    lift = exact_lift_oracle(spec, PolynomialDictionary(2, 1))
    eigs = np.linalg.eigvals(lift.matrix)
    expected = np.sort_complex(np.array([1.0, np.exp(1j * theta), np.exp(-1j * theta)]))
    assert_allclose(np.sort_complex(eigs), expected, atol=1e-12)

def test_oracle_rejects_partial_observation():
    spec = rotation_system(0.4, steps=3, observe="first")
    with pytest.raises(ConfigError, match="needs the full rotation state"):
        exact_lift_oracle(spec, PolynomialDictionary(2, 1))

def test_oracle_rejects_forced_system():
    spec = forced_linear_system(np.eye(2) * 0.5, np.ones((2, 1)), [1.0, 1.0], steps=3)
    with pytest.raises(ConfigError, match="no exact lift"):
        exact_lift_oracle(spec, PolynomialDictionary(2, 1))
