"""Observable dictionaries and kernels for lifted regression.

A dictionary maps a state vector to a vector of features; fitting code
applies it columnwise to snapshot matrices. Every fitted model holds one:
the identity (DMD), an explicit lift (EDMD) or kernel sections k(p_j, .) at
fixed points (``KernelDictionary``: kernel EDMD's training snapshots, or the
centers of an rbf dictionary). Kernels evaluate inner products of implicitly
lifted vectors, so an n-snapshot problem never forms the lifted matrix. The
weighted polynomial dictionary is built so that
``theta_w(a) . theta_w(b) == (1 + a.b) ** degree`` exactly, which ties the
explicit and kernelized fits together and is tested as such.

Spec-string grammar (used by the CLI and model files), parsed only here:
``identity`` | ``poly:<degree>`` | ``wpoly:<degree>`` | ``rbf:<width>:<centers>``
for dictionaries (``wpoly`` is the weighted polynomial one), ``poly:<degree>`` |
``gaussian:<sigma>`` | ``laplacian:<sigma>`` for kernels.
``rbf:<width>:<centers>`` is Gaussian sections at strided training columns,
so its dictionary's spec string is its kernel's, ``gaussian:<width>``, like
every ``KernelDictionary``'s. A width or sigma is refused unless its square
is a positive finite double.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .data import _finite_array, _freeze
from .errors import ConfigError, ShapeError


def _as_columns(z, input_dim: int) -> tuple[np.ndarray, bool]:
    """Coerce to (input_dim, m) columns; flag whether input was a single vector."""
    arr = np.asarray(z, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != input_dim:
        raise ShapeError(
            f"expected vectors of dimension {input_dim}, got array of shape {np.shape(z)}"
        )
    return arr, single


class Dictionary:
    """Base class: a named, fixed-size family of scalar observables."""

    def __init__(self, input_dim: int, size: int, names: tuple[str, ...]):
        if input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {input_dim}")
        self.input_dim = int(input_dim)
        self.size = int(size)
        self.names = tuple(names)

    def transform(self, z) -> np.ndarray:
        """Evaluate the dictionary on a vector or columnwise on a matrix."""
        cols, single = _as_columns(z, self.input_dim)
        out = self._transform_columns(cols)
        return out[:, 0] if single else out

    def _transform_columns(self, cols: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise ConfigError(f"{type(self).__name__} has no spec-string form")


class IdentityDictionary(Dictionary):
    """The state coordinates themselves (no constant)."""

    def __init__(self, input_dim: int):
        names = tuple(f"x{i}" for i in range(1, input_dim + 1))
        super().__init__(input_dim, input_dim, names)

    def _transform_columns(self, cols):
        return cols.copy()

    def spec_string(self):
        return "identity"


def _monomials(input_dim: int, degree: int):
    """Names, exponents, parents, variables, counts and grade ends of all
    monomials of total degree <= degree, built in one pass.

    Degree k is each degree-(k - 1) monomial times its last variable, then
    times each later one: graded, then lexicographically descending with x1
    highest, the order of ``itertools.combinations_with_replacement``. Row i
    is row parents[i] times variable variables[i] (entry 0 is unused),
    counts[i] its multinomial coefficient in (1 + a.b)^degree, exact below
    its cap of 2^1024, and ends[k] is one past the last row of degree k.
    """
    names, powers = [""], [0]  # the constant is named at the end
    parents, variables, counts, ends = [0], [0], [1], [0, 1]
    cap = 2**1024  # no double holds it, so a weighted dictionary with it is refused
    for k in range(1, degree + 1):
        for p in range(ends[-2], ends[-1]):
            for v in range(variables[p], input_dim):
                # the power of v, and the parent's name less any factor of v
                power = powers[p] + 1 if v == variables[p] else 1
                stem = names[p].rpartition("*")[0] if power > 1 else names[p]
                factor = f"x{v + 1}" if power == 1 else f"x{v + 1}^{power}"
                names.append(f"{stem}*{factor}" if stem else factor)
                powers.append(power)
                parents.append(p)
                variables.append(v)
                counts.append(min(counts[p] * (degree - k + 1) // power, cap))
        ends.append(len(names))
    names[0] = "1"
    parents, variables, ends = np.array(parents), np.array(variables), np.array(ends[1:])
    exps = np.zeros((len(names), input_dim), dtype=int)
    for lo, hi in zip(ends[:-1], ends[1:]):
        exps[lo:hi] = exps[parents[lo:hi]]
        exps[np.arange(lo, hi), variables[lo:hi]] += 1
    return tuple(names), exps, parents, variables, counts, ends


class PolynomialDictionary(Dictionary):
    """Monomials of total degree <= degree, optionally multinomially weighted.

    Names, exponents, parents and multinomial counts come from one pass of
    ``_monomials``. The weighted variant (spec ``wpoly``) scales each
    monomial by the square root of its count, its coefficient in (1 + a.b)^degree,
    making the dictionary an explicit feature map for the polynomial kernel.
    It is refused when a count does not convert to a finite double.

    Monomials are lifted by recurrence, not by powers: each one after the
    constant is its parent, the monomial with one power less of its last
    variable, times that variable. Every parent of a degree-k monomial has
    degree k - 1, so a whole degree is one gather and one multiply. A
    degree-k entry is thus a chain of k - 1 rounded products (the first,
    1 * x, is exact), within about (k - 1) * 2^-53 relative of the exact
    monomial, and a column gives the same bits alone or in a batch. The
    weights are applied last. A dictionary whose size x n exponents and
    2 x size x ``columns`` lifted pair cannot be allocated is refused before
    it is built.
    """

    def __init__(self, input_dim: int, degree: int, weighted: bool = False,
                 columns: int = 0):
        if not isinstance(degree, (int, np.integer)) or degree < 1:
            raise ConfigError(f"polynomial degree must be an integer >= 1, got {degree}")
        size = comb(input_dim + degree, degree)
        try:  # the exponent table and a lifted pair, tried before any exponent is built
            np.empty((size, input_dim + 2 * columns))
        except (MemoryError, ValueError, OverflowError):
            raise ConfigError(f"a degree-{degree} polynomial dictionary on {input_dim} states "
                              f"has {size} monomials, too many to allocate for {columns} "
                              "snapshot columns") from None
        names, exps, self._parents, self._variables, counts, self._grade_ends = \
            _monomials(input_dim, degree)
        super().__init__(input_dim, len(names), names)
        self.degree = int(degree)
        self.weighted = bool(weighted)
        self.exponents = exps
        self.weights = np.ones(len(names))
        if weighted:
            try:
                self.weights = np.sqrt(np.array(counts, dtype=float))
            except OverflowError:
                raise ConfigError(f"weighted degree-{degree} monomials on {input_dim} states "
                                  "have weights too large for a double") from None

    def _transform_columns(self, cols):
        out = np.empty((self.size, cols.shape[1]))
        out[0] = 1.0
        ends = self._grade_ends
        for lo, hi in zip(ends[:-1], ends[1:]):
            np.multiply(out[self._parents[lo:hi]], cols[self._variables[lo:hi]],
                        out=out[lo:hi])
        return self.weights[:, None] * out

    def spec_string(self):
        return f"{'wpoly' if self.weighted else 'poly'}:{self.degree}"


class CustomDictionary(Dictionary):
    """A user-supplied list of (name, callable) scalar observables."""

    def __init__(self, input_dim: int, functions):
        functions = list(functions)
        if not functions:
            raise ConfigError("custom dictionary needs at least one function")
        names, funcs = zip(*functions)
        super().__init__(input_dim, len(funcs), tuple(names))
        self.functions = tuple(funcs)

    def _transform_columns(self, cols):
        out = np.empty((self.size, cols.shape[1]))
        for j in range(cols.shape[1]):
            z = cols[:, j]
            out[:, j] = [f(z) for f in self.functions]
        return out


def strided_centers(snapshots, n_centers: int) -> np.ndarray:
    """Uniformly strided subsample of snapshot columns, as center rows."""
    x = np.asarray(snapshots, dtype=float)
    m = x.shape[1]
    if n_centers < 1 or n_centers > m:
        raise ConfigError(f"need 1 <= n_centers <= {m} snapshots, got {n_centers}")
    idx = np.round(np.linspace(0, m - 1, n_centers)).astype(int)
    return x[:, idx].T.copy()


# --------------------------------------------------------------------- kernels


class Kernel:
    """Base class: inner products of implicitly lifted vectors."""

    def gram(self, a_cols, b_cols) -> np.ndarray:
        """Matrix of k(a_i, b_j) over the columns of the two arguments."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


class PolynomialKernel(Kernel):
    """k(a, b) = (1 + a.b) ** degree."""

    def __init__(self, degree: int):
        if not isinstance(degree, (int, np.integer)) or degree < 1:
            raise ConfigError(f"polynomial degree must be an integer >= 1, got {degree}")
        self.degree = int(degree)

    def gram(self, a_cols, b_cols):
        a = np.asarray(a_cols, dtype=float)
        b = np.asarray(b_cols, dtype=float)
        return (1.0 + a.T @ b) ** self.degree

    def spec_string(self):
        return f"poly:{self.degree}"

    def explicit_dictionary(self, input_dim: int) -> PolynomialDictionary:
        """The weighted monomial dictionary whose inner products equal this kernel."""
        return PolynomialDictionary(input_dim, self.degree, weighted=True)


def _width(width, what: str) -> float:
    """A kernel width whose square is a positive finite double."""
    width = float(width)
    if not (width > 0 and 0 < width * width < np.inf):
        raise ConfigError(
            f"{what} width must be positive with a positive finite square, got {width}")
    return width


def _sq_dists(a_cols, b_cols):
    a = np.asarray(a_cols, dtype=float)
    b = np.asarray(b_cols, dtype=float)
    sq = np.sum(a * a, axis=0)[:, None] + np.sum(b * b, axis=0)[None, :] - 2.0 * (a.T @ b)
    return np.maximum(sq, 0.0)


class GaussianKernel(Kernel):
    """k(a, b) = exp(-||a - b||^2 / sigma^2)."""

    def __init__(self, sigma: float):
        self.sigma = _width(sigma, "gaussian kernel")

    def gram(self, a_cols, b_cols):
        return np.exp(-_sq_dists(a_cols, b_cols) / self.sigma**2)

    def spec_string(self):
        return f"gaussian:{self.sigma:.17g}"


class LaplacianKernel(Kernel):
    """k(a, b) = exp(-||a - b|| / sigma^2), the unsquared-distance variant."""

    def __init__(self, sigma: float):
        self.sigma = _width(sigma, "laplacian kernel")

    def gram(self, a_cols, b_cols):
        return np.exp(-np.sqrt(_sq_dists(a_cols, b_cols)) / self.sigma**2)

    def spec_string(self):
        return f"laplacian:{self.sigma:.17g}"


class KernelDictionary(Dictionary):
    """Kernel sections k(p_j, .) at fixed points p_j, the columns of ``points``.

    Kernel EDMD's features are its training snapshots' sections, and an rbf
    dictionary is Gaussian sections at strided centers. The spec string is
    the kernel's; the points are data, stored beside it, read-only.
    """

    def __init__(self, kernel: Kernel, points):
        points = _finite_array(points, "points", 2)
        names = tuple(f"k{j}" for j in range(1, points.shape[1] + 1))
        super().__init__(points.shape[0], points.shape[1], names)
        self.kernel = kernel
        self.points = _freeze(points)

    def _transform_columns(self, cols):
        return self.kernel.gram(self.points, cols)

    def spec_string(self):
        return self.kernel.spec_string()


# --------------------------------------------------------------- spec parsing


def _split_spec(spec: str, arity: int, usage: str) -> list[str]:
    parts = str(spec).strip().split(":")
    if len(parts) != arity:
        raise ConfigError(f"malformed spec '{spec}' (expected {usage})")
    return parts


def _parse_number(text: str, spec: str, integer: bool = False):
    try:
        return int(text) if integer else float(text)
    except ValueError:
        kind = "integer" if integer else "number"
        raise ConfigError(f"malformed spec '{spec}': '{text}' is not a {kind}") from None


def parse_kernel(spec: str) -> Kernel:
    """Build a kernel from its spec string."""
    head = str(spec).strip().split(":")[0]
    if head == "poly":
        (_, deg) = _split_spec(spec, 2, "poly:<degree>")
        return PolynomialKernel(_parse_number(deg, spec, integer=True))
    if head == "gaussian":
        (_, sig) = _split_spec(spec, 2, "gaussian:<sigma>")
        return GaussianKernel(_parse_number(sig, spec))
    if head == "laplacian":
        (_, sig) = _split_spec(spec, 2, "laplacian:<sigma>")
        return LaplacianKernel(_parse_number(sig, spec))
    raise ConfigError(f"unknown kernel kind '{head}' in spec '{spec}'")


def build_dictionary(spec: str, input_dim: int, snapshots=None) -> Dictionary:
    """Build a dictionary from its spec string, binding dimensions (and, for
    rbf, centers subsampled from the training snapshots)."""
    head = str(spec).strip().split(":")[0]
    if head == "identity":
        _split_spec(spec, 1, "identity")
        return IdentityDictionary(input_dim)
    if head in ("poly", "wpoly"):
        (_, deg) = _split_spec(spec, 2, f"{head}:<degree>")
        degree = _parse_number(deg, spec, integer=True)
        columns = 0 if snapshots is None else np.shape(snapshots)[1]
        return PolynomialDictionary(input_dim, degree, weighted=(head == "wpoly"),
                                    columns=columns)
    if head == "rbf":
        (_, width, count) = _split_spec(spec, 3, "rbf:<width>:<centers>")
        if snapshots is None:
            raise ConfigError("rbf dictionary needs training snapshots to pick centers")
        kernel = GaussianKernel(_parse_number(width, spec))
        centers = strided_centers(snapshots, _parse_number(count, spec, integer=True))
        return KernelDictionary(kernel, centers.T)
    raise ConfigError(f"unknown dictionary kind '{head}' in spec '{spec}'")
