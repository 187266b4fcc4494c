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
``identity`` | ``poly:<degree>`` | ``rbf:<width>:<centers>`` for dictionaries,
``poly:<degree>`` | ``gaussian:<sigma>`` | ``laplacian:<sigma>`` for kernels.
``rbf:<width>:<centers>`` is Gaussian sections at strided training columns,
so its dictionary's spec string is its kernel's, ``gaussian:<width>``, like
every ``KernelDictionary``'s. A width or sigma is refused unless its square
is a positive finite double.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np

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

    kind: str = ""

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
        raise ConfigError(f"{self.kind} dictionaries have no spec-string form")


class IdentityDictionary(Dictionary):
    """The state coordinates themselves (no constant)."""

    kind = "identity"

    def __init__(self, input_dim: int):
        names = tuple(f"x{i}" for i in range(1, input_dim + 1))
        super().__init__(input_dim, input_dim, names)

    def _transform_columns(self, cols):
        return cols.copy()

    def spec_string(self):
        return "identity"


def monomial_exponents(input_dim: int, degree: int) -> np.ndarray:
    """All exponent tuples with total degree <= degree.

    Ordered by total degree, then lexicographically descending within a
    degree with x1 ranked highest: for two variables and degree 2 that is
    1, x1, x2, x1^2, x1*x2, x2^2.
    """

    def grade(nvars, total):
        if nvars == 1:
            return [(total,)]
        out = []
        for first in range(total, -1, -1):
            out.extend((first,) + rest for rest in grade(nvars - 1, total - first))
        return out

    rows = []
    for total in range(degree + 1):
        rows.extend(grade(input_dim, total))
    return np.array(rows, dtype=int)


def _monomial_parents(exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parent row and multiplying variable of each monomial after the constant.

    The parent drops one power of the monomial's last nonzero variable, so
    row i is row parents[i] times variable variables[i]; entry 0 is unused.
    """
    index = {tuple(e): i for i, e in enumerate(exps.tolist())}
    parents = np.zeros(len(exps), dtype=int)
    variables = np.zeros(len(exps), dtype=int)
    for i, e in enumerate(exps.tolist()[1:], start=1):
        var = max(j for j, k in enumerate(e) if k)
        e[var] -= 1
        parents[i], variables[i] = index[tuple(e)], var
    return parents, variables


def _monomial_name(exponents) -> str:
    parts = []
    for i, e in enumerate(exponents, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


class PolynomialDictionary(Dictionary):
    """Monomials of total degree <= degree, optionally multinomially weighted.

    The weighted variant scales each monomial by the square root of its
    multinomial coefficient in the expansion of (1 + a.b)^degree, making the
    dictionary an explicit feature map for the polynomial kernel.

    Monomials are built by recurrence, not by powers: each one after the
    constant is its parent, the monomial with one power less of its last
    variable, times that variable. The exponent table is graded by degree,
    so every parent of a degree-k monomial has degree k - 1, and a whole
    degree is one gather and one multiply. A degree-k entry is thus a chain
    of k - 1 rounded products (the first, 1 * x, is exact), within about
    (k - 1) * 2^-53 relative of the exact monomial, and a column gives the
    same bits alone or in a batch. The weights are applied last. A
    dictionary whose size x n exponents and 2 x size x ``columns`` lifted
    pair cannot be allocated is refused before it is built.
    """

    kind = "polynomial"

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
        exps = monomial_exponents(input_dim, degree)
        super().__init__(input_dim, len(exps), tuple(_monomial_name(e) for e in exps))
        self.degree = int(degree)
        self.weighted = bool(weighted)
        self.exponents = exps
        self._parents, self._variables = _monomial_parents(exps)
        self._grade_ends = np.searchsorted(exps.sum(axis=1), np.arange(degree + 1), "right")
        if weighted:
            weights = []
            for e in exps:
                rest = factorial(degree - int(e.sum()))
                for k in e:
                    rest *= factorial(int(k))
                weights.append(np.sqrt(factorial(degree) / rest))
            self.weights = np.array(weights)
        else:
            self.weights = np.ones(len(exps))

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

    kind = "custom"

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

    kind: str = ""

    def gram(self, a_cols, b_cols) -> np.ndarray:
        """Matrix of k(a_i, b_j) over the columns of the two arguments."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


class PolynomialKernel(Kernel):
    """k(a, b) = (1 + a.b) ** degree."""

    kind = "polynomial"

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

    kind = "gaussian"

    def __init__(self, sigma: float):
        self.sigma = _width(sigma, "gaussian kernel")

    def gram(self, a_cols, b_cols):
        return np.exp(-_sq_dists(a_cols, b_cols) / self.sigma**2)

    def spec_string(self):
        return f"gaussian:{self.sigma:.17g}"


class LaplacianKernel(Kernel):
    """k(a, b) = exp(-||a - b|| / sigma^2), the unsquared-distance variant."""

    kind = "laplacian"

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
    the kernel's; the points are data, stored beside it.
    """

    kind = "kernel"

    def __init__(self, kernel: Kernel, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.size == 0 or not np.all(np.isfinite(points)):
            raise ShapeError("points must be a non-empty finite (dim, n_points) array")
        names = tuple(f"k{j}" for j in range(1, points.shape[1] + 1))
        super().__init__(points.shape[0], points.shape[1], names)
        self.kernel = kernel
        self.points = points

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
