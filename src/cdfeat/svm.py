"""Binary soft-margin SVM: kernels, an SMO dual solver, and cross-validation.

The solver optimizes the standard dual
    min 1/2 a'Qa - sum(a)   s.t.  0 <= a_i <= C,  sum(a_i y_i) = 0
with maximal-violating-pair working-set selection, so the stopping measure is
the largest KKT violation. With s = -y*grad, the solver's state is one (2, n)
violation matrix: row 0 holds s on I_up and -inf elsewhere, row 1 holds -s on
I_low and -inf elsewhere. One argmax per row picks the pair; a step changes
two multipliers, rewrites their entries when they enter or leave I_up/I_low,
and subtracts their two scaled kernel rows from row 0 and adds them to row 1.
Everything is deterministic: argmax ties resolve to the lowest index and no
randomness enters the solve.

A trained SVM's decision sum_s coef_s k(s, f) + bias is, for a linear or
polynomial kernel, exactly a polynomial in f: with a multi-index a over the
feature components,
    (g f.s + c0)^d = sum_{|a| <= d} d!/(a! (d - |a|)!) c0^(d - |a|) g^|a| f^a s^a,
so the decision is sum_a W_a f^a + bias, W_a being that coefficient times
sum_s coef_s s^a; linear is d = 1, g = 1, c0 = 0. `decision_forms` builds
these forms, and a model keeps each SVM's column as an `SvmForm` in place of
the SVM (`multiclass.kept_pairs`). On the 1 or 2 features of a scalar_kl or
dual_kl pair there are d + 1 or (d + 1)(d + 2)/2 monomials (6 for poly2 on 2
features), so a decision costs a handful of products instead of a sum over
every support vector, and a form is a handful of numbers. `decision_batch`
runs the kernel expansion itself, the only path for rbf; `decision` is its
one-row call. Kernel values that overflow float64 are refused with a
ValueError, not passed on as inf or NaN.

`real` and `integer` are the one rule for each kind of scalar setting: the
library's constructors, the model loader and the CLI's option types all call
them, so none of them can accept a number another refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from numbers import Integral, Real

import numpy as np

from .record import Record

KERNEL_KINDS = ("linear", "polynomial", "rbf")

# The solver reads kernel rows through one accessor, `_kernel_rows`, with two
# stores: one full Gram matrix up to the largest sample count whose n x n
# float64 Gram fits in DEFAULT_CACHE_BYTES (5792 rows), an LRU row cache of
# at most DEFAULT_CACHE_BYTES above it. Both are read at call time. The full
# Gram is one matrix product where the cache makes one per row: forcing the
# cache on every solve (FULL_GRAM_LIMIT = 0) slowed the TF-IDF baseline's
# pair training from 53 to 130 ms on the benchmark's digits draw and from 113
# to 288 ms on its news draw (median of 7, 2-vCPU Xeon). Training runs one
# solver at a time, so this also bounds the kernel memory of a whole training run.
DEFAULT_CACHE_BYTES = 256 * 2**20
FULL_GRAM_LIMIT = math.isqrt(DEFAULT_CACHE_BYTES // 8)

# SMO stopping rule of every trainer: stop when the largest KKT violation is
# at most DEFAULT_TOL, or after DEFAULT_MAX_PASSES * n pair updates.
DEFAULT_TOL = 1e-3
DEFAULT_MAX_PASSES = 10


# The largest polynomial kernel degree (common ones are 2 to 5). A dual_kl
# decision form has (d + 1)(d + 2)/2 monomials, which `monomial_exponents`
# enumerates in 1.4 ms at d = 32 and 36 ms at d = 100 (2-vCPU Xeon); and the
# kernel values (g u.v + c0)^d overflow float64 above a base of 10^(308/d).
MAX_DEGREE = 32


def real(name: str, value, above=None) -> float:
    """`value` as a float if it is a finite int, float or numpy scalar of
    either, and > `above` when given; ValueError otherwise. A bool is not a
    number, and an int beyond float range is not finite."""
    is_real = isinstance(value, Real) and not isinstance(value, bool)
    try:
        number = float(value) if is_real else math.nan
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and (above is None or number > above)):
        bound = "" if above is None else f" > {above}"
        raise ValueError(f"{name} must be a finite real{bound}, got {value!r}")
    return number


def integer(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """`value` as an int if it is an int or numpy integer >= `minimum` and,
    when given, <= `maximum`; ValueError otherwise. A bool is not a number."""
    if (isinstance(value, bool) or not isinstance(value, Integral) or value < minimum
            or (maximum is not None and value > maximum)):
        bound = f">= {minimum}" + ("" if maximum is None else f" and <= {maximum}")
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def check_svm_settings(c, tol, max_passes) -> None:
    """ValueError unless `c` and `tol` are reals > 0 and `max_passes` an integer >= 1."""
    real("c", c, 0)
    real("tol", tol, 0)
    integer("max_passes", max_passes, 1)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel function selector. gamma=None means 1/dim, resolved at training."""

    kind: str
    degree: int = 2
    gamma: float | None = None
    coef0: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        object.__setattr__(self, "degree", integer("degree", self.degree, 1, MAX_DEGREE))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", real("gamma", self.gamma, 0))
        object.__setattr__(self, "coef0", real("coef0", self.coef0))

    def resolve(self, dim: int) -> "KernelSpec":
        """Fill in gamma = 1/dim when left unset."""
        if self.kind == "linear" or self.gamma is not None:
            return self
        return replace(self, gamma=1.0 / dim)


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel values for every row of `a` against every row of `b`; ValueError
    if one overflows float64."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"kernel arguments differ in length: {a.shape[1]} vs {b.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _kernel_of_dots(spec, a @ b.T, a, b)


def rowwise_kernel_matrix(spec: KernelSpec, a, b) -> np.ndarray:
    """`kernel_matrix(spec, a, b)` with every dot product a reduction along
    one C-contiguous row (einsum, not BLAS, whose blocking depends on the
    matrix shape), so a row of `a` gets the same bits whatever the number of
    rows in the call."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return _kernel_of_dots(spec, np.einsum("ij,kj->ik", a, b), a, b)


def _kernel_of_dots(spec: KernelSpec, dots, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel values from `dots`, the dot products of the rows of `a` and `b`;
    ValueError if one is not finite. Callers compute `dots` and call it with
    overflow ignored, so a value that overflows float64 is refused here
    instead of printing a numpy warning."""
    if spec.kind == "linear":
        k = dots
    elif spec.gamma is None:
        raise ValueError("gamma unresolved; call KernelSpec.resolve(dim) first")
    elif spec.kind == "polynomial":
        k = (spec.gamma * dots + spec.coef0) ** spec.degree
    else:
        sq = (
            np.sum(a * a, axis=1)[:, None]
            - 2.0 * dots
            + np.sum(b * b, axis=1)[None, :]
        )
        k = np.exp(-spec.gamma * np.maximum(sq, 0.0))
    if not np.isfinite(k).all():
        raise ValueError(f"kernel values overflow float64 under {spec}")
    return k


def _kernel_rows(spec: KernelSpec, x: np.ndarray):
    """row(i), the kernel values of training row i against every row of x.

    Up to FULL_GRAM_LIMIT rows the rows are views of one full Gram matrix;
    above it each row is computed on first use and kept in an LRU cache of
    max(2, DEFAULT_CACHE_BYTES // (8 * n)) rows.
    """
    n = x.shape[0]
    if n <= FULL_GRAM_LIMIT:
        return kernel_matrix(spec, x, x).__getitem__

    @lru_cache(maxsize=max(2, DEFAULT_CACHE_BYTES // (8 * n)))
    def row(i: int) -> np.ndarray:
        return kernel_matrix(spec, x[i : i + 1], x)[0]

    return row


def check_solution(svm, coef_shape) -> None:
    """ValueError unless `svm`'s bias, c, iterations and kkt_violation_max are
    valid, and its `coef` has `coef_shape` and is a dual solution: within the
    box |alpha| <= C, summing to zero."""
    co = svm.coef
    real("bias", svm.bias)
    real("c", svm.c, 0)
    integer("iterations", svm.iterations, 0)
    real("kkt_violation_max", svm.kkt_violation_max)
    if co.shape != coef_shape:
        raise ValueError("one coefficient per support vector required")
    # Written as "not <=" so that a NaN or infinite coefficient fails too.
    if not np.all(np.abs(co) <= svm.c * (1 + 1e-9) + 1e-12):
        raise ValueError("coefficients must be finite and within the box |alpha| <= C")
    if not abs(float(np.sum(co))) <= 1e-6:
        raise ValueError("dual equality constraint sum(alpha_i y_i) = 0 violated")


@dataclass(frozen=True, eq=False)
class SvmModel(Record):
    """Trained binary SVM: support vectors, alpha_i*y_i coefficients, bias."""

    support_vectors: np.ndarray
    coef: np.ndarray
    bias: float
    kernel: KernelSpec
    c: float
    iterations: int
    kkt_violation_max: float

    ARRAYS = {"support_vectors": float, "coef": float}

    def __post_init__(self):
        super().__post_init__()
        if self.support_vectors.ndim != 2:
            raise ValueError(f"support vectors must be a 2-D array, got shape "
                             f"{self.support_vectors.shape}")
        check_solution(self, self.support_vectors.shape[:1])

    @property
    def support_count(self) -> int:
        return self.coef.size


def smo_train(
    x,
    y,
    c: float,
    spec: KernelSpec,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
) -> SvmModel:
    """Train a binary SVM by SMO.

    `y` holds +/-1 labels; `max_passes` bounds the work at max_passes * n
    pair updates. The state is the violation matrix v of the module doc.
    A step reads only two multipliers and labels, so those are Python
    floats, and it solves its two-variable subproblem in Python floats (the
    same float64 arithmetic) before it updates v in place. Negation is
    exact, so the result has the bits of a full-gradient update every step.
    """
    check_svm_settings(c, tol, max_passes)
    x = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] != yv.shape[0]:
        raise ValueError("x must be 2-D with one label per row")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature values")
    if not np.all(np.abs(yv) == 1.0):
        raise ValueError("labels must be +1 or -1")
    if np.all(yv == yv[0]):
        raise ValueError("training needs at least one sample of each label")

    n = x.shape[0]
    spec = spec.resolve(x.shape[1])
    row = _kernel_rows(spec, x)

    c, tol = float(c), float(tol)
    ys = yv.tolist()
    alpha = [0.0] * n
    neg_inf = -np.inf
    # At alpha = 0, s = -y*grad = y: I_up holds the positive samples with
    # s = 1, I_low the negative ones with -s = 1.
    v = np.full((2, n), neg_inf)
    pos = yv > 0
    v[0, pos] = 1.0
    v[1, ~pos] = 1.0
    v_up, v_low = v
    t = np.empty(n)
    u = np.empty(n)
    max_iter = max_passes * n
    iterations = 0

    while iterations < max_iter:
        i, j = v.argmax(axis=1).tolist()
        s_i, neg_s_j = v.item(0, i), v.item(1, j)
        # s_i - s_j, exactly; -inf when I_up or I_low is empty.
        if s_i + neg_s_j <= tol:
            break

        ki, kj = row(i), row(j)
        quad = ki.item(i) + kj.item(j) - 2.0 * ki.item(j)
        if quad <= 0:
            quad = 1e-12

        y_i, y_j = ys[i], ys[j]
        grad_i, grad_j = -y_i * s_i, y_j * neg_s_j
        old_i, old_j = alpha[i], alpha[j]
        if y_i != y_j:
            delta = (-grad_i - grad_j) / quad
            diff = old_i - old_j
            ai, aj = old_i + delta, old_j + delta
            if diff > 0 and aj < 0:
                ai, aj = diff, 0.0
            elif diff <= 0 and ai < 0:
                ai, aj = 0.0, -diff
            if diff > 0 and ai > c:
                ai, aj = c, c - diff
            elif diff <= 0 and aj > c:
                ai, aj = c + diff, c
        else:
            delta = (grad_i - grad_j) / quad
            total = old_i + old_j
            ai, aj = old_i - delta, old_j + delta
            if total > c and ai > c:
                ai, aj = c, total - c
            elif total <= c and aj < 0:
                ai, aj = total, 0.0
            if total > c and aj > c:
                ai, aj = total - c, c
            elif total <= c and ai < 0:
                ai, aj = 0.0, total

        alpha[i], alpha[j] = ai, aj
        # A multiplier that enters or leaves I_up or I_low gets both entries
        # rewritten from its s before this step; the row update then applies.
        for k, y_k, a_k, old_k, s_k in ((i, y_i, ai, old_i, s_i), (j, y_j, aj, old_j, -neg_s_j)):
            if (a_k > 0) != (old_k > 0) or (a_k < c) != (old_k < c):
                v[0, k] = s_k if (a_k < c if y_k > 0 else a_k > 0) else neg_inf
                v[1, k] = -s_k if (a_k > 0 if y_k > 0 else a_k < c) else neg_inf
        # The gradient moves by y*t with t = y_i*d_i*K_i + y_j*d_j*K_j, and
        # multiplying by y = +/-1 is exact and rounding is symmetric in sign,
        # so row 0 gets s - t, the new s. Row 1 gets -s + t = -(s - t) up to
        # the sign of a zero; -inf entries stay -inf.
        np.multiply(ki, y_i * (ai - old_i), out=t)
        np.multiply(kj, y_j * (aj - old_j), out=u)
        t += u
        v_up -= t
        v_low += t
        iterations += 1

    # Final KKT gap and bias from the converged multipliers. s goes through
    # grad = -y*s + 0.0, because the gradient update gives an exactly
    # cancelled entry +0.0 in grad, where v may hold a zero of either sign;
    # so the bias and gap keep the bits of -y*grad down to the sign of a zero.
    alpha = np.array(alpha)
    up, low = v > neg_inf
    s = -yv * (-yv * np.where(up, v_up, -v_low) + 0.0)
    m = float(np.max(np.where(up, s, neg_inf)))
    mm = float(np.min(np.where(low, s, -neg_inf)))
    kkt_gap = max(m - mm, 0.0)
    free = (alpha > 0) & (alpha < c)
    bias = float(np.mean(s[free])) if np.any(free) else (m + mm) / 2.0

    keep = alpha > 0
    model = SvmModel(
        support_vectors=x[keep],
        coef=alpha[keep] * yv[keep],
        bias=bias,
        kernel=spec,
        c=c,
        iterations=iterations,
        kkt_violation_max=kkt_gap,
    )
    # The positions of the support vectors in x, for a caller that keeps them
    # as rows of its own matrix. Not a field, so `==` and the model file do
    # not see it.
    object.__setattr__(model, "support_rows", np.flatnonzero(keep))
    return model


def decision(model: SvmModel, x) -> float:
    """One sample's row of `decision_batch`: sign is class, magnitude margin."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.support_vectors.shape[1],):
        raise ValueError(
            f"sample length {x.size} does not match support vectors "
            f"({model.support_vectors.shape[1]})"
        )
    return float(decision_batch(model, x[None])[0])


def decision_batch(model: SvmModel, x) -> np.ndarray:
    """Decision values for a sample matrix, one per row.

    The kernel values come from `rowwise_kernel_matrix` and each row's sum
    runs along that row, so a row's value has the same bits whatever the
    number of rows in the call.
    """
    x = np.asarray(x, dtype=float)
    sv = model.support_vectors
    if x.ndim != 2 or x.shape[1] != sv.shape[1]:
        raise ValueError(
            f"sample length {x.shape[-1]} does not match support vectors ({sv.shape[1]})"
        )
    return (rowwise_kernel_matrix(model.kernel, x, sv) * model.coef).sum(axis=1) + model.bias


@dataclass(frozen=True, eq=False)
class DecisionForms(Record):
    """The decisions of P SVMs as polynomials in their features: SVM p's
    decision at f is bias[p] plus, over monomials m, weights[m, p] times the
    product of f[j] ** exponents[m][j]."""

    exponents: tuple  # one tuple of per-feature exponents per monomial
    weights: np.ndarray  # (monomials, P)
    bias: np.ndarray  # (P,)

    ARRAYS = {"weights": float, "bias": float}


def monomial_exponents(width: int, degree: int) -> tuple:
    """Every exponent tuple of `width` features with total at most `degree`,
    by total, then in descending lexicographic order."""
    return tuple(
        a
        for total in range(degree + 1)
        for a in product(range(total, -1, -1), repeat=width)
        if sum(a) == total
    )


def monomials(x, exponents) -> list:
    """The monomial of each exponent tuple at the rows x[..., :]: an array of
    shape x.shape[:-1], or None for the constant monomial. Powers come from
    repeated multiplication, so every value is a fixed sequence of
    elementwise products whatever the shape of x."""
    x = np.asarray(x, dtype=float)
    top = max(max(a) for a in exponents)
    powers = []
    for j in range(x.shape[-1]):
        col = x[..., j]
        pw = [None, col]
        for _ in range(2, top + 1):
            pw.append(pw[-1] * col)
        powers.append(pw)
    out = []
    for a in exponents:
        term = None
        for pw, k in zip(powers, a):
            if k:
                term = pw[k] if term is None else term * pw[k]
        out.append(term)
    return out


def decision_forms(svms) -> DecisionForms:
    """The `DecisionForms` of SVMs that share one linear or polynomial kernel
    and feature width; see the module doc.

    The monomials of every support vector come from one pass over all SVMs'
    support vectors, then one sum per SVM. ValueError for an rbf kernel,
    an unresolved gamma, or SVMs of different kernels or widths.
    """
    svms = list(svms)
    kernels = {svm.kernel for svm in svms}
    widths = {svm.support_vectors.shape[1] for svm in svms}
    if len(kernels) != 1 or len(widths) != 1:
        raise ValueError("decision forms need SVMs of one kernel and one feature width")
    (spec,), (width,) = kernels, widths
    if spec.kind == "rbf":
        raise ValueError("an rbf kernel has no polynomial decision form")
    if spec.kind == "linear":
        degree, gamma, coef0 = 1, 1.0, 0.0
    elif spec.gamma is None:
        raise ValueError("gamma unresolved; call KernelSpec.resolve(dim) first")
    else:
        degree, gamma, coef0 = spec.degree, float(spec.gamma), float(spec.coef0)

    exponents = monomial_exponents(width, degree)
    coef = np.concatenate([svm.coef for svm in svms])
    terms = np.stack([
        coef if mono is None else coef * mono
        for mono in monomials(np.concatenate([svm.support_vectors for svm in svms]), exponents)
    ])
    counts = np.array([svm.coef.size for svm in svms])
    # A zero column after the last support vector keeps every start in range;
    # an SVM without support vectors sums to zero.
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    sums = np.add.reduceat(np.pad(terms, ((0, 0), (0, 1))), starts, axis=1)
    sums[:, counts == 0] = 0.0
    scale = [
        math.factorial(degree)
        // (math.prod(map(math.factorial, a)) * math.factorial(degree - sum(a)))
        * coef0 ** (degree - sum(a)) * gamma ** sum(a)
        for a in exponents
    ]
    return DecisionForms(
        exponents=exponents,
        weights=np.asarray(scale)[:, None] * sums,
        bias=[svm.bias for svm in svms],
    )


@dataclass(frozen=True, eq=False)
class SvmForm(Record):
    """A trained binary SVM kept as its decision polynomial: its column of a
    `DecisionForms` (`weights` over the monomials, and `bias`), and the
    solve's support-vector count, iterations and final KKT gap."""

    weights: np.ndarray  # (monomials,)
    bias: float
    support_count: int
    iterations: int
    kkt_violation_max: float

    ARRAYS = {"weights": float}

    def __post_init__(self):
        super().__post_init__()
        if self.weights.ndim != 1 or not np.isfinite(self.weights).all():
            raise ValueError(f"weights must be a list of finite reals, got {self.weights!r}")
        real("bias", self.bias)
        integer("support_count", self.support_count, 0)
        integer("iterations", self.iterations, 0)
        real("kkt_violation_max", self.kkt_violation_max)

    @property
    def support_vectors(self) -> np.ndarray:
        """`support_count` rows of no features, so that code that counts an
        SVM's support vectors as `support_vectors.shape[0]` reads both kinds."""
        return np.empty((self.support_count, 0))


# --- cross-validation -------------------------------------------------------

@dataclass(frozen=True)
class GridCell:
    """One hyperparameter combination evaluated by cross-validation."""

    c: float
    kernel: KernelSpec
    b: float = 1.0
    b_prime: float = 1.0


@dataclass(frozen=True)
class CvResult:
    best: GridCell
    table: tuple  # ((GridCell, mean_accuracy), ...) in grid order


def stratified_folds(y, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded stratified split: per-class round-robin after a shuffle.

    Returns one index array per fold (the validation sets).
    """
    y = np.asarray(y)
    integer("folds", folds, 2)
    integer("seed", seed, 0)
    classes = np.unique(y)
    counts = [int(np.sum(y == cls)) for cls in classes]
    smallest = min(counts)
    if folds > smallest:
        raise ValueError(
            f"folds={folds} exceeds the smallest class size {smallest}"
        )
    rng = np.random.default_rng(seed)
    shuffled = [rng.permutation(np.flatnonzero(y == cls)) for cls in classes]
    return [
        np.sort(np.concatenate([idx[k::folds] for idx in shuffled])).astype(np.int64)
        for k in range(folds)
    ]


def cross_validate(x, y, grid, folds: int, seed: int, trainer) -> CvResult:
    """Mean validation accuracy per grid cell; best cell wins, first on ties.

    `trainer(x_train, y_train, cell)` must return a callable mapping a sample
    matrix to predicted labels, one per row: ValueError if its result does
    not have the validation labels' shape. Evaluation is deterministic given
    the seed.

    Folds are the outer loop. Each fold's train and validation arrays are
    sliced once, read-only, and every cell is trained on them: the cells of
    the grid's first (b, b_prime) in grid order, then those of the next
    (b, b_prime) to appear, and so on, so a trainer that keeps work per
    (fold, b, b_prime), as `multiclass.pipeline_trainer` does, meets each such
    group in one run. A cell's accuracies are averaged in fold order, so the
    table does not depend on the order the cells are visited in.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("parameter grid must be non-empty")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    val_sets = stratified_folds(y, folds, seed)
    # Each cell's rank is the grid index of the first cell with its (b, b_prime).
    first = [
        next(j for j, d in enumerate(grid) if (d.b, d.b_prime) == (cell.b, cell.b_prime))
        for cell in grid
    ]
    order = sorted(range(len(grid)), key=first.__getitem__)

    accs = [[] for _ in grid]
    for val in val_sets:
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[val] = False
        tr = np.flatnonzero(train_mask)
        x_tr, y_tr, x_val, y_val = x[tr], y[tr], x[val], y[val]
        for part in (x_tr, y_tr, x_val, y_val):
            part.setflags(write=False)
        for i in order:
            predict = trainer(x_tr, y_tr, grid[i])
            pred = np.asarray(predict(x_val))
            if pred.shape != y_val.shape:
                raise ValueError(
                    f"trainer predicted an array of shape {pred.shape} "
                    f"for {y_val.size} validation labels"
                )
            accs[i].append(float(np.mean(pred == y_val)))

    table = tuple((cell, float(np.mean(a))) for cell, a in zip(grid, accs))
    best_cell, best_acc = None, -1.0
    for cell, mean_acc in table:
        if mean_acc > best_acc:
            best_acc = mean_acc
            best_cell = cell
    return CvResult(best=best_cell, table=table)
