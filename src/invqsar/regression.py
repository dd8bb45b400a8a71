"""Lasso linear regression on normalized descriptors.

The fit minimizes (1/2N)*RSS + lambda*l1(w) with an unpenalized intercept.
It runs covariance coordinate descent over an active set, closed by a full
KKT pass; cross-validation centers each training split once and walks its
penalty grid in descending order, warm-starting every fit from the previous
one and sharing the split's Gram columns along that path.  CV follows the
five-fold protocol with a configurable number of executions and reports
the median test R-squared across all trials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .schema import NUMBER, STRING, Field, InputError, Reader, Table, list_of


class FitError(ValueError):
    pass


@dataclass
class LassoResult:
    weights: np.ndarray
    bias: float
    lam: float
    n_sweeps: int
    objective_path: list[float] = field(default_factory=list)


class CenteredDesign:
    """A design matrix centered once, for every fit on the same rows: its
    column means, Xc (centered, with constant columns zeroed), col_sq =
    |Xc[:, j]|^2/n, and the Gram columns Xc'Xc[:, j]/n, which a fit adds
    the first time it activates coordinate j.  The fits along one training
    split's penalty path share all of these."""

    def __init__(self, x) -> None:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise FitError("design matrix and targets have incompatible shapes")
        if x.shape[0] < 2:
            raise FitError("need at least two samples")
        if not np.isfinite(x).all():
            raise FitError("NaN or Inf in the training data")
        self.n = x.shape[0]
        self.mean = x.mean(axis=0)
        self.xc = x - self.mean
        self.xc[:, x.max(axis=0) == x.min(axis=0)] = 0.0
        self.col_sq = np.einsum("ij,ij->j", self.xc, self.xc) / self.n
        self.gram: dict[int, np.ndarray] = {}


def lasso_fit(
    x: np.ndarray | CenteredDesign,
    y: np.ndarray,
    lam: float,
    tol: float = 1e-7,
    max_sweeps: int = 100_000,
    w0: np.ndarray | None = None,
) -> LassoResult:
    """Coordinate-descent Lasso on an already normalized design matrix, or
    on a CenteredDesign of one.

    Works on centered data, so the intercept is exact (b = mean(y) -
    mean(x) @ w), and keeps the correlations corr = Xc'(yc - Xc w)/n up to
    date with Gram columns Xc'Xc[:, j]/n, each computed once the first time
    coordinate j joins the active set.  Sweeps run over the active set
    until no weight moves by tol; a full pass then adds every zero
    coordinate with |corr_j| > lam, and the fit ends when that pass adds
    none.  `w0` warm-starts the weights; columns that are constant keep
    weight 0.
    """
    design = x if isinstance(x, CenteredDesign) else CenteredDesign(x)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != design.n:
        raise FitError("design matrix and targets have incompatible shapes")
    if lam < 0:
        raise FitError("penalty must be non-negative")
    if not np.isfinite(y).all():
        raise FitError("NaN or Inf in the training data")

    n, xc, col_sq, gram = design.n, design.xc, design.col_sq, design.gram
    y_mean = float(y.mean())
    yc = y - y_mean
    xty = xc.T @ yc / n
    half_yy = float(yc @ yc) / (2 * n)

    w = np.zeros(xc.shape[1])
    if w0 is not None:
        w[:] = w0
        w[col_sq == 0.0] = 0.0
    nonzero = np.flatnonzero(w)
    corr = xty - xc.T @ (xc[:, nonzero] @ w[nonzero]) / n
    # candidates for the full pass: constant columns never enter
    outside = col_sq > 0.0
    active: list[int] = []
    # the coordinate step reads Python floats: the same IEEE operations,
    # without a numpy scalar per read
    w_list = w.tolist()
    sq_list = col_sq.tolist()

    def activate(idx: np.ndarray) -> None:
        outside[idx] = False
        for j in idx.tolist():
            if j not in gram:
                # one matrix-vector product per column: a matrix product
                # here makes BLAS touch work buffers that raise peak memory
                gram[j] = xc.T @ xc[:, j] / n
            active.append(j)

    def objective() -> float:
        # (1/2n)|yc - Xc w|^2 = |yc|^2/2n - w.(Xc'yc/n + corr)/2
        return (half_yy - 0.5 * float(w @ (xty + corr))
                + lam * float(np.abs(w).sum()))

    activate(nonzero)
    objective_path = [objective()]
    sweeps = 0
    settled = not active
    while sweeps < max_sweeps:
        # full pass: zero weights outside the active set whose |corr| > lam
        sweeps += 1
        objective_path.append(objective_path[-1])
        violators = np.flatnonzero(outside & (np.abs(corr) > lam))
        if settled and len(violators) == 0:
            break
        activate(violators)
        while sweeps < max_sweeps:
            sweeps += 1
            max_delta = 0.0
            for j in active:
                wj = w_list[j]
                sq = sq_list[j]
                # soft threshold of corr_j + sq * wj at lam, over sq
                z = corr.item(j) + sq * wj
                new = ((z - lam) / sq if z > lam else
                       (z + lam) / sq if z < -lam else 0.0)
                if new != wj:
                    corr -= (new - wj) * gram[j]
                    w[j] = w_list[j] = new
                    max_delta = max(max_delta, abs(new - wj))
            objective_path.append(objective())
            if max_delta < tol:
                break
        settled = True
    b = y_mean - float(design.mean @ w)
    return LassoResult(w, b, lam, sweeps, objective_path)


def r_squared(pred, truth) -> float:
    """1 - RSS/TSS; zero-variance truth yields 0 by convention."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    tss = float(((truth - truth.mean()) ** 2).sum())
    if tss == 0.0:
        return 0.0
    rss = float(((truth - pred) ** 2).sum())
    return 1.0 - rss / tss


def min_max_scale(values, lo, hi) -> np.ndarray:
    """(values - lo) / (hi - lo), elementwise with numpy broadcasting, so
    `lo` and `hi` may be per-column ranges of a matrix; where hi == lo (a
    constant column) the result is 0."""
    values = np.asarray(values, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    varying = hi > lo
    return np.where(varying, (values - lo) / np.where(varying, hi - lo, 1.0), 0.0)


@dataclass(frozen=True)
class LinearPredictor:
    """Serialized form of the fitted prediction function."""

    weights: tuple[float, ...]
    bias: float
    lam: float
    descriptor_names: tuple[str, ...]
    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    target_min: float
    target_max: float
    space_hash: str

    def __post_init__(self) -> None:
        k = len(self.weights)
        if not (len(self.mins) == len(self.maxs) == len(self.descriptor_names) == k):
            raise ValueError("predictor field lengths disagree")

    def predict_normalized(self, raw: list[float]) -> float:
        """Prediction in standardized target units."""
        if len(raw) != len(self.weights):
            raise ValueError("feature vector length does not match predictor")
        xhat = min_max_scale(raw, self.mins, self.maxs).tolist()
        return float(sum(w * v for w, v in zip(self.weights, xhat)) + self.bias)

    def standardize(self, y: float) -> float:
        return float(min_max_scale(y, self.target_min, self.target_max))

    def destandardize(self, y_std: float) -> float:
        return self.target_min + y_std * (self.target_max - self.target_min)


_NUMBERS = list_of(NUMBER)
PREDICTOR = Table(
    Field("lambda", NUMBER, attr="lam"),
    Field("bias", NUMBER),
    Field("weights", _NUMBERS),
    Field("descriptor_names", list_of(STRING)),
    Field("min", _NUMBERS, attr="mins"),
    Field("max", _NUMBERS, attr="maxs"),
    Field("target_min", NUMBER),
    Field("target_max", NUMBER),
    Field("space_hash", STRING),
    make=lambda r, path, d: r.make(
        path, LinearPredictor, d["weights"], d["bias"], d["lambda"],
        d["descriptor_names"], d["min"], d["max"], d["target_min"],
        d["target_max"], d["space_hash"]),
)


def predictor_from_json(doc: dict) -> LinearPredictor:
    """Inverse of PREDICTOR.write; a fault raises InputError."""
    return PREDICTOR.read(Reader("predictor", InputError), doc)


def predictor_to_json_text(p: LinearPredictor) -> str:
    return json.dumps(PREDICTOR.write(p), indent=2, sort_keys=True)


def predictor_from_json_text(text: str) -> LinearPredictor:
    return predictor_from_json(Reader("predictor", InputError).loads(text))


@dataclass(frozen=True)
class CvReport:
    lam: float
    fold_r2: tuple[float, ...]
    median_r2: float
    mean_selected: float


def cross_validate_path(
    x: np.ndarray,
    y: np.ndarray,
    lams,
    executions: int = 10,
    folds: int = 5,
    seed: int = 0,
) -> list[CvReport]:
    """Repeated random k-fold evaluation of every penalty in `lams`, with a
    seeded generator.  Each training split is centered once, as one
    CenteredDesign, and walks the penalties from the largest down,
    warm-starting each fit from the previous one; the reports come back in
    the order of `lams`."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 2 * folds:
        raise FitError(f"need at least {2 * folds} samples for {folds}-fold CV")
    if executions < 1:
        raise FitError("need at least one cross-validation execution")
    order = sorted(range(len(lams)), key=lambda i: -lams[i])
    rng = np.random.default_rng(seed)
    scores: list[list[float]] = [[] for _ in lams]
    selected: list[list[int]] = [[] for _ in lams]
    for _ in range(executions):
        perm = rng.permutation(n)
        parts = np.array_split(perm, folds)
        for k in range(folds):
            test_idx = parts[k]
            train_idx = np.concatenate([parts[j] for j in range(folds) if j != k])
            design = CenteredDesign(x[train_idx])
            y_train = y[train_idx]
            w = None
            for i in order:
                fit = lasso_fit(design, y_train, lams[i], w0=w)
                w = fit.weights
                pred = x[test_idx] @ w + fit.bias
                scores[i].append(r_squared(pred, y[test_idx]))
                selected[i].append(int((w != 0.0).sum()))
            # free this split's Gram columns before the next split is centered
            del design
    return [
        CvReport(
            lam=lam,
            fold_r2=tuple(scores[i]),
            median_r2=float(np.median(scores[i])),
            mean_selected=float(np.mean(selected[i])),
        )
        for i, lam in enumerate(lams)
    ]

