"""Downstream task harness: k-means clustering and linear classification.

Both tasks score node vectors against ground-truth labels.  Clustering is
measured with normalized mutual information and matched accuracy (optimal
cluster-to-class assignment); classification with accuracy and Macro-F1 of
a one-vs-rest logistic model trained on a small random split.  Each binary
logistic problem is solved by damped Newton to its gradient tolerance, so
the scores belong to the converged l2-regularized fit, not to a step cap.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .embedding import EmbeddingModel
from .io import AttributedGraph

log = logging.getLogger(__name__)

# Ridge weight of the one-vs-rest classifier: `train_classifier`'s default
# and the value `evaluate` trains with and reports.
CLASSIFIER_L2 = 1e-4


@dataclass
class Clustering:
    assignment: np.ndarray
    k: int
    centers: np.ndarray
    inertia: float


def _pp_centers(points, k, rng, sq_norms):
    # distance-weighted seeding: first uniform, rest proportional to D^2
    N = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(N)]
    d2 = _sqdist(points, centers[:1], sq_norms)[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(N, p=d2 / total)
        else:
            idx = rng.integers(N)
        centers[j] = points[idx]
        d2 = np.minimum(d2, _sqdist(points, centers[j:j + 1], sq_norms)[:, 0])
    return centers


def _sqdist(points, centers, sq_norms):
    """Squared distances; sq_norms is (points ** 2).sum(axis=1)."""
    d2 = points @ centers.T
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += (centers ** 2).sum(axis=1)
    return np.maximum(d2, 0.0, out=d2)


def _repair_empty(assignment, counts, d2):
    """Refill empty clusters of one restart in place, each with the point
    farthest from its center in the currently largest cluster."""
    while (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        big = int(np.argmax(counts))
        members = np.flatnonzero(assignment == big)
        victim = members[np.argmax(d2[members, big])]
        assignment[victim] = empty
        counts[big] -= 1
        counts[empty] += 1


def _member_means(points, labels, counts):
    """Row j is the mean of the points labeled j; counts[j] > 0 is their
    number.  Each mean sums its members in index order, exactly as
    points[labels == j].mean(axis=0) does."""
    # a stable sort lines each label's members up in index order; numpy
    # sorts small integer types by radix
    small = labels.astype(np.min_scalar_type(counts.size))
    members = points[np.argsort(small, kind="stable")]
    sums = np.empty((counts.size, points.shape[1]))
    start = 0
    for label, end in enumerate(np.cumsum(counts).tolist()):
        np.add.reduce(members[start:end], axis=0, out=sums[label])
        start = end
    return sums / counts[:, None]


def kmeans(points, k: int, seed: int, restarts: int = 10,
           max_iter: int = 300) -> Clustering:
    """Lloyd's algorithm, ++ seeding, best of `restarts` by within-cluster SSQ.

    Every restart is seeded first, in order, from one generator.  Lloyd
    draws nothing from it, so each restart starts from the centers it
    would get if the restarts ran one after another.  The restarts whose
    assignment still changes then iterate together, with one distance
    product per iteration for all of them.  Each center is the mean of its
    members, summed in index order, and each restart's final SSQ comes
    from a product with its own k centers alone, so it does not depend on
    how many restarts ran together.  The best restart is the first with
    the least SSQ.

    Empty clusters are repaired by stealing the point farthest from its
    center out of the currently largest cluster, so every restart returns
    exactly k non-empty clusters.  A restart whose assignment still
    changes after max_iter iterations keeps its last state; one warning
    is logged with the count of such restarts.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite values")
    N, d = points.shape
    if not 1 <= k <= N:
        raise ValueError(f"k must be in [1, {N}], got {k}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    sq_norms = (points ** 2).sum(axis=1)
    rng = np.random.default_rng(seed)
    centers = np.stack([_pp_centers(points, k, rng, sq_norms)
                        for _ in range(restarts)])
    assignment = np.empty((restarts, N), dtype=np.intp)
    offsets = k * np.arange(restarts)[:, None]  # one label range per restart
    moving = np.arange(restarts)  # restarts whose assignment last changed
    for step in range(max_iter):
        m = moving.size
        d2 = _sqdist(points, centers[moving].reshape(-1, d), sq_norms)
        d2 = d2.reshape(N, m, k)
        new = d2.argmin(axis=2).T
        counts = np.bincount((new + offsets[:m]).ravel(), minlength=m * k)
        counts = counts.reshape(m, k)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            _repair_empty(new[i], counts[i], d2[:, i])
        if step:
            changed = (new != assignment[moving]).any(axis=1)
            moving, new, counts = (moving[changed], new[changed],
                                   counts[changed])
            if not moving.size:
                break
        assignment[moving] = new
        for r, row, count in zip(moving, new, counts):
            centers[r] = _member_means(points, row, count)
    unconverged = moving.size
    # one product per restart: a batched product rounds differently, and
    # restarts that reach the same partition would break their tie anew
    inertia = [_sqdist(points, c, sq_norms)[np.arange(N), a].sum()
               for c, a in zip(centers, assignment)]
    best = int(np.argmin(inertia))
    if unconverged:
        log.warning("kmeans: %d of %d restarts stopped at max_iter=%d "
                    "before the assignment settled", unconverged, restarts,
                    max_iter)
    return Clustering(assignment=assignment[best].copy(), k=k,
                      centers=centers[best].copy(),
                      inertia=float(inertia[best]))


def _label_pair(a, b):
    """Both label arrays, flattened, of one non-zero length."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size:
        raise ValueError(f"label lengths differ: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("empty label arrays")
    return a, b


def _contingency(a, b):
    a, b = _label_pair(a, b)
    avals, ai = np.unique(a, return_inverse=True)
    bvals, bi = np.unique(b, return_inverse=True)
    table = np.zeros((avals.size, bvals.size))
    np.add.at(table, (ai, bi), 1.0)
    return table, avals, bvals


def nmi(a, b) -> float:
    """Mutual information over the arithmetic mean of the two entropies.

    Natural logarithms throughout.  Partitions identical up to relabeling
    score 1 (covering the degenerate all-one-cluster pair); otherwise a
    zero entropy on either side scores 0.
    """
    table, _, _ = _contingency(a, b)
    n = table.sum()
    if np.all((table > 0).sum(axis=1) == 1) and \
            np.all((table > 0).sum(axis=0) == 1):
        return 1.0
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    ha = -float(np.sum(pa * np.log(pa, where=pa > 0, out=np.zeros_like(pa))))
    hb = -float(np.sum(pb * np.log(pb, where=pb > 0, out=np.zeros_like(pb))))
    if ha <= 0.0 or hb <= 0.0:
        return 0.0
    p = table / n
    outer = np.outer(pa, pb)
    mask = p > 0
    contrib = p[mask] * (np.log(p[mask]) - np.log(outer[mask]))
    # summing in sorted order makes nmi(a, b) == nmi(b, a) exact
    info = float(np.sort(contrib).sum())
    return float(min(1.0, max(0.0, info / ((ha + hb) / 2.0))))


def _max_matching(table):
    """Row and column indices, rows ascending, columns distinct, of a
    maximum-weight matching of min(rows, cols) pairs in a table.

    Kuhn's Hungarian method in its shortest-augmenting-path form (Jonker
    and Volgenant, 1987) on the negated table, turned so that rows <=
    columns.  Each row in turn is matched along a shortest path of
    reduced costs; the row and column potentials keep every reduced cost
    nonnegative and those of matched pairs zero, so each augmentation
    keeps the matching optimal.  On integer counts every potential and
    slack is an exact integer.  Among tied optima it returns one of them,
    not necessarily the one another solver would pick.
    """
    table = np.asarray(table, dtype=float)
    turned = table.shape[0] > table.shape[1]
    cost = -(table.T if turned else table)
    n, m = cost.shape
    u = np.zeros(n)
    v = np.zeros(m + 1)  # column m is the start of every path
    owner = np.full(m + 1, -1)  # row matched to each column
    for i in range(n):
        owner[m] = i
        col = m
        slack = np.full(m, np.inf)  # least reduced cost into each column
        via = np.empty(m, dtype=np.intp)  # column the path came from
        used = np.zeros(m + 1, dtype=bool)
        while owner[col] >= 0:
            used[col] = True
            free = ~used[:m]
            row = owner[col]
            reduced = cost[row] - u[row] - v[:m]
            closer = free & (reduced < slack)
            slack[closer] = reduced[closer]
            via[closer] = col
            nxt = int(np.argmin(np.where(free, slack, np.inf)))
            delta = slack[nxt]
            u[owner[used]] += delta
            v[used] -= delta
            slack[free] -= delta
            col = nxt
        while col != m:  # flip the path back to its start
            owner[col] = owner[via[col]]
            col = via[col]
    matched = np.flatnonzero(owner[:m] >= 0)
    if turned:
        return matched, owner[matched]
    cols = np.empty(n, dtype=np.intp)
    cols[owner[matched]] = matched
    return np.arange(n), cols


def match_clusters(pred, truth) -> dict:
    """Optimal cluster-to-class map: a maximum-weight matching of the
    contingency table (see `_max_matching`).

    Returns {predicted cluster value: matched truth value}, in ascending
    cluster order; clusters left unmatched when there are more clusters
    than classes are absent.  The matched total is the optimum; where
    several matchings reach it, the map is one of them, and may differ
    from the one scipy's sparse assignment solver (LAPJVsp) would return.
    """
    table, pvals, tvals = _contingency(pred, truth)
    rows, cols = _max_matching(table)
    return {pvals[r]: tvals[c] for r, c in zip(rows, cols)}


def clustering_accuracy(pred, truth) -> float:
    """Fraction correct after the optimal cluster-to-class matching (see
    `match_clusters`)."""
    table, _, _ = _contingency(pred, truth)
    rows, cols = _max_matching(table)
    return float(table[rows, cols].sum() / table.sum())


def accuracy(pred, truth) -> float:
    pred, truth = _label_pair(pred, truth)
    return float(np.mean(pred == truth))


def macro_f1(pred, truth, classes=None) -> float:
    """Unweighted mean of per-class F1; a class absent from both sides
    contributes 0."""
    pred, truth = _label_pair(pred, truth)
    if classes is None:
        classes = np.union1d(pred, truth)
    scores = []
    for cls in classes:
        tp = float(np.sum((pred == cls) & (truth == cls)))
        fp = float(np.sum((pred == cls) & (truth != cls)))
        fn = float(np.sum((pred != cls) & (truth == cls)))
        denom = 2.0 * tp + fp + fn
        scores.append(2.0 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


@dataclass
class LinearClassifier:
    classes: np.ndarray
    weights: np.ndarray  # one row per class, bias in the last column
    l2: float


def logistic_loss(w, features, targets, l2: float) -> float:
    """Mean binary cross-entropy plus l2/2 * ||w||^2 excluding the bias.

    `features` already carries the constant bias column; targets in {0,1}.
    """
    z = features @ w
    data = float(np.mean(np.logaddexp(0.0, z) - targets * z))
    return data + 0.5 * l2 * float(w[:-1] @ w[:-1])


def _sigmoid(z):
    """1 / (1 + exp(-z)), through logaddexp so no exp overflows."""
    return np.exp(-np.logaddexp(0.0, -z))


def logistic_grad(w, features, targets, l2: float) -> np.ndarray:
    z = features @ w
    g = features.T @ (_sigmoid(z) - targets) / features.shape[0]
    g[:-1] += l2 * w[:-1]
    return g


def _newton_logistic(Xa, t, l2, max_steps, tol) -> tuple[np.ndarray, bool]:
    """Minimize `logistic_loss` by damped Newton (IRLS) from w = 0.

    The Hessian is Xaᵀ diag(p(1-p)) Xa / N plus l2 on every weight but
    the bias.  Each step backtracks until the Armijo condition holds.
    Returns the weights and whether the gradient norm reached tol; a
    line search that cannot decrease the loss any more (it sits at float
    resolution, as on separable data with l2 = 0) stops early, unconverged.
    """
    N, D = Xa.shape
    ridge = l2 * np.eye(D)
    ridge[-1, -1] = 0.0
    w = np.zeros(D)
    loss = logistic_loss(w, Xa, t, l2)
    for _ in range(max_steps):
        g = logistic_grad(w, Xa, t, l2)
        if np.linalg.norm(g) <= tol:
            return w, True
        z = Xa @ w
        # p(1-p) as σ(z)·σ(-z) keeps its size where 1-p rounds to 0
        H = (Xa.T * (_sigmoid(z) * _sigmoid(-z))) @ Xa / N + ridge
        try:
            direction = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:  # l2 = 0 and a feature that is all 0
            direction = g
        slope = float(g @ direction)
        alpha = 1.0
        while alpha >= 1e-10:
            trial = w - alpha * direction
            trial_loss = logistic_loss(trial, Xa, t, l2)
            if trial_loss <= loss - 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            return w, False
        w, loss = trial, trial_loss
    return w, bool(np.linalg.norm(logistic_grad(w, Xa, t, l2)) <= tol)


def train_classifier(vectors, labels, l2: float = CLASSIFIER_L2,
                     max_steps: int = 100,
                     tol: float = 1e-6) -> LinearClassifier:
    """One-vs-rest logistic regression, each binary problem solved by
    damped Newton to gradient norm <= tol.

    The fit is the l2-regularized minimizer (bias unregularized), not an
    artifact of a step cap: a problem runs until its gradient norm is at
    most tol or it has taken max_steps Newton steps.  One warning is
    logged with the count of problems that stopped short of tol.
    """
    X = np.asarray(vectors, dtype=float)
    y = np.asarray(labels).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("vectors and labels disagree in length")
    if l2 < 0:
        raise ValueError("l2 must be non-negative")
    N = X.shape[0]
    Xa = np.hstack([X, np.ones((N, 1))])

    classes = np.unique(y)
    W = np.zeros((classes.size, Xa.shape[1]))
    unconverged = 0
    for ci, cls in enumerate(classes):
        W[ci], converged = _newton_logistic(Xa, (y == cls).astype(float), l2,
                                            max_steps, tol)
        unconverged += not converged
    if unconverged:
        log.warning("train_classifier: %d of %d one-vs-rest problems stopped "
                    "short of gradient norm %g (max_steps=%d)", unconverged,
                    classes.size, tol, max_steps)
    return LinearClassifier(classes=classes, weights=W, l2=l2)


def classify(model: LinearClassifier, vectors) -> np.ndarray:
    X = np.asarray(vectors, dtype=float)
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    scores = Xa @ model.weights.T
    return model.classes[np.argmax(scores, axis=1)]


@dataclass
class EvalReport:
    task: str
    ac: float
    nmi: float | None
    macro_f1: float | None
    repeats: int
    seed: int
    config: dict
    per_repeat: dict = field(default_factory=dict)

    def records(self) -> list[str]:
        """Line-delimited metric<TAB>value pairs for scripting."""
        out = []
        if self.nmi is not None:
            out.append(f"nmi\t{self.nmi:.17g}")
        out.append(f"ac\t{self.ac:.17g}")
        if self.macro_f1 is not None:
            out.append(f"macro_f1\t{self.macro_f1:.17g}")
        return out

    def table(self) -> str:
        rows = [f"task        {self.task}",
                f"repeats     {self.repeats}",
                f"seed        {self.seed}"]
        for key, value in sorted(self.config.items()):
            rows.append(f"{key:<11} {value}")
        for name in ("nmi", "ac", "macro_f1"):
            mean = getattr(self, name)
            if mean is None:
                continue
            spread = float(np.std(self.per_repeat.get(name, [mean])))
            rows.append(f"{name:<11} {mean:.4f} +/- {spread:.4f}")
        return "\n".join(rows)


def _sample_train(labels, fraction, rng, attempts: int = 20):
    n = labels.size
    n_train = int(round(fraction * n))
    n_train = max(1, min(n - 1, n_train))
    wanted = np.unique(labels)
    for _ in range(attempts):
        perm = rng.permutation(n)
        train = perm[:n_train]
        if np.array_equal(np.unique(labels[train]), wanted):
            return train, perm[n_train:]
    raise ValueError(
        f"no train split of {n_train} nodes covered all {wanted.size} "
        f"classes after {attempts} attempts")


def evaluate(model: EmbeddingModel, g: AttributedGraph,
             task: str = "clustering", repeats: int = 100,
             train_fraction: float = 0.1, seed: int = 0) -> EvalReport:
    """Score node vectors on a labeled graph, averaging over seeded repeats.

    Deterministic in (model, g, protocol): per-repeat seeds derive from
    `seed` through a SeedSequence, so repeats are independent and the
    whole report reproduces exactly.
    """
    if g.labels is None:
        raise ValueError("graph has no labels to evaluate against")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    labels = np.asarray(g.labels).ravel()
    X = model.node_vectors
    if X.shape[0] != labels.size:
        raise ValueError("model node count does not match label count")
    sub_seeds = np.random.SeedSequence(seed).generate_state(repeats)

    if task == "clustering":
        k = g.c if g.c is not None else int(np.unique(labels).size)
        nmis, acs = [], []
        for s in sub_seeds:
            cl = kmeans(X, k, int(s))
            nmis.append(nmi(cl.assignment, labels))
            acs.append(clustering_accuracy(cl.assignment, labels))
        return EvalReport(task=task, ac=float(np.mean(acs)),
                          nmi=float(np.mean(nmis)), macro_f1=None,
                          repeats=repeats, seed=seed,
                          config={"clusters": k},
                          per_repeat={"nmi": nmis, "ac": acs})
    if task == "classification":
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        acs, f1s = [], []
        for s in sub_seeds:
            rng = np.random.default_rng(int(s))
            train, test = _sample_train(labels, train_fraction, rng)
            clf = train_classifier(X[train], labels[train])
            pred = classify(clf, X[test])
            acs.append(accuracy(pred, labels[test]))
            f1s.append(macro_f1(pred, labels[test],
                                classes=np.unique(labels)))
        return EvalReport(task=task, ac=float(np.mean(acs)), nmi=None,
                          macro_f1=float(np.mean(f1s)), repeats=repeats,
                          seed=seed,
                          config={"train_fraction": train_fraction,
                                  "l2": CLASSIFIER_L2},
                          per_repeat={"ac": acs, "macro_f1": f1s})
    raise ValueError(f"unknown task {task!r}")
