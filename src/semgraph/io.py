"""Loading, validation and text serialization of attributed graphs and embeddings."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class AttributedGraph:
    """An undirected graph whose nodes carry nonnegative attribute weights.

    adjacency is a symmetric 0/1 sparse matrix with zero diagonal;
    attr_weights holds one finite nonnegative row per node (one column
    per attribute), and every column has a positive entry.  There is at
    least one node, and every node has an edge or a positive attribute
    weight.  Labels, when present, are nonnegative integer class indices,
    one per node, held as the array `np.asarray` makes of them; `c` is
    their count, the largest index plus one.
    Both matrices are held as CSR arrays in canonical form (sorted indices,
    duplicate entries summed), made so on construction: an input already
    in that form is kept as it is, any other is converted on a copy.
    Construction checks every invariant and raises ValueError on the
    first one violated; the graph cannot be changed afterwards, so
    `dataclasses.replace` is the way to vary one, and it checks again.
    """

    adjacency: sparse.csr_array
    attr_weights: sparse.csr_array
    node_ids: list[str]
    attr_ids: list[str]
    labels: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "adjacency", _canonical(self.adjacency))
        object.__setattr__(self, "attr_weights",
                           _canonical(self.attr_weights))
        adj = self.adjacency
        n, m = self.n, self.m
        if adj.shape != (n, n):
            raise ValueError("adjacency must be square")
        if n == 0:
            raise ValueError("empty graph: no nodes")
        if len(self.node_ids) != n or len(self.attr_ids) != m:
            raise ValueError("id lists inconsistent with matrix shapes")
        # Checked on the stored entries only: no n x n array is built.
        if (adj != adj.T).nnz:
            raise ValueError("adjacency must be symmetric")
        if np.any(adj.diagonal() != 0):
            raise ValueError("adjacency must have a zero diagonal")
        if not np.isin(adj.data, (0.0, 1.0)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        weights = self.attr_weights
        if not np.all(np.isfinite(weights.data)):
            raise ValueError("attribute weights must be finite")
        if np.any(weights.data < 0):
            raise ValueError("attribute weights must be nonnegative")
        positive = weights > 0
        if m and np.any(positive.sum(axis=0) == 0):
            raise ValueError("attribute column with no positive entry")
        degree = adj.sum(axis=1) + positive.sum(axis=1)
        if np.any(degree == 0):
            bad = int(np.argmin(degree))
            raise ValueError(
                f"node {self.node_ids[bad]!r} has no edges and no attributes")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            object.__setattr__(self, "labels", labels)
            if (labels.shape != (n,)
                    or not np.issubdtype(labels.dtype, np.integer)):
                raise ValueError("labels must be one integer per node")
            if labels.min() < 0:
                raise ValueError("labels must be nonnegative")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def m(self) -> int:
        return self.attr_weights.shape[1]

    @property
    def e(self) -> int:
        return int(self.adjacency.count_nonzero() // 2)

    @property
    def c(self) -> int | None:
        return None if self.labels is None else int(self.labels.max()) + 1

    @classmethod
    def from_dense(cls, adjacency, attr_weights, node_ids=None, attr_ids=None,
                   labels=None) -> "AttributedGraph":
        """Build a graph from dense arrays."""
        adjacency = np.asarray(adjacency, dtype=float)
        attr_weights = np.asarray(attr_weights, dtype=float)
        n = adjacency.shape[0]
        m = attr_weights.shape[1] if attr_weights.ndim == 2 else 0
        if attr_weights.ndim != 2 or attr_weights.shape[0] != n:
            raise ValueError("attr_weights must be an n x m matrix")
        if node_ids is None:
            node_ids = [str(i) for i in range(n)]
        if attr_ids is None:
            attr_ids = [str(w) for w in range(m)]
        return cls(
            adjacency=sparse.csr_array(adjacency),
            attr_weights=sparse.csr_array(attr_weights) if m else
            sparse.csr_array((n, 0)),
            node_ids=list(node_ids),
            attr_ids=list(attr_ids),
            labels=labels,
        )


def _canonical(matrix) -> sparse.csr_array:
    """`matrix` as a CSR array with sorted indices and duplicate entries
    summed, as `toarray` would sum them: the matrix itself when it already
    is one, else a copy, so the caller's arrays are never changed."""
    if isinstance(matrix, sparse.csr_array) and matrix.has_canonical_format:
        return matrix
    out = sparse.csr_array(matrix, copy=True)
    out.sum_duplicates()
    return out


def _read_rows(path, n_fields, optional_last=False):
    """Yield (line_number, fields) for each nonempty line of a TSV file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            ok = len(fields) == n_fields or (optional_last and
                                             len(fields) == n_fields - 1)
            if not ok:
                raise ValueError(f"{path}:{lineno}: malformed line {line!r}")
            yield lineno, fields


def load_graph(edges_path, attrs_path, labels_path=None) -> AttributedGraph:
    """Load an attributed graph from TSV files.

    edges_path lines are "u<TAB>v"; attrs_path lines are
    "node<TAB>attr[<TAB>weight]" (weight defaults to 1.0); labels_path lines
    are "node<TAB>class". Duplicate edges and self-loops are removed,
    duplicate attribute entries are summed, attributes with no positive
    weight on any node are dropped, and external ids are mapped to dense
    indices in first-appearance order (edges file first, then attrs file).
    """
    node_index: dict[str, int] = {}
    attr_index: dict[str, int] = {}

    def node_of(name: str) -> int:
        if name not in node_index:
            node_index[name] = len(node_index)
        return node_index[name]

    edges: set[tuple[int, int]] = set()
    for _, (u, v) in _read_rows(edges_path, 2):
        i, j = node_of(u), node_of(v)
        if i == j:
            continue  # self-loop
        edges.add((min(i, j), max(i, j)))

    weights: dict[tuple[int, int], float] = {}
    for lineno, fields in _read_rows(attrs_path, 3, optional_last=True):
        name, attr = fields[0], fields[1]
        try:
            w = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError:
            raise ValueError(
                f"{attrs_path}:{lineno}: bad weight {fields[2]!r}") from None
        if not math.isfinite(w):
            raise ValueError(f"{attrs_path}:{lineno}: non-finite weight")
        if w < 0:
            raise ValueError(f"{attrs_path}:{lineno}: negative weight {w}")
        i = node_of(name)
        if attr not in attr_index:
            attr_index[attr] = len(attr_index)
        key = (i, attr_index[attr])
        weights[key] = weights.get(key, 0.0) + w

    n = len(node_index)
    node_ids = list(node_index)  # dicts keep insertion order = index order
    attr_ids = list(attr_index)

    u, v = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
    adjacency = sparse.coo_array(
        (np.ones(2 * len(u)),
         (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(n, n)).tocsr()

    rows, cols = np.array(list(weights), dtype=np.int64).reshape(-1, 2).T
    attrs = sparse.coo_array(
        (np.array(list(weights.values()), dtype=float), (rows, cols)),
        shape=(n, len(attr_index))).tocsr()

    # Attributes without a positive entry carry no relation; drop them.
    keep = np.flatnonzero((attrs > 0).sum(axis=0))
    attrs = sparse.csr_array(attrs[:, keep])
    attr_ids = [attr_ids[w] for w in keep]

    labels = None
    if labels_path is not None:
        class_index: dict[str, int] = {}
        raw_labels: dict[int, int] = {}
        for lineno, (name, cls_name) in _read_rows(labels_path, 2):
            if name not in node_index:
                raise ValueError(
                    f"{labels_path}:{lineno}: label for unknown node {name!r}")
            if cls_name not in class_index:
                class_index[cls_name] = len(class_index)
            i = node_index[name]
            cls = class_index[cls_name]
            if i in raw_labels and raw_labels[i] != cls:
                raise ValueError(
                    f"{labels_path}:{lineno}: conflicting label for {name!r}")
            raw_labels[i] = cls
        missing = [node_ids[i] for i in range(n) if i not in raw_labels]
        if missing:
            raise ValueError(f"nodes without a label: {missing[:5]}")
        labels = np.array([raw_labels[i] for i in range(n)], dtype=int)

    return AttributedGraph(adjacency=adjacency, attr_weights=attrs,
                           node_ids=node_ids, attr_ids=attr_ids,
                           labels=labels)


@dataclass
class EmbeddingFile:
    """Parsed embedding file: `entity_count` tagged vectors of `dim` values."""

    dim: int
    rows: list[tuple[str, np.ndarray]] = field(default_factory=list)

    @property
    def entity_count(self) -> int:
        return len(self.rows)

    @property
    def vectors(self) -> np.ndarray:
        """Shape (len(rows), dim), also when there are no rows."""
        return np.array([vec for _, vec in self.rows]).reshape(
            len(self.rows), self.dim)

    @property
    def node_ids(self) -> list[str]:
        return [tag[2:] for tag, _ in self.rows if tag.startswith("n:")]

    @property
    def attr_ids(self) -> list[str]:
        return [tag[2:] for tag, _ in self.rows if tag.startswith("a:")]


def write_embeddings(model, path) -> None:
    """Write a finalized model's vectors as text.

    The first line is "entity_count dim"; every following line is
    "tag v1 ... vk" with node tags "n:<node_id>" before attribute tags
    "a:<attr_id>" and reals printed at 17 significant digits, so reading
    the file back reproduces the vectors exactly.
    """
    vectors = model.vectors
    tags = [f"n:{name}" for name in model.node_ids]
    tags += [f"a:{name}" for name in model.attr_ids]
    if len(tags) != vectors.shape[0]:
        raise ValueError("model ids inconsistent with vector count")
    row_format = " ".join(["%.17g"] * vectors.shape[1])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{vectors.shape[0]} {vectors.shape[1]}\n")
        for tag, row in zip(tags, vectors.tolist()):
            fh.write(f"{tag} {row_format % tuple(row)}\n")


def read_embeddings(path) -> EmbeddingFile:
    """Read an embedding file, checking header consistency and tag uniqueness."""
    with open(path, encoding="utf-8") as fh:
        try:  # exactly two integers: a count >= 0 and a dim >= 1
            count, dim = map(int, fh.readline().split())
            ok = count >= 0 and dim >= 1
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"{path}:1: malformed header")
        rows: list[tuple[str, np.ndarray]] = []
        seen: set[str] = set()
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            parts = line.rsplit(" ", dim)
            if len(parts) != dim + 1:
                raise ValueError(f"{path}:{lineno}: expected {dim} components")
            tag = parts[0]
            if tag in seen:
                raise ValueError(f"{path}:{lineno}: duplicate tag {tag!r}")
            seen.add(tag)
            try:
                vec = np.array([float(v) for v in parts[1:]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value") from None
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            rows.append((tag, vec))
    if len(rows) != count:
        raise ValueError(
            f"{path}: header promises {count} rows, found {len(rows)}")
    return EmbeddingFile(dim=dim, rows=rows)
