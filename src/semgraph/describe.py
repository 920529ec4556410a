"""Semantic community descriptions from joint node/attribute embeddings.

Because nodes and attributes live in one space, a community is described
by the attributes nearest its center — either directly (top-q attributes
per community) or through topics (attribute clusters whose centers are
near the community center, each summarized by its own nearest attributes).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingModel
from .evaluation import Clustering

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TopicDescription:
    """One ranked keyword list; topic_id/distance are None in direct mode."""

    topic_id: int | None
    distance: float | None
    keywords: tuple  # ((attr_id, distance), ...) ascending by distance


@dataclass(frozen=True)
class CommunityDescription:
    """Keywords of one community; `mode` is "direct" if no topic holds them."""

    community_id: int
    topics: tuple  # TopicDescription, ordered by topic distance
    q: int

    @property
    def mode(self) -> str:
        return "direct" if self.topics[0].topic_id is None else "topic"


def _distances(center, vectors, metric):
    if metric == "euclidean":
        return np.linalg.norm(vectors - center[None, :], axis=1)
    if metric == "cosine":
        # zero vectors get similarity 0, hence distance 1
        norms = np.linalg.norm(vectors, axis=1)
        cnorm = np.linalg.norm(center)
        if cnorm == 0:
            return np.ones(vectors.shape[0])
        sims = vectors @ center / (np.where(norms > 0, norms, 1.0) * cnorm)
        sims[norms == 0] = 0.0
        return 1.0 - sims
    raise ValueError(f"unknown metric {metric!r}")


def _nearest(center, vectors, ids, q, metric):
    dist = _distances(center, vectors, metric)
    order = np.argsort(dist, kind="stable")[:q]
    return tuple((ids[i], float(dist[i])) for i in order)


def describe_direct(model: EmbeddingModel, clustering: Clustering,
                    q: int = 5, metric: str = "euclidean"):
    """Top-q nearest attributes for each community center.

    Distances are Euclidean in the shared space (cosine via `metric`);
    ties resolve toward the lower attribute index, so output is a pure
    function of model and clustering.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > model.m:
        raise ValueError(f"q={q} exceeds the {model.m} available attributes")
    if clustering.centers.shape[1] != model.dim:
        raise ValueError("clustering dimensionality differs from the model")
    attrs = model.attr_vectors
    out = []
    for cid in range(clustering.k):
        keywords = _nearest(clustering.centers[cid], attrs, model.attr_ids,
                            q, metric)
        topic = TopicDescription(topic_id=None, distance=None,
                                 keywords=keywords)
        out.append(CommunityDescription(community_id=cid, topics=(topic,),
                                        q=q))
    return out


def describe_topics(model: EmbeddingModel, node_clustering: Clustering,
                    attr_clustering: Clustering, q: int = 5, t: int = 2,
                    metric: str = "euclidean"):
    """Describe each community by its t nearest attribute-cluster topics.

    Each topic is summarized by the q member attributes nearest the
    topic's own center; topics smaller than q are truncated with a
    logged notice.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > attr_clustering.k:
        raise ValueError(
            f"t={t} exceeds the {attr_clustering.k} attribute clusters")
    if attr_clustering.assignment.size != model.m:
        raise ValueError("attribute clustering does not cover model.attr_ids")
    attrs = model.attr_vectors
    out = []
    for cid in range(node_clustering.k):
        center = node_clustering.centers[cid]
        topic_dist = _distances(center, attr_clustering.centers, metric)
        order = np.argsort(topic_dist, kind="stable")[:t]
        topics = []
        for tid in order:
            members = np.flatnonzero(attr_clustering.assignment == tid)
            if members.size < q:
                log.warning(
                    "topic %d has only %d attributes; keyword list for "
                    "community %d truncated from %d", tid, members.size,
                    cid, q)
            keywords = _nearest(attr_clustering.centers[tid], attrs[members],
                                [model.attr_ids[i] for i in members],
                                min(q, members.size), metric)
            topics.append(TopicDescription(topic_id=int(tid),
                                           distance=float(topic_dist[tid]),
                                           keywords=keywords))
        out.append(CommunityDescription(community_id=cid,
                                        topics=tuple(topics), q=q))
    return out


def format_descriptions(descriptions) -> str:
    """Render description blocks: community header, optional topic headers,
    then rank<TAB>attr_id<TAB>distance lines."""
    lines = []
    for desc in descriptions:
        lines.append(f"community {desc.community_id}")
        for topic in desc.topics:
            if topic.topic_id is not None:
                lines.append(f"topic {topic.topic_id} "
                             f"(dist {topic.distance:.6g})")
            for rank, (attr_id, dist) in enumerate(topic.keywords, start=1):
                lines.append(f"{rank}\t{attr_id}\t{dist:.6g}")
    return "\n".join(lines)
