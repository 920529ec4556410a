"""Community description tests: ranking, modes, formatting."""

import logging

import numpy as np
import pytest

import oracles
from semgraph import (Clustering, EmbeddingModel, describe_direct,
                      describe_topics, embed, format_descriptions, kmeans,
                      planted_attributed_sbm)
from semgraph.synthetic import attribute_block


def _model(node_vecs, attr_vecs, attr_ids=None):
    node_vecs = np.asarray(node_vecs, dtype=float)
    attr_vecs = np.asarray(attr_vecs, dtype=float)
    vectors = np.vstack([node_vecs, attr_vecs])
    return EmbeddingModel(vectors=vectors, context=vectors.copy(),
                          n=node_vecs.shape[0], attr_ids=list(attr_ids or []))


def _clustering(assignment, centers):
    assignment = np.asarray(assignment)
    centers = np.asarray(centers, dtype=float)
    return Clustering(assignment=assignment, centers=centers, inertia=0.0)


class TestDescribeDirect:
    def test_single_attribute(self):
        model = _model([[0.0, 0.0]], [[1.0, 1.0]], attr_ids=["only"])
        clus = _clustering([0], [[0.0, 0.0]])
        descs = describe_direct(model, clus, q=1)
        assert len(descs) == 1 and descs[0].mode == "direct"
        (topic,) = descs[0].topics
        assert topic.topic_id is None and topic.distance is None
        assert topic.keywords == (("only", pytest.approx(np.sqrt(2.0))),)

    def test_exact_center_hit_ranks_first(self):
        attrs = [[3.0, 4.0], [0.0, 0.0], [10.0, 10.0]]
        model = _model([[0.0, 0.0]] * 2, attrs, attr_ids=["a", "b", "c"])
        clus = _clustering([0, 0], [[3.0, 4.0]])
        kws = describe_direct(model, clus, q=3)[0].topics[0].keywords
        assert kws[0] == ("a", 0.0)
        assert [k for k, _ in kws] == ["a", "b", "c"]

    def test_matches_bruteforce_ranking(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n, m, d = (int(rng.integers(2, 6)), int(rng.integers(2, 9)),
                       int(rng.integers(1, 5)))
            model = _model(rng.normal(size=(n, d)), rng.normal(size=(m, d)))
            centers = rng.normal(size=(2, d))
            clus = _clustering(rng.integers(0, 2, size=n), centers)
            q = int(rng.integers(1, m + 1))
            descs = describe_direct(model, clus, q=q)
            for cid, desc in enumerate(descs):
                want = oracles.nearest_q_bruteforce(centers[cid],
                                                    model.attr_vectors, q)
                got = desc.topics[0].keywords
                assert len(got) == q
                assert [a for a, _ in got] == [str(i) for _, i in want]
                for (_, dist), (ref, _) in zip(got, want):
                    assert dist == pytest.approx(ref, abs=1e-12)

    def test_full_order_when_q_equals_m(self):
        rng = np.random.default_rng(12)
        model = _model(rng.normal(size=(3, 4)), rng.normal(size=(6, 4)))
        clus = _clustering([0, 1, 0], rng.normal(size=(2, 4)))
        for desc in describe_direct(model, clus, q=6):
            kws = desc.topics[0].keywords
            names = [a for a, _ in kws]
            assert sorted(names) == [str(i) for i in range(6)]
            dists = [d for _, d in kws]
            assert dists == sorted(dists)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(13)
        node = rng.normal(size=(4, 5))
        attr = rng.normal(size=(7, 5))
        centers = rng.normal(size=(3, 5))
        rot, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        base = describe_direct(_model(node, attr),
                               _clustering([0, 1, 2, 0], centers), q=4)
        spun = describe_direct(_model(node @ rot, attr @ rot),
                               _clustering([0, 1, 2, 0], centers @ rot), q=4)
        for d0, d1 in zip(base, spun):
            k0, k1 = d0.topics[0].keywords, d1.topics[0].keywords
            assert [a for a, _ in k0] == [a for a, _ in k1]
            for (_, x), (_, y) in zip(k0, k1):
                assert x == pytest.approx(y, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        model = _model(rng.normal(size=(3, 3)), rng.normal(size=(5, 3)))
        clus = _clustering([0, 1, 1], rng.normal(size=(2, 3)))
        a = describe_direct(model, clus, q=3)
        b = describe_direct(model, clus, q=3)
        assert a == b

    def test_validation(self):
        model = _model(np.eye(2), np.eye(2))
        clus = _clustering([0, 1], np.eye(2))
        with pytest.raises(ValueError, match="q"):
            describe_direct(model, clus, q=0)
        with pytest.raises(ValueError, match="exceeds"):
            describe_direct(model, clus, q=3)
        bad = _clustering([0, 1], np.ones((2, 5)))
        with pytest.raises(ValueError, match="dimensionality"):
            describe_direct(model, bad, q=1)

    def test_cosine_metric(self):
        # same direction at different scales: cosine ties them at zero
        attrs = [[2.0, 0.0], [40.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
        model = _model([[0.0, 0.0]], attrs, attr_ids=list("abcd"))
        clus = _clustering([0], [[1.0, 0.0]])
        kws = describe_direct(model, clus, q=4, metric="cosine")[0]
        names = [a for a, _ in kws.topics[0].keywords]
        dists = [d for _, d in kws.topics[0].keywords]
        assert names == ["a", "b", "c", "d"]  # stable tie-break on index
        assert dists == pytest.approx([0.0, 0.0, 1.0, 2.0], abs=1e-12)

    def test_cosine_zero_vector_is_far(self):
        attrs = [[0.0, 0.0], [1.0, 0.0]]
        model = _model([[0.0, 0.0]], attrs, attr_ids=["zero", "hit"])
        clus = _clustering([0], [[1.0, 0.0]])
        kws = describe_direct(model, clus, q=2, metric="cosine")[0]
        assert [a for a, _ in kws.topics[0].keywords] == ["hit", "zero"]

    def test_cosine_from_zero_center_is_one(self):
        model = _model([[0.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]],
                       attr_ids=["a", "b"])
        clus = _clustering([0], [[0.0, 0.0]])
        kws = describe_direct(model, clus, q=2, metric="cosine")[0]
        assert kws.topics[0].keywords == (("a", 1.0), ("b", 1.0))

    def test_unknown_metric(self):
        model = _model(np.eye(2), np.eye(2))
        clus = _clustering([0, 1], np.eye(2))
        with pytest.raises(ValueError, match="metric"):
            describe_direct(model, clus, q=1, metric="manhattan")


class TestDescribeTopics:
    def _fixture(self):
        # two well separated attribute lobes, two node communities
        attrs = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2],
                          [5.0, 5.0], [5.2, 5.0], [5.0, 5.2]])
        nodes = np.array([[0.1, 0.1], [0.1, 0.0], [5.1, 5.1], [5.0, 5.1]])
        model = _model(nodes, attrs)
        node_clus = _clustering([0, 0, 1, 1],
                                [[0.1, 0.05], [5.05, 5.1]])
        attr_clus = _clustering([0, 0, 0, 1, 1, 1],
                                [[0.0667, 0.0667], [5.0667, 5.0667]])
        return model, node_clus, attr_clus

    def test_each_community_prefers_its_lobe(self):
        model, node_clus, attr_clus = self._fixture()
        descs = describe_topics(model, node_clus, attr_clus, q=3, t=2)
        assert descs[0].topics[0].topic_id == 0
        assert descs[1].topics[0].topic_id == 1
        for desc in descs:
            dists = [t.distance for t in desc.topics]
            assert dists == sorted(dists)
            assert desc.mode == "topic"

    def test_keywords_come_from_topic_center(self):
        model, node_clus, attr_clus = self._fixture()
        descs = describe_topics(model, node_clus, attr_clus, q=2, t=1)
        for desc in descs:
            topic = desc.topics[0]
            members = np.flatnonzero(attr_clus.assignment == topic.topic_id)
            want = oracles.nearest_q_bruteforce(
                attr_clus.centers[topic.topic_id],
                model.attr_vectors[members], 2)
            got_names = [a for a, _ in topic.keywords]
            assert got_names == [str(members[i]) for _, i in want]

    def test_single_topic_covers_all(self):
        model, node_clus, _ = self._fixture()
        attr_clus = _clustering([0] * 6, [[2.5, 2.5]])
        descs = describe_topics(model, node_clus, attr_clus, q=6, t=1)
        for desc in descs:
            assert len(desc.topics) == 1
            assert len(desc.topics[0].keywords) == 6

    def test_truncation_notice(self, caplog):
        model, node_clus, attr_clus = self._fixture()
        with caplog.at_level(logging.WARNING, logger="semgraph.describe"):
            descs = describe_topics(model, node_clus, attr_clus, q=5, t=1)
        assert any("truncated" in rec.message for rec in caplog.records)
        for desc in descs:
            assert len(desc.topics[0].keywords) == 3  # lobe size

    def test_validation(self):
        model, node_clus, attr_clus = self._fixture()
        with pytest.raises(ValueError, match="t=3 exceeds"):
            describe_topics(model, node_clus, attr_clus, t=3)
        with pytest.raises(ValueError, match="t must be"):
            describe_topics(model, node_clus, attr_clus, t=0)
        with pytest.raises(ValueError, match="q must be"):
            describe_topics(model, node_clus, attr_clus, q=0)
        short = _clustering([0, 0, 1, 1], attr_clus.centers)
        with pytest.raises(ValueError, match="cover"):
            describe_topics(model, node_clus, short)


class TestFormatting:
    def test_direct_block(self):
        model = _model([[0.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]],
                       attr_ids=["x", "y"])
        clus = _clustering([0], [[0.0, 0.0]])
        text = format_descriptions(describe_direct(model, clus, q=2))
        assert text == "community 0\n1\tx\t1\n2\ty\t2"

    def test_topic_block_headers(self):
        attrs = np.array([[0.0, 0.0], [4.0, 0.0]])
        model = _model([[0.0, 0.0]], attrs, attr_ids=["p", "q"])
        node_clus = _clustering([0], [[1.0, 0.0]])
        attr_clus = _clustering([0, 1], attrs)
        text = format_descriptions(
            describe_topics(model, node_clus, attr_clus, q=1, t=2))
        lines = text.splitlines()
        assert lines[0] == "community 0"
        assert lines[1] == "topic 0 (dist 1)"
        assert lines[2] == "1\tp\t0"
        assert lines[3] == "topic 1 (dist 3)"
        assert lines[4] == "1\tq\t0"


class TestPipelineExclusivity:
    def test_planted_blocks_yield_exclusive_keywords(self):
        g = planted_attributed_sbm(nodes=60, blocks=2, intra=0.25,
                                   inter=0.02, attrs_per_block=6,
                                   inclusion=0.7, seed=3)
        model = embed(g, dim=16, order=4)
        clus = kmeans(model.node_vectors, 2, seed=0)
        descs = describe_direct(model, clus, q=4)
        # map each community to its majority planted block
        for desc in descs:
            members = np.flatnonzero(clus.assignment == desc.community_id)
            block = int(np.bincount(np.asarray(g.labels)[members]).argmax())
            names = [a for a, _ in desc.topics[0].keywords]
            own = sum(attribute_block(a) == block for a in names)
            assert own >= 3, (desc.community_id, names)
