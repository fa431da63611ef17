"""Graph family (pipelines/graphops.py): the distributed PageRank and
triangle count must equal independent single-process brute-force
restatements of the same integer-exact recurrences on the real
sf0.001 table."""
import numpy as np
import pytest

from web_content_extraction_benchmark_ray.pipelines.graphops import (
    EDGE_A,
    EDGE_B,
    EDGE_C,
    OUT_DEG,
    PR_DAMP_DEN,
    PR_DAMP_NUM,
    PR_ITERS,
    RANK_SCALE,
    _edge_dsts,
    link_pagerank,
    link_triangles,
)

SF = "/root/testdata/sf0.001"


def _brute_edges(n: int) -> set[tuple[int, int]]:
    """Directed edge set by the documented formula, pure Python ints."""
    out = set()
    for s in range(n):
        for j in range(OUT_DEG):
            t = (s * EDGE_A + j * EDGE_B + EDGE_C) % n
            if t == s:
                t = (t + 1) % n
            out.add((s, t))
    return out


def test_edge_dsts_matches_pure_python_and_never_self_loops():
    n = 137
    dst = _edge_dsts(np.arange(n, dtype=np.int64), n)
    assert dst.shape == (n, OUT_DEG)
    assert (dst != np.arange(n)[:, None]).all()
    brute = _brute_edges(n)
    got = {(s, int(d)) for s in range(n) for d in dst[s]}
    assert got == brute


def test_link_pagerank_equals_dense_brute_force(ray_session):
    out = link_pagerank(SF).to_pandas().sort_values("node")
    n = len(out)
    # dense brute force: python-int arithmetic (no wrap), same recurrence
    r = [RANK_SCALE // n] * n
    base = ((PR_DAMP_DEN - PR_DAMP_NUM) * (RANK_SCALE // n)) // PR_DAMP_DEN
    edges = sorted(_brute_edges(n))
    for _ in range(PR_ITERS):
        inflow = [0] * n
        for s, d in edges:
            inflow[d] += r[s] // OUT_DEG
        r = [base + (PR_DAMP_NUM * f) // PR_DAMP_DEN for f in inflow]
    assert out["node"].tolist() == list(range(n))
    assert out["rank_q"].tolist() == r
    # ranks differentiate (the graph is not symmetric) and total mass is
    # <= 1.0 with bounded floor loss
    assert out["rank_q"].nunique() > 1
    total = out["rank_q"].sum()
    assert total <= RANK_SCALE
    # each of the PR_ITERS rounds floors at most (1 + OUT_DEG) units per
    # node in the contribution/damping divisions plus the teleport floor
    assert total > RANK_SCALE - n * (PR_ITERS + 1) * (OUT_DEG + 2)


def test_link_triangles_equals_brute_force(ray_session):
    got = link_triangles(SF).to_pandas()["n_triangles"].iloc[0]
    import pyarrow.parquet as pq

    n = pq.ParquetFile(f"{SF}/documents.parquet").metadata.num_rows
    und = set()
    for s, d in _brute_edges(n):
        und.add((min(s, d), max(s, d)))
    nbrs: dict[int, set[int]] = {}
    for u, v in und:
        nbrs.setdefault(u, set()).add(v)
    brute = 0
    for u, hi in nbrs.items():
        for v in hi:
            brute += len(hi & nbrs.get(v, set()))
    assert int(got) == brute
    assert brute > 0  # the expander actually closes triangles


def test_brute_edges_tiny_graphs_are_well_formed():
    """The self-loop bump keeps edges valid even when n <= OUT_DEG."""
    for n in (1, 2, 3):
        if n == 1:
            # single node: (t+1) % 1 == 0 bumps back to a self loop —
            # the formula's documented degenerate case; just no crash
            dst = _edge_dsts(np.zeros(1, dtype=np.int64), 1)
            assert (dst == 0).all()
            continue
        dst = _edge_dsts(np.arange(n, dtype=np.int64), n)
        assert ((dst >= 0) & (dst < n)).all()
        assert (dst != np.arange(n)[:, None]).all()


def test_link_components_equals_brute_force(ray_session):
    """Distributed request/exchange propagation must equal the serial
    K-round undirected min-label recurrence, and after K rounds each
    label must be the true min doc_id within K undirected hops."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.graphops import (
        CC_ITERS,
        link_components,
    )

    got = {
        int(r["node"]): int(r["label"])
        for r in link_components(SF).take_all()
    }
    n = pq.ParquetFile(f"{SF}/documents.parquet").metadata.num_rows
    nbrs: dict[int, set[int]] = {v: set() for v in range(n)}
    for s, d in _brute_edges(n):
        nbrs[s].add(d)
        nbrs[d].add(s)
    lab = {v: v for v in range(n)}
    for _ in range(CC_ITERS):
        lab = {
            v: min([lab[v]] + [lab[u] for u in nbrs[v]]) for v in lab
        }
    assert got == lab
    # BFS cross-check: label(v) == min node within CC_ITERS hops
    for v in (0, 1, n // 2, n - 1):
        frontier, seen = {v}, {v}
        for _ in range(CC_ITERS):
            frontier = {
                u for f in frontier for u in nbrs[f] if u not in seen
            }
            seen |= frontier
        assert got[v] == min(seen)


def test_link_components_rejects_a_link_target_that_is_not_a_document(
    ray_session, tmp_path
):
    """Link targets are derived as ``f(doc_id) % n``, so they assume the
    doc_ids are exactly 0..n-1.  With one targeted doc removed, the
    exchange must fail loudly instead of handing a neighbour's label (or
    an IndexError) to the requester."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.graphops import (
        link_components,
    )

    docs = pq.read_table(f"{SF}/documents.parquet")
    ids = np.asarray(docs["doc_id"].to_pylist(), np.int64)
    n = len(ids) - 1
    gone = next(
        int(t) for t in np.unique(_edge_dsts(ids, n))
        if t in _edge_dsts(ids[ids != t], n)
    )
    pq.write_table(
        docs.filter(pc.not_equal(docs["doc_id"], gone)),
        tmp_path / "documents.parquet",
    )
    with pytest.raises(Exception, match="contiguous doc_ids") as err:
        link_components(str(tmp_path)).take_all()
    assert f"link target {gone} is not a doc_id" in str(err.value)
