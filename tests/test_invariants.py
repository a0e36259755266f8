"""Cross-module invariants tied to the structural lemmas."""

import pytest

from sqfpow import (
    Corpus,
    bundled_corpus,
    block_decomposition,
    cm_clique_partition,
    edge_ideal,
    induced_matching_number,
    is_block_graph,
    regularity,
    run_campaign,
    sqfree_power,
)
from sqfpow.hypergraphs import matching_number


@pytest.fixture(scope="module")
def catalog():
    return bundled_corpus("graphs_le7")


@pytest.fixture(scope="module")
def chordal8():
    return [it.obj for it in bundled_corpus("chordal_le9") if it.obj.n == 8]


def test_special_block_existence_n8(chordal8):
    count = 0
    for G in chordal8:
        if not is_block_graph(G):
            continue
        special = [t for t in block_decomposition(G).special_type if t != "none"]
        assert special, f"no special block in {G!r}"
        count += 1
    assert count > 200


def test_distant_leaf_existence(catalog):
    for item in catalog:
        G = item.obj
        if not G.edges or not is_block_graph(G):
            continue
        dec = block_decomposition(G)
        assert any(dec.distant_leaf), f"no distant leaf block in {G!r}"


def test_cm_chordal_reg_is_nu1_plus_one(catalog):
    # consistency with the chordal regularity formula reg I(G) = nu_1 + 1
    count = 0
    for item in catalog:
        G = item.obj
        if not G.edges or cm_clique_partition(G) is None:
            continue
        assert regularity(edge_ideal(G)) == induced_matching_number(G) + 1
        count += 1
    assert count == 92  # CM chordal graphs with edges, n <= 7


def test_weakly_chordal_reg_formula_spotcheck(catalog):
    # the cited formula holds for chordal graphs; spot check on the catalog
    from sqfpow import is_chordal

    count = 0
    for item in catalog:
        G = item.obj
        if not G.edges or G.n > 6 or not is_chordal(G)[0]:
            continue
        assert regularity(edge_ideal(G)) == induced_matching_number(G) + 1
        count += 1
    assert count > 100


def test_aim_deletion_campaign_block_corpus(catalog):
    corpus = Corpus.from_objects(
        [it.obj for it in catalog if it.obj.n <= 6], "le6"
    )
    report = run_campaign("aim-deletion", corpus)
    assert report.ok
    assert sum(r.data.get("checks", 0) for r in report.records) > 1000


def test_restriction_campaign_trees(catalog):
    corpus = Corpus.from_objects(
        [it.obj for it in catalog if it.obj.n <= 5 and it.obj.edges][:40], "le5"
    )
    report = run_campaign("restriction", corpus)
    assert report.ok


def test_sqfree_power_nested_in_previous(catalog):
    # I^[k] subset of I^[k-1]: every generator is divisible by one below
    for item in list(catalog)[200:260]:
        G = item.obj
        nu = matching_number(G)
        for k in range(2, nu + 1):
            upper = sqfree_power(G, k)
            lower = sqfree_power(G, k - 1)
            for g in upper.gens:
                assert any(h & g == h for h in lower.gens)
