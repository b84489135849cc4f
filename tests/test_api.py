import cdgraph


def test_every_exported_name_resolves():
    missing = [name for name in cdgraph.__all__ if not hasattr(cdgraph, name)]
    assert not missing
    assert len(set(cdgraph.__all__)) == len(cdgraph.__all__)
