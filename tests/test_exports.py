import cayley_stiefel


def test_public_names_resolve_once():
    names = cayley_stiefel.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(cayley_stiefel, name), name
