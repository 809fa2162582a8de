import minplustree


def test_all_names_resolve():
    # a stale __all__ entry breaks ``from minplustree import *``
    missing = [name for name in minplustree.__all__ if not hasattr(minplustree, name)]
    assert missing == []
    namespace: dict = {}
    exec("from minplustree import *", namespace)
    assert set(minplustree.__all__) <= set(namespace)
