import otmesh


def test_exports_resolve_and_are_sorted_without_duplicates():
    assert [name for name in otmesh.__all__ if not hasattr(otmesh, name)] == []
    assert otmesh.__all__ == sorted(set(otmesh.__all__))
