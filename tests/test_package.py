import makespan


def test_all_names_resolve_once():
    names = makespan.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(makespan, n)] == []
