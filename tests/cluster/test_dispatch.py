"""The coordinator's one dispatch rule: least-loaded, URL tie-break."""

import pytest

from repro.cluster.coordinator import NoWorkersError, _least_loaded


def _loads(n, loads=None):
    loads = loads or [0] * n
    return {f"http://127.0.0.1:{9000 + i}": loads[i] for i in range(n)}


class TestLeastLoaded:
    def test_picks_minimum_load(self):
        loads = _loads(3, loads=[5, 1, 3])
        assert _least_loaded(loads) == "http://127.0.0.1:9001"

    def test_tie_breaks_on_url(self):
        # insertion order must not matter: the lowest URL wins a tie
        loads = dict(reversed(list(_loads(3).items())))
        assert _least_loaded(loads) == "http://127.0.0.1:9000"

    def test_spreads_with_tentative_loads(self):
        # the coordinator bumps the chosen worker's load per item; an
        # idle pool must then take items round-robin, not dog-pile
        loads = _loads(3)
        seen = []
        for _ in range(6):
            url = _least_loaded(loads)
            loads[url] += 1
            seen.append(url)
        assert seen == list(_loads(3)) * 2

    def test_empty_pool_raises(self):
        with pytest.raises(NoWorkersError):
            _least_loaded({})
