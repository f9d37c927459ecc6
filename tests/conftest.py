"""Fixtures shared by the test modules."""

import pytest

from hyperpoly import by_name


@pytest.fixture
def unsorted_symbols(tmp_path):
    """W(G,e) over the cyclic group zz, b, aa = b^2, m = b^3 with e = aa,
    read from a Cayley file by its name, so that replay_member can rebuild
    it.  Its payloads in table order are 0, zz, b, aa, m: neither their
    natural order (0, aa, b, m, zz) nor their display order, shortest text
    first (0, b, m, aa, zz)."""
    path = tmp_path / "c4.txt"
    path.write_text("4\nzz b aa m\nb aa m zz\naa m zz b\nm zz b aa\naa\n",
                    encoding="utf-8")
    return by_name(f"W(G,e):{path}")
