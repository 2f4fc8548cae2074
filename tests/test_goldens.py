"""The golden listing names exactly the goldens whose bytes moved."""

from goldens import LONG_FORM_SHA256, compare, print_listing


def test_listing_names_only_the_altered_golden(capsys):
    # only the 2^16 x 4 scramble recipe runs; the perfbench rows never do
    altered = list(LONG_FORM_SHA256)
    altered[2] = "0" * 64
    rows = compare(cli={}, reports={}, long_form=tuple(altered))
    assert [frozen for _, frozen, _ in rows] == altered
    assert [current for _, _, current in rows] == list(LONG_FORM_SHA256)
    assert print_listing(rows) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.endswith("DIFFERS") for line in lines[:-1]] == [False, False, True, False]
    assert lines[2].startswith(rows[2][0] + " ")
    assert lines[-1] == "4 goldens, 1 differ"
