import json
import math

import pytest

import answer_key


@pytest.mark.parametrize("name", sorted(answer_key.COMMANDS))
def test_seeded_command_matches_the_answer_key(tmp_path, name):
    want = json.loads(answer_key.KEY.read_text())[name]
    got = answer_key.run(answer_key.COMMANDS[name], tmp_path)
    assert answer_key.differences(got, want) == []


def test_the_key_compares_currents_within_the_tolerance_and_the_rest_exactly():
    want = json.loads(answer_key.KEY.read_text())["word_write"]
    got = json.loads(json.dumps(want))
    table = got["csv"]["word_write.csv"]
    header, row = table[0], table[2]
    amps = header.index("min_one_amps")
    # a current a few ulps off still matches; one off by 1e-10 does not
    row[amps] = repr(float(row[amps]) * (1 + 1e-15))
    assert answer_key.differences(got, want) == []
    row[amps] = repr(float(row[amps]) * (1 + 1e-10))
    assert len(answer_key.differences(got, want)) == 1
    row[amps] = want["csv"]["word_write.csv"][2][amps]
    row[header.index("readback")] = "0"
    got["status"] = 1
    assert len(answer_key.differences(got, want)) == 2


def test_every_float_column_takes_a_one_ulp_move_but_not_one_of_1e_10():
    key = json.loads(answer_key.KEY.read_text())
    moved = set()
    for want in key.values():
        for table, rows in want["csv"].items():
            for j, col in enumerate(rows[0]):
                if answer_key.COLUMN_TOL[col] is None:
                    continue
                # a zero is held exactly, REL_TOL of it being 0, and a NaN
                # matches a NaN
                nonzero = [k for k in range(1, len(rows))
                           if math.isfinite(float(rows[k][j]))
                           and float(rows[k][j]) != 0.0]
                got = json.loads(json.dumps(want))
                cells = got["csv"][table]
                for k in nonzero:
                    cells[k][j] = repr(math.nextafter(float(rows[k][j]),
                                                      math.inf))
                assert answer_key.differences(got, want) == [], (table, col)
                cells[nonzero[0]][j] = repr(float(rows[nonzero[0]][j])
                                            * (1 + 1e-10))
                assert len(answer_key.differences(got, want)) == 1
                moved.add(col)
    assert moved == {col for col, tol in answer_key.COLUMN_TOL.items()
                     if tol is not None}
