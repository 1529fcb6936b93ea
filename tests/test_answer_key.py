import json

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
