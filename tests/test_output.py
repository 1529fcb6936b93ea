import json
from pathlib import Path

from fefetsim import output


def test_csv_formatting_and_determinism(tmp_path):
    rows = [(1, "cand", 1.25e-9, True), (2, "and", 3.0, False)]
    p1 = output.write_csv(str(tmp_path / "a.csv"), ["n", "t", "i", "ok"], rows)
    p2 = output.write_csv(str(tmp_path / "b.csv"), ["n", "t", "i", "ok"], rows)
    body = Path(p1).read_text()
    assert body.splitlines()[0] == "n,t,i,ok"
    assert body == Path(p2).read_text()
    assert "1.250000000000e-09" in body   # fixed-width float formatting
    assert ",1\n" in body and ",0\n" in body  # booleans written as 1/0


def test_manifest_digests_artifacts(tmp_path):
    csv = output.write_csv(str(tmp_path / "t.csv"), ["x"], [(1,), (2,)])
    output.write_manifest(str(tmp_path), "demo",
                          {"seed": 7, "rows": 2}, {"rows": "flag"}, [csv])
    m = json.loads((tmp_path / "manifest.json").read_text())
    assert m["seed"] == 7
    assert m["artifacts"][0]["sha256"] == output.sha256_of(csv)
    assert len(m["config_digest"]) == 64
    assert set(m["versions"]) == {"fefetsim", "numpy", "python"}


def test_svg_plot_is_wellformed(tmp_path):
    p = output.svg_line_plot(str(tmp_path / "p.svg"),
                             {"a": [(1, 1), (10, 100)]},
                             "t", "x", "y", log_x=True, log_y=True)
    body = Path(p).read_text()
    assert body.startswith("<svg") or "<svg" in body
    assert "polyline" in body and "</svg>" in body
