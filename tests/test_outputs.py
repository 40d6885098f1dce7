import json
import math
import os
import stat
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from pinlab.disorder_mc import EstimateSeries, McConfig, correlation_decay_scan
from pinlab.model import build_law, zero_disorder
from pinlab.outputs import (
    SERIES_HEADER,
    atomic_write_text,
    plot_decay,
    plot_report,
    plot_series,
    read_series_csv,
    svg_line_plot,
    write_decay_csv,
    write_report_json,
    write_seeds_json,
    write_series_csv,
)
from pinlab.theorems import CheckReport


def _series():
    return [
        EstimateSeries("f", 2.0, 64, 1.0 / 3.0, 0.01, 40),
        EstimateSeries("f", 2.5, 64, 0.123456789012345e-7, 0.01, 40),
        EstimateSeries("mu", 2.0, 64, 1.75, float("nan"), 40),
    ]


def test_atomic_write_creates_dirs_and_leaves_no_debris(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(str(target), "payload")
    assert target.read_text() == "payload"
    leftovers = [p for p in (tmp_path / "a" / "b").iterdir()
                 if p.name != "out.txt"]
    assert leftovers == []


def test_atomic_write_gives_the_umask_default_mode(tmp_path):
    # an artifact is as readable as any file the user creates: mode
    # 0o666 under the umask, not a temp file's 0o600
    old = os.umask(0o022)
    try:
        for mask in (0o022, 0o077, 0o002):
            os.umask(mask)
            target = tmp_path / f"out{mask:o}.txt"
            atomic_write_text(str(target), "payload")
            assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~mask
    finally:
        os.umask(old)


def test_series_csv_round_trips_exact_doubles(tmp_path):
    p = tmp_path / "series.csv"
    rows = _series()
    write_series_csv(str(p), rows)
    text = p.read_text()
    assert text.splitlines()[0] == SERIES_HEADER
    back = read_series_csv(str(p))
    for a, b in zip(rows, back):
        assert a.quantity == b.quantity and a.h == b.h and a.n == b.n
        assert a.mean == b.mean  # bitwise, thanks to repr formatting
        assert a.stderr == b.stderr or (math.isnan(a.stderr)
                                        and math.isnan(b.stderr))
    # writing what was read reproduces the bytes
    p2 = tmp_path / "series2.csv"
    write_series_csv(str(p2), back)
    assert p2.read_bytes() == p.read_bytes()


def test_series_csv_header_check(tmp_path):
    p = tmp_path / "junk.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_series_csv(str(p))


def test_report_json_counts(tmp_path):
    reports = [
        CheckReport("C9", "d", {}, {"violations": 0}, {}, {}, True),
        CheckReport("C4", "d", {}, {}, {}, {}, None, "pure model"),
        CheckReport("C2", "d", {}, {"ks": 0.2}, {}, {}, False),
    ]
    p = tmp_path / "report.json"
    write_report_json(str(p), reports)
    payload = json.loads(p.read_text())
    assert payload["counts"] == {"pass": 1, "fail": 1, "skip": 1}
    assert payload["passed"] is False  # a skip alone would not fail the run
    write_report_json(str(p), reports[:2])
    assert json.loads(p.read_text())["passed"] is True


def test_seeds_manifest(tmp_path):
    p = tmp_path / "seeds.json"
    write_seeds_json(str(p), 20260815, 200)
    data = json.loads(p.read_text())
    assert data["master_seed"] == 20260815
    assert data["samples"] == 200
    assert "philox" in data["scheme"]


def _decay():
    law = build_law(1.0, None, 64)
    cfg = McConfig(law, zero_disorder(), (1.0,), (32,), 2, 1, window=16)
    return correlation_decay_scan(cfg, 1.0, fit_range=(4, 12))


def test_decay_csv(tmp_path):
    d = _decay()
    p = tmp_path / "decay.csv"
    write_decay_csv(str(p), [d])
    lines = p.read_text().splitlines()
    assert lines[0] == "h,j,log_mean_a,rel_stderr"
    assert len(lines) == 1 + d.window
    h, j, val, _ = lines[1].split(",")
    assert float(h) == 1.0 and int(j) == 1
    assert float(val) == d.log_mean_a[1]


def test_svg_plot_is_wellformed_xml(tmp_path):
    p = tmp_path / "plot.svg"
    svg_line_plot(str(p), "t", "x", "y",
                  [("a", [0, 1, 2], [0.0, 1.0, 4.0]),
                   ("b", [0, 1, 2], [1.0, float("nan"), 2.0])])
    root = ET.parse(str(p)).getroot()
    assert root.tag.endswith("svg")
    body = p.read_text()
    assert "polyline" in body and "t" in body


def test_svg_plot_degenerate_inputs(tmp_path):
    # single point: padded ranges, still valid
    p = tmp_path / "one.svg"
    svg_line_plot(str(p), "t", "x", "y", [("a", [1.0], [2.0])])
    ET.parse(str(p))
    with pytest.raises(ValueError):
        svg_line_plot(str(tmp_path / "none.svg"), "t", "x", "y",
                      [("a", [0.0], [float("nan")])])
    assert not (tmp_path / "none.svg").exists()


def test_plot_series_outputs(tmp_path):
    series = [
        EstimateSeries("f", 1.0, 32, 0.5, 0.0, 4),
        EstimateSeries("f", 2.0, 32, 1.2, 0.0, 4),
        EstimateSeries("f", 1.0, 64, 0.6, 0.0, 4),
        EstimateSeries("f", 2.0, 64, 1.3, 0.0, 4),
        EstimateSeries("mu", 1.0, 64, 0.4, 0.0, 4),
        EstimateSeries("mu", 2.0, 64, 1.1, 0.0, 4),
        EstimateSeries("w", 1.0, 32, 0.2, 0.0, 4),
        EstimateSeries("w", 1.0, 64, 0.25, 0.0, 4),
    ]
    written = plot_series(str(tmp_path), series)
    names = sorted(os.path.basename(w) for w in written)
    assert names == ["f_vs_h.svg", "mu_vs_h.svg", "w_vs_n.svg"]
    for w in written:
        assert os.path.exists(w)
        ET.parse(w)


def test_plot_series_needs_multiple_points(tmp_path):
    assert plot_series(str(tmp_path),
                       [EstimateSeries("f", 1.0, 32, 0.5, 0.0, 4)]) == []


def test_plot_decay(tmp_path):
    p = tmp_path / "decay.csv"
    d = _decay()
    write_decay_csv(str(p), [d])
    written = plot_decay(str(tmp_path), str(p))
    assert [os.path.basename(w) for w in written] == ["avoidance_vs_j.svg"]
    ET.parse(written[0])
    # a curve with no finite point is left out; none left, no plot
    dead = replace(d, log_mean_a=np.full_like(d.log_mean_a, -np.inf))
    write_decay_csv(str(p), [dead])
    os.remove(written[0])
    assert plot_decay(str(tmp_path), str(p)) == []
    assert not os.path.exists(written[0])
    write_decay_csv(str(p), [dead, replace(d, h=2.0)])
    assert plot_decay(str(tmp_path), str(p)) == written
    ET.parse(written[0])
    assert "h=2" in open(written[0]).read()
    assert "h=1" not in open(written[0]).read()
    p.write_text("quantity,h\n")
    with pytest.raises(ValueError):
        plot_decay(str(tmp_path), str(p))


def test_plot_report_reads_clt_metrics(tmp_path):
    report = {
        "checks": [{
            "check_id": "C2",
            "parameters": {"n_values": [64, 128]},
            "metrics": {"ks_mean_n64": 0.08, "ks_mean_n128": 0.05},
        }],
    }
    rp = tmp_path / "report.json"
    rp.write_text(json.dumps(report))
    written = plot_report(str(tmp_path), str(rp))
    assert [os.path.basename(w) for w in written] == ["ks_vs_n.svg"]
    # a report without C2 yields no plot and no error
    rp.write_text(json.dumps({"checks": []}))
    assert plot_report(str(tmp_path), str(rp)) == []
