import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "report_diff", Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
)
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)

OLD = {"dim": 2, "pass": True, "rows": [{"matched": 0.25}], "rep": "clock-subspace"}


@pytest.mark.parametrize(
    "change, code, row",
    [
        ({}, 0, None),
        (
            {"rows": [{"matched": 0.25 + 2**-54}]},
            0,
            "| `$.rows[0].matched` | 0.25 | 0.25000000000000006 | 5.6e-17 |",
        ),
        ({"dim": 3}, 1, "| `$.dim` | 2 | 3 |  |"),
        ({"pass": False}, 1, "| `$.pass` | true | false |  |"),
        ({"rep": "unary-full-space"}, 1, '| `$.rep` | "clock-subspace" | "unary-full-space" |  |'),
        ({"rows": []}, 1, "| `$.rows.length` | 1 | 0 |  |"),
        ({"dim": 2.0}, 1, "| `$.dim` | 2 | 2.0 |  |"),
    ],
)
def test_rows_and_exit_code(tmp_path, capsys, change, code, row):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(OLD))
    new.write_text(json.dumps(OLD | change))
    assert report_diff.main([str(old), str(new)]) == code
    lines = capsys.readouterr().out.splitlines()
    header = ["| field | old | new | \\|Δ\\| |", "|---|---|---|---|"]
    assert lines == ([] if row is None else header + [row])
