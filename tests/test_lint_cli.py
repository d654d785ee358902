"""CLI smoke tests: ``python -m repro.lint`` / ``sdp-bench lint``.

Exercises the driver through its public ``main(argv)`` entry points —
exit codes, text/JSON output, baseline suppression, and the delegation
from ``sdp-bench lint``. A seeded fixture tree provides a reliably dirty
target; the repo's own clean-tree behavior is covered by
``test_lint_clean.py``.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.bench.cli import main as bench_main
from repro.lint.cli import main as lint_main

pytestmark = pytest.mark.lint


@pytest.fixture()
def clean_tree(tmp_path):
    path = tmp_path / "clean" / "src" / "repro" / "core" / "ok.py"
    path.parent.mkdir(parents=True)
    path.write_text("from repro.cost.model import CostModel\n")
    return path.parents[2]


@pytest.fixture()
def dirty_tree(tmp_path):
    path = tmp_path / "dirty" / "src" / "repro" / "cost" / "bad.py"
    path.parent.mkdir(parents=True)
    path.write_text(textwrap.dedent("""\
        from repro.core.base import Optimizer

        def tie(cost, best_cost):
            return cost == best_cost
    """))
    return path.parents[2]


def test_clean_tree_exits_zero(clean_tree, capsys):
    assert lint_main([str(clean_tree)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_dirty_tree_exits_one_with_rendered_findings(dirty_tree, capsys):
    assert lint_main([str(dirty_tree)]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out and "RL003" in out
    # path:line:col CODE message
    assert "bad.py:1:0 RL001" in out


def test_json_format_is_parseable(dirty_tree, capsys):
    assert lint_main([str(dirty_tree), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_scanned"] == 1
    codes = {f["code"] for f in payload["findings"]}
    assert codes == {"RL001", "RL003"}
    first = payload["findings"][0]
    assert set(first) == {"path", "line", "col", "code", "message"}


def test_write_then_apply_baseline_suppresses(dirty_tree, tmp_path, capsys):
    baseline = tmp_path / "lint-baseline.json"
    assert lint_main([str(dirty_tree), "--write-baseline", str(baseline)]) == 0
    capsys.readouterr()

    assert lint_main([str(dirty_tree), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "2 baselined" in out

    # A fresh finding is NOT hidden by the stale baseline.
    extra = dirty_tree / "repro" / "cost" / "worse.py"
    extra.write_text("from repro.service.service import OptimizationService\n")
    assert lint_main([str(dirty_tree), "--baseline", str(baseline)]) == 1


def test_bad_baseline_is_usage_error(dirty_tree, tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{not json")
    assert lint_main([str(dirty_tree), "--baseline", str(bogus)]) == 2
    assert "bad baseline" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope")]) == 2
    err = capsys.readouterr().err
    assert "no such path" in err
    assert len(err.strip().splitlines()) == 1  # diagnostic, not a traceback


def test_duplicate_paths_scan_each_file_once(dirty_tree, capsys):
    assert lint_main([str(dirty_tree), str(dirty_tree)]) == 1
    once = capsys.readouterr().out
    assert "1 file(s)" in once
    assert once.count("RL003") == 1


def test_syntax_error_is_single_line_diagnostic(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    assert lint_main([str(bad)]) == 2
    err = capsys.readouterr().err
    assert "cannot parse" in err
    assert len(err.strip().splitlines()) == 1


def test_undecodable_file_is_single_line_diagnostic(tmp_path, capsys):
    binary = tmp_path / "binary.py"
    binary.write_bytes(b"\xff\xfe\x00junk\x80")
    assert lint_main([str(binary)]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err
    assert len(err.strip().splitlines()) == 1


def test_list_prints_all_codes(capsys):
    assert lint_main(["--list"]) == 0
    out = capsys.readouterr().out
    for code in (
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
        "RL008", "RL009", "RL011",
    ):
        assert code in out


def test_only_restricts_to_selected_checkers(dirty_tree, capsys):
    # The fixture violates RL001 and RL003; --only RL003 hides RL001.
    assert lint_main([str(dirty_tree), "--only", "RL003"]) == 1
    out = capsys.readouterr().out
    assert "RL003" in out and "RL001" not in out

    assert lint_main([str(dirty_tree), "--only", "RL009,RL011"]) == 0


def test_skip_drops_selected_checkers(dirty_tree, capsys):
    assert lint_main([str(dirty_tree), "--skip", "RL001,RL003"]) == 0
    capsys.readouterr()
    assert lint_main([str(dirty_tree), "--skip", "RL001"]) == 1
    out = capsys.readouterr().out
    assert "RL003" in out and "RL001" not in out


def test_unknown_checker_code_is_usage_error(dirty_tree, capsys):
    assert lint_main([str(dirty_tree), "--only", "RL999"]) == 2
    assert "unknown checker code" in capsys.readouterr().err
    assert lint_main([str(dirty_tree), "--skip", "nope"]) == 2
    assert "unknown checker code" in capsys.readouterr().err


def test_sdp_bench_lint_delegates(dirty_tree, clean_tree, capsys):
    assert bench_main(["lint", str(clean_tree)]) == 0
    capsys.readouterr()
    assert bench_main(["lint", str(dirty_tree)]) == 1
    assert "RL001" in capsys.readouterr().out
