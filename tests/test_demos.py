"""Every demo runs to the end in this interpreter and prints something.

Demos write under their working directory, so each runs in a fresh
temporary one.
"""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DEMOS) if n.endswith(".py")))
def test_demo_runs(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert capsys.readouterr().out.strip()
