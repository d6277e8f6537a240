"""The vocabulary lint (``tools/check_vocab.py``) against DESIGN.md copies."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def check_vocab():
    spec = importlib.util.spec_from_file_location(
        "check_vocab", os.path.join(ROOT, "tools", "check_vocab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_design_md_passes(check_vocab, capsys):
    assert check_vocab.main() == 0
    assert "OK" in capsys.readouterr().out


def test_dead_verifier_code_in_design_md_fails(check_vocab, tmp_path,
                                                monkeypatch, capsys):
    # A code the verifier no longer emits must not stay documented.
    with open(check_vocab.DESIGN_PATH) as handle:
        design = handle.read()
    lead = "**Verifier codes** (`VERIFIER_CODES`): "
    assert lead in design
    copy = tmp_path / "DESIGN.md"
    copy.write_text(design.replace(lead, lead + "`ghost-code`, "))
    monkeypatch.setattr(check_vocab, "DESIGN_PATH", str(copy))
    assert check_vocab.main() == 1
    assert "ghost-code" in capsys.readouterr().err
