"""Smoke tests: every shipped example runs to completion.

Each example is executed in-process (``runpy``) with stdout captured,
end to end exactly as a user would run it.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "placement_study.py",
    "covert_channel.py",
    "defense_screening.py",
    "aes_key_recovery.py",
]


@pytest.mark.parametrize("example", FAST_EXAMPLES)
def test_example_runs(example, capsys):
    runpy.run_path(str(EXAMPLES_DIR / example), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report


def test_examples_directory_complete():
    """Every example in the directory runs here, and every one run
    here exists."""
    present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert present == set(FAST_EXAMPLES)


def test_covert_example_message_mostly_intact(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "covert_channel.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "received" in out
    assert "LeakyDSP" in out  # the message survived transmission


def test_aes_example_recovers_the_fips_key(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "aes_key_recovery.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "full key recovered: True" in out
    assert "recovered master key: 2b7e151628aed2a6abf7158809cf4f3c" in out
