"""README transcripts: every fenced block that starts with a
``$ admcdm …`` line shows that call's exact stdout, run from the
repository root."""

from __future__ import annotations

import re
import shlex

import pytest

from test_golden import ROOT, capture

BLOCK = re.compile(r"^```\n\$ admcdm ([^\n]*)\n(.*?)^```$", re.M | re.S)
README = (ROOT / "README.md").read_text(encoding="utf-8")


def transcripts():
    return BLOCK.findall(README)


def test_every_transcript_is_read():
    assert len(transcripts()) == README.count("\n$ admcdm ") > 0


@pytest.mark.parametrize("command, output", transcripts(),
                         ids=[c for c, _ in transcripts()])
def test_transcript_is_the_cli_output(command, output):
    assert capture(shlex.split(command)) == {
        "exit": 0, "stdout": output, "stderr": ""}
