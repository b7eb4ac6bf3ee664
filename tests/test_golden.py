"""Replay a recorded CLI corpus in-process and require byte-identical stdout.

golden_cli.json holds the argv, exit code, stdout and stderr of fresh-process
`fibcomp` calls covering count, enumerate, series, map, verify and analytic.
"{cache}" in an argv stands for an empty cache directory.  Program-owned
`error:` lines on stderr must match too; argparse's usage text varies across
Python versions, so for usage errors only the exit code and stdout count.
"""

import json
from pathlib import Path

import pytest

from fibcomp import cli

CORPUS = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="ascii"))


@pytest.mark.parametrize("record", CORPUS, ids=[" ".join(r["argv"]) for r in CORPUS])
def test_golden_cli_output(record, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FIBCOMP_CACHE_DIR", raising=False)
    argv = [arg.replace("{cache}", str(tmp_path)) for arg in record["argv"]]
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert code == record["exit"]
    assert out == record["stdout"]
    if record["stderr"].startswith("error:"):
        assert err == record["stderr"]
