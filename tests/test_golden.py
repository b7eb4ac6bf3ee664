"""Replay recorded outputs in-process and require them unchanged.

golden_cli.json holds the argv, exit code, stdout and stderr of fresh-process
`fibcomp` calls covering count, enumerate, series, map, verify and analytic.
"{cache}" in an argv stands for an empty cache directory.  Every record runs
with FIBCOMP_CACHE_DIR naming a directory of corrupt p and q tables, which
fails a record that reads the environment or writes there.  Program-owned
`error:` lines on stderr must match too; argparse's usage text varies across
Python versions, so for usage errors only the exit code and stdout count.

golden_series.json holds the report of `rademacher_p(n)` and `hagis_q(n)` at
default settings for n = 1..60, 100, 250, 330, 450, 1000 and 2000: `rounded`,
`certified`, `k_terms`, `precision_bits`, and `raw` and `residual` printed
with mpmath's `mp.nstr` to 30 and 3 digits, the digits `fibcomp analytic`
prints through its port of that formatter.  Each record is checked twice:
against the library's report through mpmath, and as the document
`fibcomp analytic --json` prints, whose keys are the record's.  A
kernel change must leave every field as recorded; the file is never
re-captured to make a change pass.
"""

import json
from pathlib import Path

import pytest
from mpmath import mp

from fibcomp import analytic, cli

CORPUS = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="ascii"))
SERIES = json.loads(Path(__file__).with_name("golden_series.json").read_text(encoding="ascii"))


# each fails its recurrence at index 2
POISON = {
    "p.table": b"fibcomp-table v1 kind=p max=2\n1\n1\n3\n",
    "q.table": b"fibcomp-table v1 kind=q max=2\n1\n1\n2\n",
}


@pytest.mark.parametrize("record", CORPUS, ids=[" ".join(r["argv"]) for r in CORPUS])
def test_golden_cli_output(record, tmp_path, capsys, monkeypatch):
    cache, poisoned = tmp_path / "cache", tmp_path / "poisoned"
    cache.mkdir()
    poisoned.mkdir()
    for name, data in POISON.items():
        (poisoned / name).write_bytes(data)
    monkeypatch.setenv("FIBCOMP_CACHE_DIR", str(poisoned))
    argv = [arg.replace("{cache}", str(cache)) for arg in record["argv"]]
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert code == record["exit"]
    assert out == record["stdout"]
    if record["stderr"].startswith("error:"):
        assert err == record["stderr"]
    assert {entry.name: entry.read_bytes() for entry in poisoned.iterdir()} == POISON


@pytest.mark.parametrize("record", SERIES, ids=[f"{r['series']} {r['n']}" for r in SERIES])
def test_golden_series_report(record):
    evaluate = analytic.rademacher_p if record["series"] == "p" else analytic.hagis_q
    report = evaluate(record["n"])
    assert {
        "series": record["series"],
        "n": report.n,
        "rounded": report.rounded,
        "certified": report.certified,
        "k_terms": report.k_terms_used,
        "precision_bits": report.precision_bits,
        "raw": mp.nstr(report.raw_value, 30),
        "residual": mp.nstr(report.residual, 3),
    } == record


@pytest.mark.parametrize("record", SERIES, ids=[f"{r['series']} {r['n']}" for r in SERIES])
def test_golden_series_through_the_cli(record, capsys):
    # the same record, its digits printed by the CLI's own nstr: its keys
    # are exactly the --json keys
    assert cli.run(["analytic", "--json", record["series"], str(record["n"])]) == 0
    out, err = capsys.readouterr()
    assert (json.loads(out), err) == (record, "")
