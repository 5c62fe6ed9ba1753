"""The CLI's exit codes and stdout bytes against the committed record.

``cli_record.json`` is regenerated with ``python tests/cli_record.py
--write``; a change that moves output on purpose says which vectors
moved and why.
"""

import hashlib

import cli_record


def test_output_matches_record():
    diffs = cli_record.replay(cli_record.load())
    assert not diffs, "\n".join(diffs)


def test_output_matches_record_replayed_backward():
    # every call after the first reuses one parser, so no call may leave
    # state on it that moves a later call's output
    diffs = cli_record.replay(cli_record.load()[::-1])
    assert not diffs, "\n".join(diffs)


def test_record_holds_every_fixed_vector_once():
    record = cli_record.load()
    by_argv = {" ".join(e["argv"]): e for e in record}
    assert len(by_argv) == len(record) >= 350
    for line in (cli_record.SMOKE + cli_record.UNDERFLOW + cli_record.POPULATION
                 + cli_record.EDGE + cli_record.COLUMNS):
        assert line in by_argv, line
    # an audit grid that skips every age still rejects a bad --s1
    audit = by_argv["rule --mu-grid 10:14:1 --s1 -1 --t 0.5"]
    assert audit["exit"] == 2
    assert audit["stdout_sha256"] == hashlib.sha256(b"").hexdigest()
