"""Every golden CLI case reproduces its stored record (see tests/golden/regen.py)."""

import json

from golden.regen import CORPUS, compare, run_case


def test_golden_corpus_reproduces(tmp_path):
    corpus = json.loads(CORPUS.read_text())
    assert len(corpus) >= 40
    failures = []
    for name, expected in corpus.items():
        workdir = tmp_path / name
        workdir.mkdir()
        actual = run_case(expected["config"], expected["argv"], workdir)
        failures += [f"{name}{diff}" for diff in compare(actual, expected)]
    assert not failures, "\n".join(failures[:20])
