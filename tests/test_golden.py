"""Every golden CLI case reproduces its stored record (see tests/golden/regen.py)."""

import json

from golden.regen import CORPUS, compare, run_case
from tvcsim.config import SCHEMA


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


def test_every_config_key_is_set_by_some_golden_case():
    # a key that no stored case sets has no output pinned through the CLI
    corpus = json.loads(CORPUS.read_text())
    keys = set()
    for case in corpus.values():
        if case["config"] is not None:
            keys |= {line.partition("=")[0].strip() for line in case["config"].splitlines()
                     if line.strip()}
    assert sorted(set(SCHEMA) - keys) == []
