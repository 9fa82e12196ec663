"""The CLI's outputs, run in process, match the committed golden manifest.

``tools/golden_corpus.py`` defines the runs, the manifest and the comparison;
its docstring says how to regenerate ``golden_manifest.json``.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((Path(__file__).parent / "golden_manifest.json").read_text())


@pytest.fixture(scope="module")
def golden_corpus():
    spec = importlib.util.spec_from_file_location(
        "golden_corpus", ROOT / "tools" / "golden_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_outputs_match_the_golden_manifest(golden_corpus, tmp_path):
    corpus = golden_corpus.Corpus(tmp_path, in_process=True)
    golden_corpus.build(corpus)
    problems = golden_corpus.compare(corpus.manifest(), MANIFEST)
    assert not problems, "\n".join(problems[:20])


def test_manifest_comparison_flags_what_changed(golden_corpus):
    compare = golden_corpus.compare
    assert compare(MANIFEST, MANIFEST) == []

    changed = copy.deepcopy(MANIFEST)
    changed["runs"]["dist"]["exit"] = 2
    assert compare(changed, MANIFEST) == ["dist: exit 2, was 0"]

    files = MANIFEST["runs"]["dist"]["files"]["dist.json"]
    for scale, flagged in ((1 + 1e-14, False), (1 + 1e-9, True)):
        changed = copy.deepcopy(MANIFEST)
        numbers = changed["runs"]["dist"]["files"]["dist.json"]["numbers"]
        numbers[-1] = files["numbers"][-1] * scale
        assert bool(compare(changed, MANIFEST)) == flagged

    matrix = MANIFEST["runs"]["eval-depth"]["files"]["eval-d3.json"]["numbers"][0]
    for key, delta, flagged in (("weighted", 1e-13, False), ("weighted", 1e-6, True),
                                ("frobenius", 1e-6, True), ("count", 1, True)):
        changed = copy.deepcopy(MANIFEST)
        changed["runs"]["eval-depth"]["files"]["eval-d3.json"]["numbers"][0][key] = (
            matrix[key] + delta
        )
        assert bool(compare(changed, MANIFEST)) == flagged, key

    changed = copy.deepcopy(MANIFEST)
    stdout = changed["runs"]["eval-normal-form"]["files"]["eval-normal-form.stdout"]
    stdout["sha256"] = "0" * 64
    assert compare(changed, MANIFEST) == ["eval-normal-form.stdout: bytes differ"]
