"""Golden digests of `factlog facts` and `factlog query` output.

The determinism checks only compare runs with each other, so a change to
what the matcher finds, or to which answers a query prints, would pass
them.  These digests pin the facts.dl bytes and the query stdout
themselves; a change that means to alter them must say so and update the
digest.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from factlog.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def c_corpus(tmp_path_factory) -> Path:
    # make_c_corpus.py --lines 3000 --seed 1: 4 files, 212 functions, 564 edges
    spec = importlib.util.spec_from_file_location("make_c_corpus", ROOT / "scripts" / "make_c_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    corpus = tmp_path_factory.mktemp("corpus")
    module.generate(corpus, lines_target=3000, seed=1)
    return corpus


def facts_digest(tmp_path: Path, *argv: str) -> str:
    out = tmp_path / "out"
    assert main(["facts", *argv, "--format", "dl", "--out", str(out)]) == EXIT_OK
    return hashlib.sha256((out / "facts.dl").read_bytes()).hexdigest()


def query_digest(capsys, *argv: str) -> str:
    capsys.readouterr()
    assert main(["query", *argv]) == EXIT_OK
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_c_corpus_3000_lines(tmp_path, c_corpus, capsys):
    digest = facts_digest(tmp_path, str(c_corpus), "--preset", "callgraph-c")
    assert digest == "eb77f77b4f52686c0d7fd3b1f8408c41afd6921ea69125d88b0498d0763b869e"


def test_arith_sample(tmp_path, samples_dir, capsys):
    digest = facts_digest(tmp_path, str(samples_dir / "liveness.arith"), "--preset", "liveness-arith")
    assert digest == "f3cd8676ba302e93e6cd7b03c1aa65abf594f1f72fccf3638a669d332524dded"


@pytest.mark.parametrize(
    "pattern, digest",
    [
        ('calls("fn0_40", X)', "59e9e9526f3de6da241a3aa156449fcde382aba389030f245f3c870a08e7f917"),
        ('calls(X, "fn3_6")', "ba56a1f204d3af87b421c2237c13b5f25115392991a7be594ca043e76d38840c"),
        # printf is a library callee: no answers, so empty stdout
        ('calls("printf", X)', "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ],
)
def test_c_corpus_3000_lines_query(c_corpus, capsys, pattern, digest):
    assert query_digest(capsys, str(c_corpus), "--preset", "callgraph-c", "-q", pattern) == digest


def test_arith_sample_query(samples_dir, capsys):
    digest = query_digest(capsys, str(samples_dir / "liveness.arith"), "--preset", "liveness-arith", "-q", 'live("b", L)')
    assert digest == "69a174ecc386b1f039587b2b044bfa277db59c87221b9d9ad74f2e666430c520"
