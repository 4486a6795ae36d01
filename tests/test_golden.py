"""Golden digests of `factlog facts` output.

The determinism checks only compare runs with each other, so a change to
what the matcher finds would pass them.  These digests pin the facts.dl
bytes themselves; a change that means to alter them must say so and
update the digest.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

from factlog.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent


def facts_digest(tmp_path: Path, *argv: str) -> str:
    out = tmp_path / "out"
    assert main(["facts", *argv, "--format", "dl", "--out", str(out)]) == EXIT_OK
    return hashlib.sha256((out / "facts.dl").read_bytes()).hexdigest()


def test_c_corpus_3000_lines(tmp_path, capsys):
    # make_c_corpus.py --lines 3000 --seed 1: 4 files, 212 functions, 564 edges
    spec = importlib.util.spec_from_file_location("make_c_corpus", ROOT / "scripts" / "make_c_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    corpus = tmp_path / "corpus"
    module.generate(corpus, lines_target=3000, seed=1)
    digest = facts_digest(tmp_path, str(corpus), "--preset", "callgraph-c")
    assert digest == "eb77f77b4f52686c0d7fd3b1f8408c41afd6921ea69125d88b0498d0763b869e"


def test_arith_sample(tmp_path, samples_dir, capsys):
    digest = facts_digest(tmp_path, str(samples_dir / "liveness.arith"), "--preset", "liveness-arith")
    assert digest == "f3cd8676ba302e93e6cd7b03c1aa65abf594f1f72fccf3638a669d332524dded"
