"""Golden digests of `factlog facts`, `factlog query` and `factlog match`
output, and of the per-file tables that classify records.

The determinism checks only compare runs with each other, so a change to
what the matcher finds, or to which answers a query prints, would pass
them.  These digests pin the facts.dl bytes, the query stdout, the raw
match records and the classification tables themselves; a change that
means to alter them must say so and update the digest.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from factlog import classify, discover_files, get_language, load_preset, rewrite, run_fact_generation
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


def tables_digest(files: list[Path], lang: str) -> str:
    # every table classify records, in source order, for each file in turn
    h = hashlib.sha256()
    for path in files:
        smap = classify(path.read_text(encoding="utf-8"), get_language(lang))
        tables = (
            smap.kinds,
            [(s, e, region.value) for s, e, region in smap.intervals],
            smap.brackets,
            smap.any_close,
            sorted(smap.group_ends.items()),
            smap.group_opens,
            sorted(smap.unit_ends.items()),
        )
        h.update(repr(tables).encode("utf-8"))
    return h.hexdigest()


def test_c_corpus_3000_lines_tables(c_corpus):
    digest = tables_digest(discover_files([c_corpus], "c"), "c")
    assert digest == "d61a1b3959f01060cb0c746c316da2be17f7576c4a3d2568fb218aebca2c2261"


@pytest.mark.parametrize(
    "sample, lang, digest",
    [
        ("go", "go", "a4c982e5994e1c9c8c3312c3e65d9da7a938c285b7cfdbe39ac7bbf31c736913"),
        ("example.go", "go", "62162642aec277bf5f3d87aa0096963533e33f55dc9743509dcac14bea4fc86a"),
        ("c", "c", "ba2d36875514283652c91f4e50d6d7d77270c118f65c10a07709fae63aa5d097"),
        ("zig", "zig", "7556880cc4a64ab5f234f6fac0a7d6c0f36bc98e11ff9aa00a86081960894360"),
        ("liveness.arith", "arith", "6f8e70c899b5808d2880882769ab3f206ece88a63592f365eb4cebe0eb97d8a7"),
    ],
)
def test_sample_tables(samples_dir, sample, lang, digest):
    assert tables_digest(discover_files([samples_dir / sample], lang), lang) == digest


def test_arith_sample(tmp_path, samples_dir, capsys):
    digest = facts_digest(tmp_path, str(samples_dir / "liveness.arith"), "--preset", "liveness-arith")
    assert digest == "f3cd8676ba302e93e6cd7b03c1aa65abf594f1f72fccf3638a669d332524dded"


# facts.dl of each bundled preset over its samples
SAMPLE_FACTS = [
    ("callgraph-go", "go", "34a1e58f0785c2a4a66397a584cb62631fbf1f11bc322d0e13748d311d3c536c"),
    ("callgraph-go", "example.go", "02d33b4333290ef103685c21d90265345b991f53f8c6ff4958bc8e6558c298e1"),
    ("callgraph-go-methods", "go", "f8fcc081401f3eacaeddc4e3959ef51ed95e5c47350fd0a0de64cb23155eff55"),
    ("callgraph-zig", "zig", "ec313bc3d65d4be95c7a317befa456018a9381a9fdf447b6afe15de5ccecd4a9"),
    ("callgraph-c", "c", "a98d8f92acc1c7ec27e4c825ca7840883d83d2ae0c092e411ca6f0aebd68baa5"),
    ("liveness-arith", "liveness.arith", "f3cd8676ba302e93e6cd7b03c1aa65abf594f1f72fccf3638a669d332524dded"),
    ("liveness-arith-classical", "liveness.arith", "f3cd8676ba302e93e6cd7b03c1aa65abf594f1f72fccf3638a669d332524dded"),
]


@pytest.mark.parametrize("preset, sample, digest", SAMPLE_FACTS)
def test_sample_facts(tmp_path, samples_dir, preset, sample, digest):
    assert facts_digest(tmp_path, str(samples_dir / sample), "--preset", preset) == digest


@pytest.mark.parametrize("preset, sample, digest", SAMPLE_FACTS)
def test_bundled_specs_build_rows(monkeypatch, samples_dir, preset, sample, digest):
    # With the text path's parser gone after the specs compile, the same
    # facts still come out: every bundled rewrite line is built as a row.
    loaded = load_preset(preset)
    loaded.fact_specs

    def no_text_path(line):
        raise AssertionError(f"text path parsed {line!r}")

    monkeypatch.setattr(rewrite, "parse_fact_line", no_text_path)
    db, _, diagnostics = run_fact_generation(loaded, discover_files([samples_dir / sample], loaded.language))
    assert diagnostics == []
    assert hashlib.sha256(db.to_dl_text().encode("utf-8")).hexdigest() == digest


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


def match_digest(capsys, monkeypatch, *argv: str) -> str:
    # relative paths from the repo root, so the records do not name the checkout
    monkeypatch.chdir(ROOT)
    capsys.readouterr()
    assert main(["match", *argv]) == EXIT_OK
    out = capsys.readouterr().out
    assert out  # every case prints at least one record
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


MATCH_INPUTS = {
    "go": ("samples/go", "samples/example.go"),
    "zig": ("samples/zig",),
    "c": ("samples/c",),
}


@pytest.mark.parametrize(
    "template, lang, digest",
    [
        ("$c(...)", "go", "595c2f595aa43b2b083ab71af6be889491a903cc5335ef9f1715d578201d36de"),
        ("$c(...)", "zig", "bfab2dea5bc86a92050f05a125f3086462cd578bb6cc1358cdf5d72c57ebb9ed"),
        ("$c(...)", "c", "72e3cf949e697aa66f0a296241c1e72245e4fa69c5147b26ed812fb712b92e0f"),
        ("*$p", "go", "44071ea114f21790db73fe0508778d39b6563c579deda18cc6a2af1f770afc20"),
        ("*$p", "zig", "b965761e07fc05e239d4f932b1f8fe2b7a79c086feb7042d05d536f078444886"),
        ("*$p", "c", "88a0361ec68d77189a9050d57b655dcb655635f3562bd0fb6b2165064d2a445e"),
        ('"$s"', "go", "36f228dc25650057f6f66ea11bee19ed17be929095562876924bbd9586903105"),
        ('"$s"', "zig", "b8b3d34256dcaede17532bec20b254dd2eec73d0bbb8a9f509421cab7570d034"),
        ('"$s"', "c", "92e4afdc80531941cfbe881dee65841c3a3dc3eaaee8c2a8888ac80116c8322a"),
        ("$a $b", "go", "71b3e4ce189777f8c14a425faecabe455d44a276a2fcde449f5ddc43fd3e2fc8"),
        ("$a $b", "zig", "7b558bb7017447207b7fb63a6bccc643558729ad23bc63c584bbc5fbcf5885a0"),
        ("$a $b", "c", "e090da850005237247c799c56705c56cce779e9b2a3172fbe261c4320cc900f2"),
    ],
)
def test_match_records(capsys, monkeypatch, template, lang, digest):
    # value prefixes (go's *, zig's !?*@), string units and unit chains, byte for byte
    assert match_digest(capsys, monkeypatch, *MATCH_INPUTS[lang], "--lang", lang, "-t", template) == digest
