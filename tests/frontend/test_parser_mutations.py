"""Malformed C never crashes the frontend and is always located.

A fixed-seed, bounded set of token-level mutants of the app and example
sources (a token deleted, duplicated or swapped with its neighbour, a
width pushed out of range, a broken ``#pragma``) is checked in collect
mode. Every mutant must come back as coded diagnostics — never an
internal ``RPR-E999`` — and every error must carry a span on a real line.
"""

import random
import re
from collections import Counter

import pytest

from repro.apps import edge_detect, loopback, pipeline, tripledes, verification
from repro.diagnostics.engine import check_source
from tests.helpers import example_sources

SEED = 20240601
MUTANTS = 300

#: a directive word, an identifier or number, or one other character
_TOKEN_RE = re.compile(r"#\s*\w+|\w+|\S")
_WIDTH_RE = re.compile(r"\bu?int\d+\b")
_PRAGMA_RE = re.compile(r"#\s*pragma")
_BAD_WIDTHS = ("uint0", "uint99", "int0", "int65")
_BAD_PRAGMAS = ("#pragam", "pragma", "##pragma", "#pragma;", "#")


def _sources() -> dict[str, str]:
    sources = {
        "tdes": tripledes.tdes_source(1, 2, 3),
        "edge": edge_detect.edge_source(16, 8),
        "loopback": loopback.stage_source("stage3"),
        "pipeline": pipeline.stage_source("stage2", delta=3),
        "divergence": verification.DIVERGENCE_SOURCE,
        "hang": verification.HANG_SOURCE,
    }
    sources.update(example_sources())
    return sources


def _splice(text: str, start: int, end: int, new: str) -> str:
    return text[:start] + new + text[end:]


def _mutate(rng: random.Random, text: str, kind: str) -> str:
    tokens = [m.span() for m in _TOKEN_RE.finditer(text)]
    if kind == "width":
        spans = [m.span() for m in _WIDTH_RE.finditer(text)]
        start, end = rng.choice(spans)
        return _splice(text, start, end, rng.choice(_BAD_WIDTHS))
    if kind == "pragma":
        start, end = rng.choice([m.span() for m in _PRAGMA_RE.finditer(text)])
        return _splice(text, start, end, rng.choice(_BAD_PRAGMAS))
    k = rng.randrange(len(tokens) - 1)
    start, end = tokens[k]
    if kind == "delete":
        return _splice(text, start, end, "")
    if kind == "duplicate":
        return _splice(text, end, end, " " + text[start:end])
    start2, end2 = tokens[k + 1]  # swap with the next token
    return (text[:start] + text[start2:end2] + text[end:start2]
            + text[start:end] + text[end2:])


def _mutants() -> list[tuple[str, str, str]]:
    rng = random.Random(SEED)
    sources = _sources()
    with_pragma = sorted(n for n, t in sources.items() if _PRAGMA_RE.search(t))
    kinds = ("delete", "duplicate", "swap", "width", "pragma")
    out = []
    for i in range(MUTANTS):
        kind = kinds[i % len(kinds)]
        name = rng.choice(with_pragma if kind == "pragma" else sorted(sources))
        out.append((f"{name}-{kind}-{i}", kind,
                    _mutate(rng, sources[name], kind)))
    return out


MUTANT_SET = _mutants()


def test_mutants_are_deterministic_and_distinct():
    assert _mutants() == MUTANT_SET
    originals = set(_sources().values())
    assert sum(text in originals for _, _, text in MUTANT_SET) < 10


def test_every_mutant_yields_located_coded_diagnostics():
    codes = Counter()
    for name, _kind, text in MUTANT_SET:
        res = check_source(text, filename=f"{name}.c")
        for diag in res.diagnostics:
            codes[diag.code] += 1
            assert diag.code != "RPR-E999", (name, diag.message)
            if diag.is_error:
                assert diag.span is not None and diag.span.line >= 1, (
                    name, diag.code, diag.message)
    # the mutants reach every frontend phase, the parser's recovery most
    assert codes["RPR-S001"] >= 100
    assert any(code.startswith("RPR-P") for code in codes)
    assert any(code.startswith("RPR-L") for code in codes)


@pytest.mark.parametrize("kind", ["delete", "swap", "width"])
def test_syntax_errors_do_not_hide_other_functions(kind):
    # a mutant of one process leaves the sibling process's lowering intact
    rng = random.Random(SEED)
    good = loopback.stage_source("good")
    bad = _mutate(rng, loopback.stage_source("bad"), kind)
    res = check_source(good + bad, filename="pair.c")
    if res.has_errors:
        assert "good" in res.module.functions
