"""README's command-line examples parse, its Library example runs as written,
its Public API list is __all__, and its greedy-minus-optimal PSNR gap table
matches a recomputation."""

import re
import shlex
from pathlib import Path

import histoseg
from histoseg.cli import _PARSER
from histoseg.engine import run_dendrogram, thresholds_at
from histoseg.metrics import level_stats
from histoseg.oracle import exhaustive_otsu
from histoseg.pgm import histogram_of

from helpers import pgm_bytes, standard_image

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_command_line_examples_parse():
    [block] = re.findall(r"## Command line\n.*?```sh\n(.*?)```", README, re.S)
    commands = [line for line in block.splitlines() if line.startswith("histoseg ")]
    assert len(commands) == 5
    for line in commands:
        # a flag the parser does not know exits through SystemExit
        _, command, *argv = shlex.split(line)
        assert _PARSER.parse_args([command, *argv]).command == command


def test_library_example_runs(tmp_path, monkeypatch):
    (tmp_path / "photo.pgm").write_bytes(pgm_bytes(standard_image()))
    [code] = re.findall(r"## Library\n\n```python\n(.*?)```", README, re.S)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(code, namespace)
    assert namespace["cuts"].M == 4
    assert namespace["out"].pixels.shape == (512, 512)
    assert len(namespace["errors"]) == 3


def test_public_api_list_matches_all():
    [paragraph] = re.findall(r"^Public API .*?(?:\n\n|\Z)", README, re.S | re.M)
    head, _, _ = paragraph.partition("Everything")
    listed = set(re.findall(r"`(\w+)`", head))
    assert listed == set(histoseg.__all__)


def test_greedy_minus_optimal_gap_table():
    rows = re.findall(r"^ *\| (M|gap) \|(.*)\| *$", README, re.M)
    table = {}
    for (m_head, m_cells), (gap_head, gap_cells) in zip(rows[::2], rows[1::2]):
        assert (m_head, gap_head) == ("M", "gap")
        table.update(zip(map(int, m_cells.split("|")), (g.strip() for g in gap_cells.split("|"))))
    assert sorted(table) == list(range(2, 26))

    h = histogram_of(standard_image(512))
    trace = run_dendrogram(h)
    for m, listed in table.items():
        tsets = [thresholds_at(trace, m), exhaustive_otsu(h, m)]
        [(((_, greedy_db), _), _), (((_, optimal_db), _), _)] = level_stats(h, tsets)
        assert f"{optimal_db - greedy_db:.2f}" == listed, m
