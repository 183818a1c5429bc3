"""README's Library example runs as written and its Public API list is __all__."""

import re
from pathlib import Path

import histoseg
from histoseg.pgm import write_pgm

from helpers import standard_image

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_library_example_runs(tmp_path, monkeypatch):
    (tmp_path / "photo.pgm").write_bytes(write_pgm(standard_image()))
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
