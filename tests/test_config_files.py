"""The shipped INI files keep the config hash their artifacts record.

Checkpoints, training logs and reports made under these files carry
`config_hash`; a change to the canonical rendering, to a default or to a
file shows here as a changed digest.
"""

from pathlib import Path

import pytest

from trajsel.config import config_hash, load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name, digest", [
    ("desk.ini", "73c765a5bec59226bacdc6df0fb6811e885422f15208193265e7eff212e45b37"),
    ("paper.ini", "805796b2d6f64e2c5ab0669eff3f808741eea1ea10962f0e4235af116443ad7d"),
    ("acceptance.ini", "bb454d9c2529c38a3528eb3e225e747e9ba3be7e881217593a560b4d5eca0bba"),
])
def test_shipped_config_hash(name, digest):
    assert config_hash(load_config(CONFIGS / name)) == digest
