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
    ("desk.ini", "4cbcd86402c00afb8d7140383cf23144c7b70af37a124cefdd2d5ab1a8526650"),
    ("paper.ini", "c2d938d1f3569254979b46774d696978f3867b37cb8182da553a9436dccee128"),
    ("acceptance.ini", "e842d7d1598e7aa7e756f7335162ea31cf17d301e48d8791c637cf47fb2b1816"),
])
def test_shipped_config_hash(name, digest):
    assert config_hash(load_config(CONFIGS / name)) == digest
