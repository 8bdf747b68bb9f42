"""README's config-file schema names exactly the keys the parser accepts."""

import re
from pathlib import Path

from tinyproto.config import _KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def _documented_keys():
    """Keys of the schema table (first and third columns) plus the
    backticked names that open each entry of its "Optional extras"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Config file schema", 1)[1]
    table, extras = section.split("Optional extras:", 1)
    keys = []
    for line in table.splitlines():
        if line.startswith("| `"):
            # cells split on unescaped pipes: "`on` \| `off`" is one cell
            cells = re.split(r"(?<!\\)\|", line.strip().strip("|"))
            keys += [re.fullmatch(r"\s*`(\w+)`\s*", c).group(1) for c in cells[::2] if c.strip()]
    extras = extras.split("\n\n", 1)[0]
    keys += re.findall(r"`(\w+)` \(", extras)
    return keys


def test_schema_names_every_config_key_once():
    keys = _documented_keys()
    assert len(keys) == len(set(keys))
    assert set(keys) == set(_KEYS)
