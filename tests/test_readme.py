"""README's config-file schema and cost-query paragraph name exactly the
keys the parsers accept."""

import re
from pathlib import Path

from tinyproto.config import _KEYS, AGGREGATOR_CHOICES
from tinyproto.costmodel import QUERY_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def _schema():
    """The schema table's rows, each a list of cells, and the text of its
    "Optional extras" paragraph."""
    section = README.read_text(encoding="utf-8").split("### Config file schema", 1)[1]
    table, extras = section.split("Optional extras:", 1)
    # cells split on unescaped pipes: "`on` \| `off`" is one cell
    rows = [
        [c.strip() for c in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
        for line in table.splitlines()
        if line.startswith("| `")
    ]
    return rows, extras.split("\n\n", 1)[0]


def _documented_keys():
    """Keys of the schema table (first and third columns) plus the
    backticked names that open each entry of its "Optional extras"."""
    rows, extras = _schema()
    keys = [re.fullmatch(r"`(\w+)`", c).group(1) for row in rows for c in row[::2] if c]
    keys += re.findall(r"`(\w+)` \(", extras)
    return keys


def test_schema_names_every_config_key_once():
    keys = _documented_keys()
    assert len(keys) == len(set(keys))
    assert set(keys) == set(_KEYS)


def test_schema_lists_exactly_the_aggregators():
    rows, _ = _schema()
    (cell,) = [row[i + 1] for row in rows for i in (0, 2) if row[i] == "`aggregator`"]
    assert sorted(re.findall(r"`(\w+)`", cell)) == sorted(AGGREGATOR_CHOICES)


def test_cost_query_paragraph_names_every_query_key_once():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("The cost query file for `tinyproto cost`", 1)[1]
    keys = re.findall(r"`(\w+)`", paragraph.split("with keys", 1)[1].split(".\n", 1)[0])
    assert len(keys) == len(set(keys))
    assert set(keys) == {"algorithm", *QUERY_KEYS}
