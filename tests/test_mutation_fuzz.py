"""Seeded single-field mutations of every bundled document.

Each mutation replaces one value, at a random position in the JSON tree,
with a value of some other shape.  `validate` must answer every mutant
with exit 0, 1 or 2: a malformed document is a ParseError at the parse
boundary, never a traceback from deeper in the validators.

Row mutations add a row to a table: a copy of a row with one label made
unknown, or an exact copy of a row.  Every table row is read or
rejected, so no such mutant may validate.
"""

import json
import random

from qsalg.cli import main
from qsalg.corpus import corpus_documents, corpus_text

REPLACEMENTS = (5, None, "zz", [], {}, True, 2.5, ["x"], {"a": 1})
MUTATIONS = 600
ROW_MUTATIONS = 300


def positions(node, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from positions(child, prefix + (key,))


def mutate(doc, path, value):
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def test_seeded_document_mutations_exit_cleanly(tmp_path, capsys):
    rnd = random.Random(5)
    names = sorted(corpus_documents())
    codes = set()
    for k in range(MUTATIONS):
        name = names[k % len(names)]
        doc = json.loads(corpus_text(name))
        path = rnd.choice(list(positions(doc)))
        value = rnd.choice(REPLACEMENTS)
        mutant = tmp_path / name
        mutant.write_text(json.dumps(mutate(doc, path, value)))
        code = main(["validate", str(mutant), "--json"])
        capsys.readouterr()
        assert code in (0, 1, 2), (name, path, value)
        codes.add(code)
    assert codes == {0, 1, 2}


def at(node, path):
    for key in path:
        node = node[key]
    return node


def row_tables(doc):
    """Positions of every table of rows: a non-empty list of lists."""
    return [path for path in positions(doc)
            if isinstance(at(doc, path), list) and at(doc, path)
            and all(isinstance(row, list) for row in at(doc, path))]


def test_seeded_row_mutations_never_validate(tmp_path, capsys):
    rnd = random.Random(7)
    names = sorted(n for n in corpus_documents() if n != "schema.json")
    for k in range(ROW_MUTATIONS):
        name = names[k % len(names)]
        doc = json.loads(corpus_text(name))
        rows = at(doc, rnd.choice(row_tables(doc)))
        row = json.loads(json.dumps(rnd.choice(rows)))
        if k % 2:
            what = "copy"
        else:
            leaves = [p for p in positions(row)
                      if isinstance(at(row, p), str)]
            row = mutate(row, rnd.choice(leaves), "zz")
            what = "unknown label"
        rows.insert(rnd.randrange(len(rows) + 1), row)
        mutant = tmp_path / name
        mutant.write_text(json.dumps(doc))
        code = main(["validate", str(mutant), "--json"])
        capsys.readouterr()
        assert code == 2, (name, what, row)
