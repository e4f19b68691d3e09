"""Seeded single-field mutations of fresh representation certificates.

Each mutation replaces one value, at a random position in a `two-meet`
or `luk3-self` certificate, with a value of some other shape.
`recheck_certificate` may only reject a mutant with CertificateTampered
(a violated claim) or ParseError (a malformed certificate), and may pass
it only when the value is unchanged or the edited field is the one it
does not verify, `meta.threshold`.  A sample also goes through
`qsalg recheck`, which must exit 0, 1 or 2 without a traceback.
"""

import json
import random

import pytest

from qsalg.cli import main
from qsalg.corpus import corpus_text
from qsalg.document import loads
from qsalg.errors import CertificateTampered, ParseError
from qsalg.recheck import recheck_certificate
from qsalg.representation import representation
from test_mutation_fuzz import mutate, positions

REPLACEMENTS = (None, 5, 2.5, -1, True, "zz", [], {}, ["zz"], [["zz"]],
                {"zz": 1}, [1, 2])
MUTATIONS = 1000
CLI_EVERY = 10
UNVERIFIED = ("meta", "threshold")


@pytest.fixture(scope="module")
def certificate_texts():
    texts = {}
    for name in ("two-meet", "luk3-self"):
        subject = loads(corpus_text(name + ".json")).qmodule_algebra(
            "subject")
        texts[name] = json.dumps(representation(subject))
    return texts


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def test_seeded_certificate_mutations_are_rejected_cleanly(
        certificate_texts, tmp_path, capsys):
    rnd = random.Random(3)
    names = sorted(certificate_texts)
    paths = {name: list(positions(json.loads(text)))
             for name, text in certificate_texts.items()}
    outcomes = set()
    for k in range(MUTATIONS):
        name = names[k % len(names)]
        cert = json.loads(certificate_texts[name])
        path = rnd.choice(paths[name])
        value = rnd.choice(REPLACEMENTS)
        unchanged = json.dumps(_at(cert, path)) == json.dumps(value)
        cert = mutate(cert, path, value)
        try:
            recheck_certificate(cert)
            outcomes.add("pass")
            assert unchanged or path == UNVERIFIED, (name, path, value)
        except (CertificateTampered, ParseError) as err:
            outcomes.add(type(err).__name__)
        if k % CLI_EVERY == 0:
            mutant = tmp_path / "cert.json"
            mutant.write_text(json.dumps(cert))
            code = main(["recheck", str(mutant)])
            out = capsys.readouterr()
            assert code in (0, 1, 2), (name, path, value)
            assert "Traceback" not in out.out + out.err
    assert outcomes == {"pass", "CertificateTampered", "ParseError"}
