"""Checks on the CI workflow, ``.github/workflows/ci.yml``.

The ``determinism`` job holds one ``repro-bench`` argument string per
campaign.  A flag the CLI renames or drops would otherwise surface only
as a failed CI run, so every entry is parsed here with the CLI's own
parser.
"""

import os
import shlex

import pytest
import yaml

from repro.cli import build_parser

CI = os.path.join(
    os.path.dirname(__file__), "..", ".github", "workflows", "ci.yml"
)

with open(CI) as f:
    WORKFLOW = yaml.safe_load(f)

DETERMINISM = WORKFLOW["jobs"]["determinism"]["strategy"]["matrix"]["include"]


def test_matrix_names_unique():
    # the names key the uploaded artifacts, which must not collide
    for job in WORKFLOW["jobs"].values():
        include = job.get("strategy", {}).get("matrix", {}).get("include", [])
        names = [entry["name"] for entry in include]
        assert len(names) == len(set(names)), names


@pytest.mark.parametrize(
    "entry", DETERMINISM, ids=[entry["name"] for entry in DETERMINISM]
)
def test_determinism_entry_parses(entry):
    args = entry["args"]
    # every artifact lands in $OUT/, the tree the two runs diff
    assert "$OUT/" in args
    # the shared step re-renders a journal's trace and compares the two
    if "--events $OUT/events.jsonl" in args:
        assert "--trace $OUT/trace.json" in args
    build_parser().parse_args(shlex.split(args.replace("$OUT", "out")))
