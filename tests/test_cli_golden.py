"""Golden-file regression tests pinning the CLI's exact output.

The paper-table pipeline is the product surface of this reproduction:
``repro bases`` on the Fig. 1 toy context and the ``repro experiment
T6`` basis-statistics table are pinned character-for-character against
golden files under ``tests/golden/``, so a refactor that silently drifts
a count, a float format or a rule ordering fails loudly instead of
shipping different tables.

To regenerate after an *intentional* output change::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_cli_golden.py

then review the golden diff like any other code change.
"""

from __future__ import annotations

import difflib
import os
from pathlib import Path

import pytest

from repro.experiments import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The five-transaction context of the paper's running example (Fig. 1).
FIG1_TRANSACTIONS = [
    ["a", "c", "d"],
    ["b", "c", "e"],
    ["a", "b", "c", "e"],
    ["b", "e"],
    ["a", "b", "c", "e"],
]


def check_golden(name: str, actual: str) -> None:
    """Compare *actual* against the golden file (or regenerate it)."""
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(actual, encoding="utf-8")
        pytest.skip(f"golden file {name} regenerated")
    assert path.exists(), (
        f"golden file {path} is missing; run with REPRO_UPDATE_GOLDEN=1 "
        "to create it"
    )
    expected = path.read_text(encoding="utf-8")
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"golden/{name}",
                tofile="actual",
            )
        )
        raise AssertionError(f"CLI output drifted from golden/{name}:\n{diff}")


@pytest.fixture()
def fig1_basket(tmp_path) -> Path:
    """The Fig. 1 context as a basket file with a stable dataset name."""
    path = tmp_path / "fig1.basket"
    path.write_text(
        "".join(" ".join(row) + "\n" for row in FIG1_TRANSACTIONS), encoding="utf-8"
    )
    return path


def run_cli(capsys, *args: str) -> str:
    assert cli.main(list(args)) == 0
    return capsys.readouterr().out


def test_bases_default_output_fig1(fig1_basket, capsys):
    """The classic `repro bases` report on Fig. 1, pinned exactly."""
    out = run_cli(
        capsys,
        "bases",
        "--dataset",
        str(fig1_basket),
        "--minsup",
        "0.4",
        "--minconf",
        "0.7",
    )
    check_golden("bases_fig1.txt", out)


def test_bases_all_registered_output_fig1(fig1_basket, capsys):
    """The nine-bases selection output on Fig. 1, pinned exactly."""
    from repro.bases import registered_names

    out = run_cli(
        capsys,
        "bases",
        "--dataset",
        str(fig1_basket),
        "--minsup",
        "0.4",
        "--minconf",
        "0.5",
        "--bases",
        ",".join(registered_names()),
    )
    check_golden("bases_fig1_all.txt", out)


def test_experiment_t6_smoke_output(capsys):
    """The T6 per-basis statistics table (smoke grid), pinned exactly."""
    out = run_cli(capsys, "experiment", "T6", "--smoke")
    check_golden("experiment_t6_smoke.txt", out)


def test_help_pages_pinned(capsys, monkeypatch):
    """Every verb's --help page, pinned in one golden file.

    Catches help drift: a new flag, a reworded description or a lost
    epilog example shows up as a golden diff.  ``COLUMNS`` is pinned
    because argparse wraps to the terminal width.
    """
    monkeypatch.setenv("COLUMNS", "80")
    sections = []
    for verb in (None, "stats", "mine", "bases", "list-bases", "save",
                 "load", "export", "serve", "recommend", "experiment"):
        args = ["--help"] if verb is None else [verb, "--help"]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(args)
        assert excinfo.value.code == 0
        title = "repro --help" if verb is None else f"repro {verb} --help"
        sections.append(f"$ {title}\n{capsys.readouterr().out}")
    check_golden("cli_help.txt", "\n".join(sections))


@pytest.fixture()
def mushroom_basket(tmp_path) -> Path:
    """A 300-row MUSHROOM* context as a basket file."""
    from repro.data.benchmarks_data import make_mushroom

    path = tmp_path / "mushroom.basket"
    rows = make_mushroom(n_objects=300)
    path.write_text("".join(" ".join(row) + "\n" for row in rows), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "cell",
    [("fig1_basket", "0.4", "0.5"), ("mushroom_basket", "0.6", "0.7")],
    ids=["fig1", "mushroom"],
)
@pytest.mark.parametrize("selection", [None, "all-nine"])
def test_bases_output_materialises_only_printed_rules(
    request, capsys, monkeypatch, cell, selection
):
    """`repro bases` prints ``sorted_rules()[:limit]`` without building them all.

    The printed rules come from the canonical column order, one
    ``rule_at`` per printed row, so no basis the command built is ever
    materialised; the lines equal the object-sorted prefix of each basis.
    """
    from repro.bases import registered_names

    fixture, minsup, minconf = cell
    dataset = request.getfixturevalue(fixture)
    built_by_cli = []
    build = cli.build_rule_artifacts

    def recording_build(*args, **kwargs):
        artifacts = build(*args, **kwargs)
        built_by_cli.append(artifacts)
        return artifacts

    monkeypatch.setattr(cli, "build_rule_artifacts", recording_build)
    args = ["bases", "--dataset", str(dataset), "--minsup", minsup]
    args += ["--minconf", minconf, "--limit", "12"]
    if selection is not None:
        args += ["--bases", ",".join(registered_names())]
    out = run_cli(capsys, *args)

    (artifacts,) = built_by_cli
    assert artifacts.bases
    for built in artifacts.bases.values():
        assert not built.rules.is_materialized(), built.name
    names = ["dg", "luxenburger-reduced"] if selection is None else registered_names()
    for name in names:
        printed = [f"  {rule}" for rule in artifacts[name].rules.sorted_rules()[:12]]
        assert ":\n" + "\n".join(printed) + "\n" in out, name
