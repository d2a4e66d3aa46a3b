"""The package's public surface: every __all__, the version, and the README's paper map."""

import ast
import importlib
import re
import tomllib
from pathlib import Path

import almost_squares
from almost_squares import analysis, core, oracle

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(almost_squares.__file__).parent

CORE = [
    "RatioValue",
    "Rectangle",
    "count_at_square",
    "count_le",
    "count_triangular_le",
    "enumerate_range",
    "flock_members",
    "floor_almost_square",
    "is_almost_square",
    "nth",
    "pioneer",
    "seq_a",
    "seq_b",
    "tri_decompose",
    "triangular",
]
ORACLE = [
    "DEFAULT_SCAN_CAP",
    "RecordSet",
    "brute_record_set",
    "factorial_membership_scan",
    "verify",
]

# every module's __all__, written out: adding or removing a public name
# means editing this table
PUBLIC = {
    "almost_squares": [*CORE, *ORACLE],
    "almost_squares.core": CORE,
    "almost_squares.oracle": ORACLE,
    "almost_squares.analysis": [
        "AnalysisSample",
        "BTerms",
        "SamplingPlan",
        "b_value",
        "emit_series",
        "g_func",
        "h_func",
        "kite_region_contains",
        "limit_probe",
        "remainder",
        "tri_product_grid",
        "z_bracket",
    ],
    "almost_squares.cli": ["build_parser", "main", "run_main"],
    "almost_squares._bigint": [
        "EXACT",
        "cbrtrem",
        "cell",
        "divmod",
        "int_from_digits",
        "parse_int",
        "record_cells",
        "sqrtrem",
        "to_decimal",
        "wide",
    ],
}


def test_every_all_is_pinned():
    # every module but __main__, which running would start the CLI
    modules = {"almost_squares"} | {
        f"almost_squares.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem[:2] != "__"
    }
    assert sorted(PUBLIC) == sorted(modules)
    assert {name: importlib.import_module(name).__all__ for name in PUBLIC} == PUBLIC


def test_package_exports():
    # the package root re-exports core and oracle only; analysis is imported
    # as almost_squares.analysis, and its names are not on the root
    assert almost_squares.__all__ == [*core.__all__, *oracle.__all__]
    assert len(set(almost_squares.__all__)) == len(almost_squares.__all__)
    for name in almost_squares.__all__:
        getattr(almost_squares, name)
    for name in analysis.__all__:
        assert not hasattr(almost_squares, name), name


def test_version_matches_pyproject():
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert almost_squares.__version__ == project["version"] == "5.1.0"


def _paper_map() -> list[list[str]]:
    # the rows of the table under "## Paper map", as lists of cells
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Paper map\n")[1]
    section = section.split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    assert rows[0] == "| statement | function | test | demo |"
    return [[cell.strip() for cell in row.strip("|").split(" | ")] for row in rows[2:]]


def _defined(path: Path, names: list[str]) -> bool:
    # whether the class and function path names (say Class, test) is defined
    # in the module at path, found by ast without importing it
    scope = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [
            node for node in scope
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
        if not found:
            return False
        scope = found[0].body
    return True


def test_paper_map():
    rows = _paper_map()
    assert len(rows) == 16
    for statement, functions, test, demo in rows:
        for name in re.findall(r"`([\w.]+)`", functions):
            module, function = name.rsplit(".", 1)
            module = importlib.import_module(f"almost_squares.{module}")
            assert callable(getattr(module, function)) and function in module.__all__, name
        assert re.fullmatch(r"`[\w./]+::[\w:]+`", test), test
        path, *names = test.strip("`").split("::")
        assert _defined(ROOT / path, names), test
        if demo:
            assert re.fullmatch(r"`demos/\w+\.py`", demo), demo
            assert (ROOT / demo.strip("`")).is_file(), demo
