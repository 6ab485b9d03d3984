"""``import hyperspin`` loads the sweep engine only when one of its names is
first read, and the figure registry, ``hyperspin.presets``, only when one
of its names is, and without the engine.  Every name stays where it was: in
``hyperspin.__all__`` and in ``dir(hyperspin)``.  What moved to
``hyperspin.grid`` or ``hyperspin.presets`` is read from there alone.  Each
check runs in a fresh interpreter, where nothing has loaded the engine yet.
The package's source is read as text: no module imports a name it never
reads, and the version has one source, ``hyperspin._version``.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The names of hyperspin's own that ``from hyperspin.sweep import ...``
#: gave before the point types, the column table and ``point_row`` moved to
#: ``hyperspin.grid``: those the module defined and those it imported from
#: other hyperspin modules (its standard-library imports are left out).
#: ``_render_odd_chunks``, the child of the one-child render, is left out as
#: well: ``_render_worker`` replaced it when two workers took over rendering.
#: So are ``_write`` and ``_write_document``, the text and the byte writers
#: that ``hyperspin.grid._to_sink`` replaced when every output became bytes,
#: and ``_records_from``, whose part ``_document`` took back when
#: ``_to_sink`` made the first piece before it opened a path (it now opens
#: the path first).
#: ``_coherence_l1``, ``_discord``, ``_eof`` and ``_steering`` are left out
#: too: the engine imported them but reads none of them since it runs
#: ``_measure_values`` (see ``test_no_module_imports_a_name_it_never_reads``).
#: ``MAX_ROWS``, ``PHI_ATOL``, ``check_range``, ``memory_kernel``,
#: ``density_matrix``, ``dephase``, ``measure_all``, ``_ROW_FORMAT``,
#: ``_in_context`` and ``_json_record`` are left out as well (``FORWARDED``):
#: they live in ``hyperspin.grid``, where the engine reads them, and a
#: forwarder that served them here let ``hyperspin.sweep.MAX_ROWS = 10``
#: bind a cap that nothing honoured.  The figure registry is left out too
#: (``MOVED``): it lives in ``hyperspin.presets``, which loads no numpy, and
#: the engine imports only ``MEASURE_NAMES`` and ``figure_preset`` from it.
SWEEP_NAMES = """
COLUMNS COLUMN_NAMES CSV_HEADER ChannelConfig DensityMatrix4 DomainError
FLOAT_FORMAT HyperspinError KERNEL_VARIANT MEASURE_NAMES
MeasureRecord STEERING_CLASSES SteeringClass SteeringResult
SweepGrid SweepResult SweepRow TimeGrid _CHUNK_ROWS _CSV
_Columns _FORMATS _FRAME_HEADER _Format _JSON _MEASURE_COLUMNS
_Ops _POINT_COLUMNS
_SERIES_COLUMNS _STATE_FIELDS _anti_diagonal_bloch
_bloch_outside _chunk_values _concurrence
_concurrence_outside _csv_fields _dephased _diagonal_bloch _document
_emit _eta_outside _evaluate _frame _interleaved
_json_fields _json_string _json_values _kernel_at _measure_chunk
_pick _row_chunks _row_of _run _state_constants
_steering_bounds _survival
channel_params emit figure_preset
point_row run_preset run_sweep
""".split()

#: The names that ``hyperspin.sweep`` served from ``hyperspin.grid`` and
#: no longer does.
FORWARDED = """
MAX_ROWS PHI_ATOL check_range memory_kernel density_matrix dephase measure_all
_ROW_FORMAT _in_context _json_record
""".split()

#: The names that ``hyperspin.sweep`` defined or imported for the figure
#: registry, and that ``hyperspin.presets`` now holds alone.
MOVED = """
FigurePreset PRESETS UnknownPresetError _HALF_PI _MU_FULL _PHI_COMPARE
_PHI_FULL _T_MARKOV _T_NONMARKOV _build_presets _grid _surface_presets
""".split()

PROBE = """\
import json
import sys
report = {}
import hyperspin
report["engine after import"] = "hyperspin.sweep" in sys.modules
report["registry after import"] = "hyperspin.presets" in sys.modules
report["not in dir"] = sorted(set(hyperspin.__all__) - set(dir(hyperspin)))
report["unknown name"] = hasattr(hyperspin, "no_such_name")
report["engine after dir"] = "hyperspin.sweep" in sys.modules
registry = (hyperspin.PRESETS, hyperspin.FigurePreset, hyperspin.figure_preset)
report["after the registry"] = [
    name for name in ("numpy", "hyperspin.sweep", "hyperspin.presets") if name in sys.modules
]
import hyperspin.presets as presets
report["not the registry's"] = [
    name for name, value in zip(("PRESETS", "FigurePreset", "figure_preset"), registry)
    if value is not getattr(presets, name)
]
report["not in presets"] = [name for name in MOVED if not hasattr(presets, name)]
namespace = {}
exec("from hyperspin import *", namespace)
report["not starred"] = sorted(set(hyperspin.__all__) - set(namespace))
report["starred apart"] = sorted(
    name for name in hyperspin.__all__ if namespace[name] is not getattr(hyperspin, name)
)
import hyperspin.sweep as sweep
report["not the engine's"] = sorted(
    name for name in hyperspin.__all__
    if hasattr(sweep, name) and getattr(hyperspin, name) is not getattr(sweep, name)
)
report["not in sweep"] = [name for name in SWEEP_NAMES if not hasattr(sweep, name)]
report["unknown in sweep"] = hasattr(sweep, "no_such_name")
namespace = {}
exec("from hyperspin.sweep import " + ", ".join(SWEEP_NAMES), namespace)
report["not imported"] = [name for name in SWEEP_NAMES if name not in namespace]
report["forwarded"] = [name for name in FORWARDED if hasattr(sweep, name)]
report["moved"] = [name for name in MOVED if hasattr(sweep, name)]
import hyperspin.grid as grid
grid.MAX_ROWS = 12
try:
    sweep.run_preset("m08")
    report["cap honoured"] = False
except hyperspin.DomainError:
    report["cap honoured"] = True
from hyperspin import cli, selfcheck
report["submodules"] = [cli.__name__, selfcheck.__name__]
print(json.dumps(report))
"""


def test_engine_names_load_the_engine_on_first_read():
    header = f"SWEEP_NAMES = {SWEEP_NAMES!r}\nFORWARDED = {FORWARDED!r}\nMOVED = {MOVED!r}\n"
    proc = subprocess.run(
        [sys.executable, "-c", header + PROBE], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "engine after import": False,
        "registry after import": False,
        "not in dir": [],
        "unknown name": False,
        "engine after dir": False,
        "after the registry": ["hyperspin.presets"],
        "not the registry's": [],
        "not in presets": [],
        "not starred": [],
        "starred apart": [],
        "not the engine's": [],
        "not in sweep": [],
        "unknown in sweep": False,
        "not imported": [],
        "forwarded": [],
        "moved": [],
        "cap honoured": True,
        "submodules": ["hyperspin.cli", "hyperspin.selfcheck"],
    }


def _unread_imports(source):
    """The names that ``source`` imports and never reads, ``from __future__``
    imports apart."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    # ``__init__`` imports to re-export; every other module imports to read.
    package = ROOT / "src" / "hyperspin"
    unread = {
        path.name: _unread_imports(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unread.items() if names} == {}


def test_the_unread_import_check_sees_one():
    assert _unread_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == ["e", "os"]


def _toml_table(text, name):
    """The body of the ``[name]`` table of a TOML file, up to the next table."""
    match = re.search(rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert match, name
    return match.group(1)


def test_the_version_has_one_source():
    # The package metadata reads ``hyperspin._version.__version__``, which
    # ``--version`` prints, and holds no version of its own.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = _toml_table(text, "project")
    assert re.search(r'^dynamic = \["version"\]$', project, re.M)
    assert not re.search(r"^version\s*=", project, re.M)
    dynamic = _toml_table(text, "tool.setuptools.dynamic")
    assert re.search(r'^version = \{attr = "hyperspin\._version\.__version__"\}$', dynamic, re.M)
