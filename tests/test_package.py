"""``import hyperspin`` loads the sweep engine only when one of its names is
first read, and every name stays where it was: in ``hyperspin.__all__`` and
in ``dir(hyperspin)``.  What moved to ``hyperspin.grid`` is read from there
alone.  Each check runs in a fresh interpreter, where nothing has loaded
the engine yet.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

#: The names of hyperspin's own that ``from hyperspin.sweep import ...``
#: gave before the point types, the column table and ``point_row`` moved to
#: ``hyperspin.grid``: those the module defined and those it imported from
#: other hyperspin modules (its standard-library imports are left out).
#: ``_render_odd_chunks``, the child of the one-child render, is left out as
#: well: ``_render_worker`` replaced it when two workers took over rendering.
#: So are ``_write`` and ``_write_document``, the text and the byte writers
#: that ``hyperspin.grid._to_sink`` replaced when every output became bytes,
#: and ``_records_from``, whose part ``_document`` took back when
#: ``_to_sink`` began to make the first piece before it opens a path.
#: ``_coherence_l1``, ``_discord``, ``_eof`` and ``_steering`` are left out
#: too: the engine imported them but reads none of them since it runs
#: ``_measure_values`` (see ``test_no_module_imports_a_name_it_never_reads``).
#: ``MAX_ROWS``, ``PHI_ATOL``, ``check_range``, ``memory_kernel``,
#: ``density_matrix``, ``dephase``, ``measure_all``, ``_ROW_FORMAT``,
#: ``_in_context`` and ``_json_record`` are left out as well (``FORWARDED``):
#: they live in ``hyperspin.grid``, where the engine reads them, and a
#: forwarder that served them here let ``hyperspin.sweep.MAX_ROWS = 10``
#: bind a cap that nothing honoured.
SWEEP_NAMES = """
COLUMNS COLUMN_NAMES CSV_HEADER ChannelConfig DensityMatrix4 DomainError
FLOAT_FORMAT FigurePreset HyperspinError KERNEL_VARIANT MEASURE_NAMES
MeasureRecord PRESETS STEERING_CLASSES SteeringClass SteeringResult
SweepGrid SweepResult SweepRow TimeGrid UnknownPresetError _CHUNK_ROWS _CSV
_Columns _FORMATS _FRAME_HEADER _Format _HALF_PI _JSON _MEASURE_COLUMNS
_MU_FULL _Ops _PHI_COMPARE _PHI_FULL _POINT_COLUMNS
_SERIES_COLUMNS _STATE_FIELDS _T_MARKOV _T_NONMARKOV _anti_diagonal_bloch
_bloch_outside _build_presets _chunk_values _concurrence
_concurrence_outside _csv_fields _dephased _diagonal_bloch _document
_emit _eta_outside _evaluate _frame _grid _interleaved
_json_fields _json_string _json_values _kernel_at _measure_chunk
_pick _row_chunks _row_of _run _state_constants
_steering_bounds _surface_presets _survival
channel_params emit figure_preset
point_row run_preset run_sweep
""".split()

#: The names that ``hyperspin.sweep`` served from ``hyperspin.grid`` and
#: no longer does.
FORWARDED = """
MAX_ROWS PHI_ATOL check_range memory_kernel density_matrix dephase measure_all
_ROW_FORMAT _in_context _json_record
""".split()

PROBE = """\
import json
import sys
report = {}
import hyperspin
report["engine after import"] = "hyperspin.sweep" in sys.modules
report["not in dir"] = sorted(set(hyperspin.__all__) - set(dir(hyperspin)))
report["unknown name"] = hasattr(hyperspin, "no_such_name")
report["engine after dir"] = "hyperspin.sweep" in sys.modules
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
    header = f"SWEEP_NAMES = {SWEEP_NAMES!r}\nFORWARDED = {FORWARDED!r}\n"
    proc = subprocess.run(
        [sys.executable, "-c", header + PROBE], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "engine after import": False,
        "not in dir": [],
        "unknown name": False,
        "engine after dir": False,
        "not starred": [],
        "starred apart": [],
        "not the engine's": [],
        "not in sweep": [],
        "unknown in sweep": False,
        "not imported": [],
        "forwarded": [],
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
    package = Path(__file__).resolve().parent.parent / "src" / "hyperspin"
    unread = {
        path.name: _unread_imports(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unread.items() if names} == {}


def test_the_unread_import_check_sees_one():
    assert _unread_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == ["e", "os"]
