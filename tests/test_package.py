"""``import hyperspin`` loads the sweep engine only when one of its names is
first read, and every name stays where it was: in ``hyperspin.__all__``, in
``dir(hyperspin)``, and in ``hyperspin.sweep`` for what moved to
``hyperspin.grid``.  Each check runs in a fresh interpreter, where nothing
has loaded the engine yet.
"""

import json
import subprocess
import sys

#: The names of hyperspin's own that ``from hyperspin.sweep import ...``
#: gave before the point types, the column table and ``point_row`` moved to
#: ``hyperspin.grid``: those the module defined and those it imported from
#: other hyperspin modules (its standard-library imports are left out).
#: ``_render_odd_chunks``, the child of the one-child render, is left out as
#: well: ``_render_worker`` replaced it when two workers took over rendering.
#: So are ``_write`` and ``_write_document``, the text and the byte writers
#: that ``hyperspin.grid._to_sink`` replaced when every output became bytes.
SWEEP_NAMES = """
COLUMNS COLUMN_NAMES CSV_HEADER ChannelConfig DensityMatrix4 DomainError
FLOAT_FORMAT FigurePreset HyperspinError KERNEL_VARIANT MAX_ROWS MEASURE_NAMES
MeasureRecord PHI_ATOL PRESETS STEERING_CLASSES SteeringClass SteeringResult
SweepGrid SweepResult SweepRow TimeGrid UnknownPresetError _CHUNK_ROWS _CSV
_Columns _FORMATS _FRAME_HEADER _Format _HALF_PI _JSON _MEASURE_COLUMNS
_MU_FULL _Ops _PHI_COMPARE _PHI_FULL _POINT_COLUMNS _ROW_FORMAT
_SERIES_COLUMNS _STATE_FIELDS _T_MARKOV _T_NONMARKOV _anti_diagonal_bloch
_bloch_outside _build_presets _chunk_values _coherence_l1 _concurrence
_concurrence_outside _csv_fields _dephased _diagonal_bloch _discord _document
_emit _eof _eta_outside _evaluate _frame _grid _in_context _interleaved
_json_fields _json_record _json_string _json_values _kernel_at _measure_chunk
_pick _records_from _row_chunks _row_of _run _state_constants _steering
_steering_bounds _surface_presets _survival
channel_params check_range density_matrix dephase emit figure_preset
measure_all memory_kernel point_row run_preset run_sweep
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
import hyperspin.grid as grid
grid.MAX_ROWS = 12
report["cap read from sweep"] = sweep.MAX_ROWS
from hyperspin import cli, selfcheck
report["submodules"] = [cli.__name__, selfcheck.__name__]
print(json.dumps(report))
"""


def test_engine_names_load_the_engine_on_first_read():
    header = f"SWEEP_NAMES = {SWEEP_NAMES!r}\n"
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
        "cap read from sweep": 12,
        "submodules": ["hyperspin.cli", "hyperspin.selfcheck"],
    }
