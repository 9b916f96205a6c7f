"""Rules of scripts/check_telemetry_lint.py, checked on small sources."""

import ast
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_telemetry_lint.py"
_spec = importlib.util.spec_from_file_location("check_telemetry_lint", SCRIPT)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _power_lines(source: str, package: str = "nn"):
    path = lint.TARGET / package / "probe.py"
    return sorted(line for line, _ in lint._power_violations(path, ast.parse(source)))


class TestPowerRule:
    @pytest.mark.parametrize(
        "expr",
        [
            "x**3",
            "0.044715 * x**3",
            "x ** -1",
            "x ** 0.5",
            "np.power(x, 2)",
            "numpy.float_power(x, 3)",
        ],
    )
    def test_rejects_elementwise_pow(self, expr):
        assert _power_lines(f"y = {expr}\n") == [1]

    def test_rejects_in_place_pow(self):
        assert _power_lines("x **= 3\n") == [1]

    @pytest.mark.parametrize(
        "expr",
        [
            "2 ** (bits - 1)",
            "2**bits - 1",
            "b1**self._t",
            "(flat[None, :] - q) ** 2",
            "x ** 2.0",
            "2 ** 20",
            "(-2) ** 3",
            "x * x * x",
        ],
    )
    def test_allows_squares_constant_bases_and_variable_exponents(self, expr):
        assert _power_lines(f"y = {expr}\n") == []

    def test_only_layer_kernel_packages(self):
        assert _power_lines("y = x**3\n", package="quant") == [1]
        assert _power_lines("y = x**3\n", package="core") == []


def _im2col_lines(source: str):
    return sorted(line for line, _ in lint._im2col_violations(ast.parse(source)))


class TestIm2colRule:
    def test_rejects_forward_building_patch_matrix(self):
        source = (
            "def conv2d_forward(x, w):\n"
            "    cols, hw = im2col(x, 3, 3, 1, 1)\n"
            "    return F.im2col(x, 3, 3, 1, 1)\n"
        )
        assert _im2col_lines(source) == [2, 3]

    def test_allows_backward_only(self):
        source = (
            "def conv2d_backward(grad_out, weight, cache):\n"
            "    cols, hw = im2col(cache[0], 3, 3, 1, 1)\n"
            "    def helper():\n"
            "        return im2col(cache[0], 3, 3, 1, 1)\n"
        )
        assert _im2col_lines(source) == [4]

    def test_tree_passes(self):
        for path in sorted(lint.TARGET.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            assert list(lint._im2col_violations(tree)) == [], path


def _scipy_lines(source: str):
    return sorted(line for line, _ in lint._scipy_violations(ast.parse(source)))


class TestScipyRule:
    def test_rejects_scipy_in_a_solver_module(self):
        solver = (lint.TARGET / "solvers" / "qp_relax.py").read_text()
        assert _scipy_lines("from scipy import optimize\n" + solver) == [1]

    @pytest.mark.parametrize(
        "source",
        [
            "import scipy\n",
            "import scipy.optimize as opt\n",
            "import numpy, scipy.linalg\n",
            "from scipy.optimize import minimize\n",
            "def f():\n    from scipy import optimize\n",
        ],
    )
    def test_rejects_every_import_form(self, source):
        assert len(_scipy_lines(source)) == 1

    def test_allows_other_modules(self):
        source = "import scipyx\nfrom .scipy import helper\nimport numpy as np\n"
        assert _scipy_lines(source) == []

    def test_tree_passes(self):
        for path in sorted(lint.TARGET.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            assert list(lint._scipy_violations(tree)) == [], path


def _input_write_lines(source: str, package: str = "nn"):
    path = lint.TARGET / package / "probe.py"
    return sorted(
        line for line, _ in lint._input_write_violations(path, ast.parse(source))
    )


class TestInputWriteRule:
    @pytest.mark.parametrize(
        "body",
        [
            "x -= mean",
            "x[:, 0] *= 2.0",
            "x[:, 0] = 0.0",
            "np.multiply(x, mask, out=x)",
            "np.exp(x, out=(x,))",
            "np.add(x, 1.0, out=None if self.grad_enabled else x)",
        ],
    )
    def test_rejects_writes_into_the_input(self, body):
        source = f"class L:\n    def forward(self, x):\n        {body}\n        return x\n"
        assert _input_write_lines(source) == [3]

    def test_rejects_in_models_too(self):
        source = "def forward(self, tokens):\n    tokens += 1.0\n    return tokens\n"
        assert _input_write_lines(source, package="models") == [2]

    @pytest.mark.parametrize(
        "body",
        [
            "out += identity",
            "x = x + identity",
            "out[:, 0] = x[:, 0]",
            "out = x - mean\n        out *= inv_std",
            "np.exp(out, out=out)",
            "np.add(out, 1.0, out=None if self.grad_enabled else out)",
            "self.count += 1",
        ],
    )
    def test_allows_writes_into_own_buffers(self, body):
        source = (
            "class L:\n    def forward(self, x):\n        out = x * 1.0\n"
            f"        {body}\n        return out\n"
        )
        assert _input_write_lines(source) == []

    @pytest.mark.parametrize(
        "body, lines",
        [
            ("branch, skip = state\n        branch += h", [4]),
            ("skip = state.skip\n        skip[...] = 0.0", [4]),
            ("state.skip[...] = 0.0", [3]),
            ("row = state[1]\n        np.add(row, h, out=row)", [4]),
            ("(a, (b, c)) = state\n        c *= 2.0", [4]),
            ("skip = state.skip\n        row = skip[0]\n        row -= h", [5]),
            ("s = state if h is None else h\n        s.branch[0] = 1.0", [4]),
        ],
    )
    def test_rejects_writes_through_names_bound_from_the_input(self, body, lines):
        """A residual state's fields are checkpoints like the state: a
        name unpacked from the input, or taken from it by attribute or
        subscript, is the input."""
        source = f"class L:\n    def forward(self, state, h=None):\n        {body}\n"
        assert _input_write_lines(source) == lines

    @pytest.mark.parametrize(
        "body",
        [
            "branch, skip = state\n        out = branch + skip\n        out += h",
            "skip = state.skip\n        skip = self.shortcut.forward(skip)",
            "n = len(state)\n        n += 1",
            "out = state.branch * 1.0\n        out[0] = 0.0",
        ],
    )
    def test_allows_names_bound_to_new_arrays(self, body):
        source = f"class L:\n    def forward(self, state, h=None):\n        {body}\n"
        assert _input_write_lines(source) == []

    def test_only_forwards_in_layer_packages(self):
        source = "def backward(self, x):\n    x -= 1.0\n"
        assert _input_write_lines(source) == []
        source = "def forward(self, x):\n    x -= 1.0\n"
        assert _input_write_lines(source, package="core") == []

    def test_tree_passes(self):
        for path in sorted(lint.TARGET.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            assert list(lint._input_write_violations(path, tree)) == [], path


def _instance_state_lines(source: str):
    return sorted(
        line for line, _ in lint._instance_state_violations(ast.parse(source))
    )


class TestInstanceStateRule:
    def test_rejects_knob_pinned_in_a_method(self):
        source = (
            "class SensitivityEngine:\n"
            "    def _measure_segmented(self, cache_budget):\n"
            "        self._active_cache_budget = cache_budget\n"
        )
        assert _instance_state_lines(source) == [3]

    @pytest.mark.parametrize(
        "body, lines",
        [
            ("self._fault_attempt += 1", [3]),
            ("self.a, self.b = 1, 2", [3, 3]),
            ("self.flag: bool = True", [3]),
            ("def inner():\n            self.x = 1", [4]),
        ],
    )
    def test_rejects_every_assignment_form(self, body, lines):
        source = f"class SweepSession:\n    def run(self):\n        {body}\n"
        assert _instance_state_lines(source) == lines

    def test_allows_init_and_other_classes(self):
        source = (
            "class SensitivityEngine:\n"
            "    def __init__(self, cache_budget):\n"
            "        self._active_cache_budget = cache_budget\n"
            "    def measure(self):\n"
            "        local = self._active_cache_budget\n"
            "        self.table.restore_all()\n"
            "class Other:\n"
            "    def run(self):\n"
            "        self.state = 1\n"
        )
        assert _instance_state_lines(source) == []

    def test_tree_passes(self):
        for path in sorted(lint.TARGET.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            assert list(lint._instance_state_violations(tree)) == [], path


def _process_lines(source: str, module: str):
    path = lint.TARGET / module
    return sorted(
        line for line, _ in lint._process_import_violations(path, ast.parse(source))
    )


class TestProcessImportRule:
    def test_rejects_a_second_transport(self):
        # The import block of the on-disk work-queue coordinator that once
        # spawned sweep workers next to the fork supervisor.
        source = (
            "import json\n"
            "import os\n"
            "import shutil\n"
            "import subprocess\n"
            "import sys\n"
        )
        assert _process_lines(source, "distrib/queue.py") == [4]

    @pytest.mark.parametrize(
        "source",
        [
            "import multiprocessing\n",
            "import multiprocessing as mp\n",
            "import multiprocessing.connection\n",
            "from multiprocessing import connection as mp_connection\n",
            "from multiprocessing.pool import Pool\n",
            "import subprocess\n",
            "from subprocess import Popen\n",
            "def f():\n    import subprocess\n",
            "import ctypes\n",
            "import ctypes.util\n",
            "from ctypes import CDLL\n",
        ],
    )
    def test_rejects_every_import_form_elsewhere(self, source):
        assert len(_process_lines(source, "core/clado.py")) == 1

    def test_ctypes_belongs_to_the_sweep(self):
        # A kernel module reaching for libc would change the process-wide
        # allocator settings the sweep makes.
        source = "import ctypes\n\nimport numpy as np\n"
        assert _process_lines(source, "nn/functional.py") == [1]
        assert _process_lines(source, "core/sensitivity.py") == []

    def test_each_module_has_one_owner(self):
        mp_source = "import multiprocessing as mp\n"
        sp_source = "import subprocess\n"
        assert _process_lines(mp_source, "core/sensitivity.py") == []
        assert _process_lines(sp_source, "telemetry/manifest.py") == []
        assert _process_lines(sp_source, "core/sensitivity.py") == [1]
        assert _process_lines(mp_source, "telemetry/manifest.py") == [1]

    def test_allows_relative_and_lookalike_imports(self):
        source = "from .subprocess import run\nimport multiprocessingx\n"
        assert _process_lines(source, "core/clado.py") == []

    def test_tree_passes(self):
        for path in sorted(lint.TARGET.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            assert list(lint._process_import_violations(path, tree)) == [], path


def _raw_write_lines(source: str, module: str = "experiments/runner.py"):
    path = lint.TARGET / module
    return sorted(
        line
        for line, _ in lint._raw_write_violations(
            path, ast.parse(source), source.splitlines()
        )
    )


class TestRawWriteRule:
    def test_rejects_path_writers(self):
        # ExperimentContext.save_result before it went through atomicio:
        # a run killed mid-write left a torn JSON file for load_result.
        source = (
            "def save_result(self, name, payload):\n"
            "    self.result_path(name).write_text(json.dumps(payload, indent=2))\n"
        )
        assert _raw_write_lines(source) == [2]
        assert _raw_write_lines("path.write_bytes(blob)\n") == [1]

    def test_allows_atomicio_and_marked_sites(self):
        source = "path.write_text(text)\n"
        assert _raw_write_lines(source, module="atomicio.py") == []
        marked = "# lint-allow-raw-write: in-memory only\npath.write_text(text)\n"
        assert _raw_write_lines(marked) == []

    def test_tree_passes(self):
        for path in sorted(lint.TARGET.rglob("*.py")):
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
            assert list(
                lint._raw_write_violations(path, tree, source.splitlines())
            ) == [], path


def _np_load_lines(source: str):
    return sorted(line for line, _ in lint._np_load_violations(ast.parse(source)))


class TestNpLoadRule:
    def test_rejects_paths(self):
        # SweepCheckpoint.load before it opened the file itself: a
        # truncated checkpoint raised BadZipFile with the file left open.
        source = (
            "def load(self):\n"
            "    with np.load(self.path, allow_pickle=False) as blob:\n"
            "        return blob['losses']\n"
        )
        assert _np_load_lines(source) == [2]
        assert _np_load_lines("blob = numpy.load(path)\n") == [1]
        assert _np_load_lines("blob = np.load(file=path)\n") == [1]

    def test_rejects_handles_not_from_open(self):
        source = "with io.BytesIO(data) as fh:\n    blob = np.load(fh)\n"
        assert _np_load_lines(source) == [2]

    def test_allows_open_handles(self):
        source = (
            "with open(path, 'rb') as fh, np.load(fh, allow_pickle=False) as b:\n"
            "    arrays = dict(b)\n"
            "with open(path, 'rb') as other:\n"
            "    with np.load(other) as b:\n"
            "        pass\n"
        )
        assert _np_load_lines(source) == []

    def test_tree_passes(self):
        for path in sorted(lint.TARGET.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            assert list(lint._np_load_violations(tree)) == [], path
