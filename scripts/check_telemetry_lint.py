#!/usr/bin/env python
"""AST lint: enforce the telemetry conventions inside ``src/repro/``.

Fourteen rules (see docs/observability.md and docs/robustness.md):

1. No ``time.time()`` — wall-clock arithmetic must use
   ``telemetry.monotonic()`` (an alias of ``time.perf_counter``) so spans
   and durations survive clock adjustments.  ``perf_counter`` itself is
   fine.
2. No bare ``print(...)`` — console output goes through
   ``telemetry.emit()``, the single sanctioned stdout sink, so library
   code stays silent by default and the CLI remains the only chatty
   layer.
3. No per-iteration GEMMs in functions marked ``@hot_path``
   (``repro.core.sweep.hot_path``) — inside their ``for``/``while``
   bodies, ``@`` (matmul), ``np.matmul``, ``np.einsum``, ``np.dot`` and
   ``np.tensordot`` are rejected.  Hot sweep loops hand whole batches
   to the layer forwards, whose kernels in ``repro.nn.functional`` run
   the GEMMs, instead of looping tiny GEMMs in Python.
4. No silent error swallows — bare ``except:`` is always rejected, and
   ``except Exception:`` (or ``BaseException``) whose body only
   passes/returns is rejected unless the site is explicitly allowlisted
   in :data:`ALLOWED_SWALLOWS` *and* carries a ``lint-allow-swallow``
   comment explaining why eating the error is the correct behaviour.
   Narrow handlers (``except OSError:`` etc.) are fine: the rule targets
   the catch-everything-and-hide pattern that turns worker crashes and
   data corruption into silently wrong matrices.
5. No ``np.linalg.eigh`` / ``eigvalsh`` outside ``repro/core/psd.py`` —
   all eigendecomposition of Ĝ flows through the audited module so its
   SVD fallback (and the ``psd.fallback`` counter) covers every caller;
   a direct call elsewhere would crash on the same near-defective
   matrices the fallback exists to survive.
6. No unbounded blocking waits — zero-argument ``.recv()`` and
   ``.join()``, ``.wait(...)`` without a ``timeout=`` keyword, and
   ``.poll(None)`` are rejected.  A coordinator or supervisor parked on
   an indefinite wait turns a crashed peer into a hung process, which is
   exactly the failure mode the sweep supervisor exists to survive; every
   blocking call must carry a timeout so liveness decisions stay with
   the caller.  Zero-argument ``.poll()`` (``subprocess.Popen.poll`` is
   non-blocking) and string/path ``.join(parts)`` are fine.  A site
   where blocking forever is the designed behaviour (e.g. an idle
   worker parked on its task pipe whose parent owns liveness) carries a
   ``lint-allow-blocking`` comment just above explaining why.
7. No raw artifact writes — ``open(..., "w"/"wb"/"a"/...)``,
   ``np.save``/``np.savez``/``np.savez_compressed``, ``json.dump`` and
   ``Path.write_text``/``write_bytes`` are forbidden everywhere in
   ``src/repro`` except
   :mod:`repro.atomicio`, the one sanctioned writer.  A plain write can
   be killed half-done and leave a visible, truncated artifact; the
   atomic helper's tmp + ``os.replace`` discipline is what makes
   checkpoints, caches, and store entries crash-safe, so every
   byte on disk must flow through it.  A site whose write is itself part
   of an atomic discipline (the helper's own tmp write, an in-memory
   ``BytesIO`` serialization, an ``O_EXCL``-created lock file) carries a
   ``lint-allow-raw-write`` comment explaining why.
8. No elementwise powers in the layer kernels — inside ``repro/nn/`` and
   ``repro/quant/``, ``base ** c`` with a numeric constant ``c`` other
   than 2 (and a non-constant base), and calls to ``np.power`` /
   ``np.float_power``, are rejected.  NumPy squares ``** 2`` with a
   multiply but sends exponents such as 3 through libm ``pow`` per
   element, which made ``x**3`` in GELU the largest cost of a ViT sweep;
   write the power as a product (``x * x * x``).  Constant bases
   (``2 ** (bits - 1)``) and non-constant exponents (``b1**self._t``)
   are fine.
9. No full-batch patch matrices in forward passes — ``im2col(...)`` may
   be called only from ``conv2d_backward``.  A 3x3 patch matrix is 9x
   its input; built for a whole batch it is written to DRAM and
   read back by the GEMMs, which made it most of a CNN sweep's conv time
   and its peak memory.  Every forward path goes through
   ``repro.nn.functional._conv_into``, which gathers one cache-sized
   block of samples at a time; backward, which needs the whole matrix
   for ``dW``, rebuilds it from the cached input.  Both fill their patch
   buffers through the one builder, ``_patch_gather`` (whole shifted
   planes for a stride-1 "same" conv, sliding windows otherwise).
10. No scipy — ``import scipy`` and ``from scipy ...`` are rejected
    everywhere in ``src/repro``.  Branch-and-bound prunes on node bounds
    that must be certified, and a general NLP solver's objective value is
    not a lower bound; the relaxation is solved by the active-set method
    in ``repro.solvers.qp_relax``, which returns a certified Lagrangian
    bound.  ``scipy.optimize`` alone also adds about 44 MiB to every
    allocation process.
11. No forward writes into its input — inside ``forward`` methods in
    ``repro/nn/`` and ``repro/models/``, and in the two methods forwards
    delegate to (``MultiHeadSelfAttention.context``, which a transformer
    block's segment runs on a checkpoint, and ``Linear.project``, which
    runs on the attention input), an augmented assignment to a
    parameter of the forward (``x -= mean``, ``x[i] *= 2``), an
    assignment into one (``x[i] = 0``) and an ``out=`` argument that may
    name one (``np.multiply(x, mask, out=x)``, also as an arm of
    ``a if cond else b``) are rejected.  A name bound from a parameter by
    unpacking, attribute or subscript (``branch, skip = state``,
    ``skip = state.skip``, ``row = x[0]``), or by a chain of these, counts
    as the parameter: a residual state's fields are checkpoints too.
    The sweep feeds one checkpointed
    activation to many replays, so a forward that overwrote its input
    would change every later replay from that cut; the sweep freezes its
    checkpoints to catch this at run time, and the rule catches it in
    review, also for layers no test puts at a segment boundary.
    Accumulating into a buffer the forward allocated (``out += identity``)
    is fine.
12. No per-call state on the sweep objects — inside the classes
    ``SensitivityEngine`` and ``SweepSession``, ``self.<attr> = ...``
    (also augmented, annotated and tuple assignments, and in functions
    nested in a method) may appear only in ``__init__``.  Every execution
    option is resolved once from the frozen ``SensitivityConfig`` when a
    session opens; a method that stashed a knob or a fault flag on
    ``self`` would leak it into the next sweep and into the forked workers
    that inherit the object.  Pass such values as arguments.
13. One module per process-level import — ``import multiprocessing`` /
    ``from multiprocessing ...`` and ``import ctypes`` /
    ``from ctypes ...`` are allowed only in ``repro/core/sensitivity.py``
    (the sweep's fork supervisor, and its one allocator setting), and
    ``import subprocess`` / ``from subprocess ...`` only in
    ``repro/telemetry/manifest.py`` (which runs ``git rev-parse``).  The
    supervisor is the sweep's one multi-process transport, with one
    failure model: pipe EOF for a crashed worker and a per-group deadline
    for a hung one requeue the group, the parent runs what is left once
    every worker is gone, and a group that raises fails the sweep.  A
    second module starting workers would bring its own failure model, its own
    fault kinds and its own telemetry path.  ``ctypes`` changes the
    whole process (the sweep sets two glibc ``mallopt`` thresholds that
    fork workers inherit); a second caller could silently undo them.
14. ``np.load`` only on an open handle — its first argument must be a
    name bound by ``with open(...) as name``.  Given a path, ``np.load``
    opens the file itself and, when the archive fails to parse (a
    truncated checkpoint, a damaged store entry), raises with that file
    still open; every loader in ``src/repro`` rejects such files and
    carries on, so each rejection leaked a file descriptor until garbage
    collection.  A handle from ``with open(...)`` is closed either way.

Exit status 0 when clean, 1 with a ``path:line: message`` listing per
violation.  Run via ``make lint`` (part of the default ``make`` target).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "src" / "repro"

# telemetry/__init__.py defines emit() itself and may touch stdout.
ALLOWED_STDOUT = {TARGET / "telemetry" / "__init__.py"}

#: GEMM entry points that must not sit inside a loop in a hot function.
GEMM_NAMES = {"matmul", "einsum", "dot", "tensordot"}

#: Broad exception names rule 4 refuses to let swallow silently.
BROAD_EXCEPTIONS = {"Exception", "BaseException"}

#: Rule-4 allowlist: ``(file relative to src/repro, enclosing function)``
#: sites where a broad swallow is the designed behaviour.  Every entry
#: must also carry a ``lint-allow-swallow`` comment at the handler.
#: Currently empty — the one historical entry (SweepCheckpoint.load) now
#: attributes every rejected checkpoint to a ``checkpoint.*`` counter, so
#: its broad handler records the error and passes the rule on merit.
ALLOWED_SWALLOWS: set = set()

#: Rule 5: the only module allowed to call eigh/eigvalsh directly.
EIGH_NAMES = {"eigh", "eigvalsh"}
ALLOWED_EIGH = {TARGET / "core" / "psd.py"}

#: Marker comment required (on or just above the handler line) at every
#: allowlisted swallow site.
SWALLOW_MARKER = "lint-allow-swallow"

#: Marker comment sanctioning an intentionally unbounded blocking call.
BLOCKING_MARKER = "lint-allow-blocking"

#: Marker comment sanctioning a raw (non-atomic) write site.
RAW_WRITE_MARKER = "lint-allow-raw-write"

#: Rule 7: the one module allowed to write artifacts directly.
ALLOWED_RAW_WRITE = {TARGET / "atomicio.py"}

#: ``np.*`` savers rule 7 rejects outside the atomic writer.
NP_SAVE_NAMES = {"save", "savez", "savez_compressed"}

#: ``pathlib.Path`` writers rule 7 rejects outside the atomic writer.
PATH_WRITE_NAMES = {"write_text", "write_bytes"}

#: Rule 8: the packages whose elementwise kernels may not call libm pow.
POWER_DIRS = (TARGET / "nn", TARGET / "quant")

#: ``np.*`` functions rule 8 rejects there.
NP_POWER_NAMES = {"power", "float_power"}

#: Rule 9: the one function allowed to build a whole patch matrix.
ALLOWED_IM2COL = "conv2d_backward"

#: Rule 11: the packages whose forwards may not write into their input.
INPUT_WRITE_DIRS = (TARGET / "nn", TARGET / "models")

#: Rule 11: the methods it inspects, forwards and what they delegate to.
INPUT_WRITE_METHODS = {"forward", "context", "project"}

#: Rule 12: classes whose instance attributes are set only in ``__init__``.
INIT_ONLY_STATE_CLASSES = {"SensitivityEngine", "SweepSession"}

#: Rule 13: the one module allowed to import each process-level module.
PROCESS_MODULES = {
    "multiprocessing": TARGET / "core" / "sensitivity.py",
    "ctypes": TARGET / "core" / "sensitivity.py",
    "subprocess": TARGET / "telemetry" / "manifest.py",
}


def _is_hot_path(func: ast.AST) -> bool:
    """True when ``func`` carries the ``@hot_path`` marker decorator."""
    for dec in getattr(func, "decorator_list", []):
        if isinstance(dec, ast.Name) and dec.id == "hot_path":
            return True
        if isinstance(dec, ast.Attribute) and dec.attr == "hot_path":
            return True
    return False


def _gemms_in_loops(func: ast.AST):
    """Yield (lineno, op) for GEMM calls inside for/while bodies of ``func``."""
    for loop in ast.walk(func):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                yield node.lineno, "the @ matmul operator"
            elif isinstance(node, ast.Call):
                fn = node.func
                name = None
                if isinstance(fn, ast.Attribute) and fn.attr in GEMM_NAMES:
                    name = fn.attr
                elif isinstance(fn, ast.Name) and fn.id in GEMM_NAMES:
                    name = fn.id
                if name is not None:
                    yield node.lineno, f"{name}()"


def _is_broad(handler: ast.ExceptHandler) -> bool:
    """True when the handler catches Exception/BaseException (incl. tuples)."""
    node = handler.type
    names = node.elts if isinstance(node, ast.Tuple) else [node]
    for name in names:
        if isinstance(name, ast.Name) and name.id in BROAD_EXCEPTIONS:
            return True
        if isinstance(name, ast.Attribute) and name.attr in BROAD_EXCEPTIONS:
            return True
    return False


def _is_swallow(handler: ast.ExceptHandler) -> bool:
    """True when the handler body only passes/returns/continues/breaks.

    A body that re-raises, logs, records telemetry, or computes anything
    is handling the error; a body of control-flow-only statements is
    hiding it.
    """
    return all(
        isinstance(stmt, (ast.Pass, ast.Return, ast.Continue, ast.Break))
        and not any(isinstance(n, ast.Call) for n in ast.walk(stmt))
        for stmt in handler.body
    )


def _swallow_violations(path: Path, tree: ast.AST, source_lines):
    """Rule 4: bare ``except:`` and silent broad-exception swallows."""
    relative = path.relative_to(TARGET).as_posix()

    def enclosing_function(target: ast.AST):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    if child is target:
                        return node.name
        return None

    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler):
            continue
        if handler.type is None:
            yield (
                handler.lineno,
                "bare 'except:' is forbidden; name the exceptions this "
                "site can actually handle",
            )
            continue
        if not (_is_broad(handler) and _is_swallow(handler)):
            continue
        func = enclosing_function(handler)
        allowed = (relative, func) in ALLOWED_SWALLOWS
        window = source_lines[max(0, handler.lineno - 8) : handler.lineno]
        marked = any(SWALLOW_MARKER in line for line in window)
        if allowed and marked:
            continue
        hint = (
            f"allowlisted but missing a '{SWALLOW_MARKER}' comment"
            if allowed
            else "narrow the exception type, or handle/record the error "
            "(allowlist additions need a comment and an "
            "ALLOWED_SWALLOWS entry)"
        )
        yield (
            handler.lineno,
            f"silent 'except {ast.unparse(handler.type)}' swallow; {hint}",
        )


def _blocking_violations(tree: ast.AST, source_lines):
    """Rule 6: unbounded blocking waits (no timeout, no escape marker)."""

    def marked(lineno: int) -> bool:
        window = source_lines[max(0, lineno - 8) : lineno]
        return any(BLOCKING_MARKER in line for line in window)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if not isinstance(fn, ast.Attribute):
            continue
        has_timeout_kwarg = any(kw.arg == "timeout" for kw in node.keywords)
        message = None
        if fn.attr == "recv" and not node.args and not node.keywords:
            message = (
                "unbounded .recv(); poll the connection with a timeout "
                "first, or mark the site"
            )
        elif fn.attr == "join" and not node.args and not has_timeout_kwarg:
            # str.join/path-join always take the parts argument, so a
            # zero-argument join is a thread/process join without bound.
            message = "unbounded .join(); pass timeout=..."
        elif fn.attr == "wait" and not has_timeout_kwarg:
            message = (
                "unbounded .wait(); pass an explicit timeout=... keyword"
            )
        elif fn.attr == "poll" and any(
            isinstance(a, ast.Constant) and a.value is None for a in node.args
        ):
            message = "poll(None) blocks forever; pass a finite timeout"
        if message is not None and not marked(node.lineno):
            yield (
                node.lineno,
                f"{message} (a designed-forever block needs a "
                f"'{BLOCKING_MARKER}' comment)",
            )


def _raw_write_violations(path: Path, tree: ast.AST, source_lines):
    """Rule 7: raw artifact writes outside the atomic-writer helper."""
    if path in ALLOWED_RAW_WRITE:
        return

    def marked(lineno: int) -> bool:
        window = source_lines[max(0, lineno - 8) : lineno]
        return any(RAW_WRITE_MARKER in line for line in window)

    def write_mode(node: ast.Call):
        """The literal mode string when it opens for writing, else None."""
        mode = None
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            mode = node.args[1].value
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = kw.value.value
        if isinstance(mode, str) and ("w" in mode or "a" in mode):
            return mode
        return None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        message = None
        if (isinstance(fn, ast.Name) and fn.id == "open") or (
            isinstance(fn, ast.Attribute) and fn.attr == "fdopen"
        ):
            mode = write_mode(node)
            if mode is not None:
                message = f"raw open(..., {mode!r})"
        elif (
            isinstance(fn, ast.Attribute)
            and fn.attr in NP_SAVE_NAMES
            and isinstance(fn.value, ast.Name)
            and fn.value.id in ("np", "numpy")
        ):
            message = f"raw np.{fn.attr}()"
        elif (
            isinstance(fn, ast.Attribute)
            and fn.attr == "dump"
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "json"
        ):
            message = "raw json.dump()"
        elif isinstance(fn, ast.Attribute) and fn.attr in PATH_WRITE_NAMES:
            message = f"raw .{fn.attr}()"
        if message is not None and not marked(node.lineno):
            yield (
                node.lineno,
                f"{message} outside repro/atomicio.py; route the write "
                "through atomic_write_bytes/_npz/_json so a crash cannot "
                "leave a torn artifact (a site that is itself atomic "
                f"needs a '{RAW_WRITE_MARKER}' comment)",
            )


def _is_number(node: ast.AST) -> bool:
    """True for a numeric literal, optionally signed (``3``, ``-0.5``)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _power_violations(path: Path, tree: ast.AST):
    """Rule 8: elementwise libm ``pow`` inside the layer kernels."""
    if not any(d in path.parents for d in POWER_DIRS):
        return
    hint = "write the power as a product (x * x * x)"
    for node in ast.walk(tree):
        fn = getattr(node, "func", None)
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in NP_POWER_NAMES
            and isinstance(fn.value, ast.Name)
            and fn.value.id in ("np", "numpy")
        ):
            yield node.lineno, f"np.{fn.attr}() runs libm pow per element; {hint}"
            continue
        if isinstance(node, ast.BinOp):
            base, exponent = node.left, node.right
        elif isinstance(node, ast.AugAssign):
            base, exponent = node.target, node.value
        else:
            continue
        squared = isinstance(exponent, ast.Constant) and exponent.value == 2
        if (
            isinstance(node.op, ast.Pow)
            and _is_number(exponent)
            and not squared
            and not _is_number(base)
        ):
            yield (
                node.lineno,
                f"'** {ast.unparse(exponent)}' in a layer kernel: NumPy turns "
                "'** 2' into a multiply but sends exponents such as 3 through "
                f"libm pow per element; {hint}",
            )


def _im2col_violations(tree: ast.AST):
    """Rule 9: ``im2col(...)`` called anywhere but ``conv2d_backward``."""

    def visit(node: ast.AST, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and func != ALLOWED_IM2COL:
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name == "im2col":
                yield (
                    node.lineno,
                    f"im2col() outside {ALLOWED_IM2COL}() builds a full-batch "
                    "patch matrix (9x the input for a 3x3 conv); forward "
                    "passes gather patches per block of samples through "
                    "nn.functional._conv_into",
                )
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    yield from visit(tree, None)


def _imported_packages(tree: ast.AST):
    """``(lineno, top-level package)`` of every absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            yield node.lineno, name.split(".")[0]


def _scipy_violations(tree: ast.AST):
    """Rule 10: no scipy import anywhere in ``src/repro``."""
    lines = sorted({line for line, pkg in _imported_packages(tree) if pkg == "scipy"})
    for lineno in lines:
        yield (
            lineno,
            "scipy import in src/repro: node bounds must be certified "
            "(an NLP solver's objective is not a lower bound) and "
            "scipy.optimize costs every allocation process ~44 MiB; "
            "use the active-set QP in repro.solvers.qp_relax",
        )


def _process_import_violations(path: Path, tree: ast.AST):
    """Rule 13: process-level modules imported outside their one owner."""
    for lineno, pkg in _imported_packages(tree):
        owner = PROCESS_MODULES.get(pkg)
        if owner is not None and path != owner:
            yield (
                lineno,
                f"{pkg} imported outside {owner.relative_to(TARGET).as_posix()}: "
                "the fork supervisor in core/sensitivity.py is the one "
                "multi-process transport and sets the one allocator "
                "setting through ctypes, and subprocess only runs git in "
                "telemetry/manifest.py",
            )


def _root_name(node: ast.AST):
    """``x`` for ``x``, ``x[i]``, ``x.real`` and ``x[i][j]``; else None."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _out_targets(node: ast.AST):
    """The arrays an ``out=`` value may name: tuple items, both arms of
    ``a if cond else b``."""
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _out_targets(elt)
    elif isinstance(node, ast.IfExp):
        yield from _out_targets(node.body)
        yield from _out_targets(node.orelse)
    else:
        yield node


def _bound_names(target: ast.AST):
    """The names an assignment target binds (through tuple unpacking)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bound_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


def _input_names(func: ast.AST):
    """A forward's parameters and every name bound from one: by unpacking,
    attribute or subscript (``a, b = x``, ``s = x.skip``, ``r = x[0]``,
    also as an arm of ``a if cond else b``), followed to a fixed point."""
    args = func.args
    names = {
        a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    } - {"self"}
    assigns = [node for node in ast.walk(func) if isinstance(node, ast.Assign)]
    grew = True
    while grew:
        grew = False
        for node in assigns:
            if not any(_root_name(v) in names for v in _out_targets(node.value)):
                continue
            for target in node.targets:
                for name in _bound_names(target):
                    if name not in names:
                        names.add(name)
                        grew = True
    return names


def _input_write_violations(path: Path, tree: ast.AST):
    """Rule 11: a layer forward writing into its input."""
    if not any(d in path.parents for d in INPUT_WRITE_DIRS):
        return
    hint = (
        "forwards must not write into their input: sweep replays share "
        "checkpointed activations; write into a buffer the forward allocated"
    )
    for func in ast.walk(tree):
        if not (
            isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and func.name in INPUT_WRITE_METHODS
        ):
            continue
        params = _input_names(func)
        where = f"{func.name}()"
        for node in ast.walk(func):
            if isinstance(node, ast.AugAssign) and _root_name(node.target) in params:
                yield node.lineno, (
                    f"augmented assignment to input '{_root_name(node.target)}' "
                    f"in {where}; {hint}"
                )
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, (ast.Subscript, ast.Attribute))
                and _root_name(t) in params
                for t in node.targets
            ):
                yield node.lineno, f"assignment into an input of {where}; {hint}"
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "out" and any(
                        _root_name(t) in params for t in _out_targets(kw.value)
                    ):
                        yield node.lineno, f"out= names an input of {where}; {hint}"


def _self_targets(target: ast.AST):
    """``self.<attr>`` nodes an assignment target writes."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _self_targets(elt)
    elif isinstance(target, ast.Starred):
        yield from _self_targets(target.value)
    elif (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        yield target


def _instance_state_violations(tree: ast.AST):
    """Rule 12: ``self.<attr> = ...`` outside ``__init__`` in the sweep
    classes."""
    for cls in ast.walk(tree):
        if not (
            isinstance(cls, ast.ClassDef) and cls.name in INIT_ONLY_STATE_CLASSES
        ):
            continue
        for method in cls.body:
            if (
                not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                or method.name == "__init__"
            ):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for attr in _self_targets(target):
                        yield (
                            node.lineno,
                            f"self.{attr.attr} assigned in "
                            f"{cls.name}.{method.name}(); sweep objects hold "
                            "no per-call state: set attributes in __init__ "
                            "and pass per-call values as arguments",
                        )


def _np_load_violations(tree: ast.AST):
    """Rule 14: ``np.load`` on anything but a ``with open(...)`` handle."""
    handles = {
        item.optional_vars.id
        for node in ast.walk(tree)
        if isinstance(node, ast.With)
        for item in node.items
        if isinstance(item.context_expr, ast.Call)
        and isinstance(item.context_expr.func, ast.Name)
        and item.context_expr.func.id == "open"
        and isinstance(item.optional_vars, ast.Name)
    }
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "load"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            continue
        source = node.args[0] if node.args else None
        if not (isinstance(source, ast.Name) and source.id in handles):
            yield (
                node.lineno,
                "np.load() on a path leaves the file open when the archive "
                "fails to parse; pass it a handle from 'with open(path, "
                "\"rb\") as fh'",
            )


def _violations(path: Path, tree: ast.AST, source_lines):
    yield from _swallow_violations(path, tree, source_lines)
    yield from _np_load_violations(tree)
    yield from _instance_state_violations(tree)
    yield from _scipy_violations(tree)
    yield from _process_import_violations(path, tree)
    yield from _power_violations(path, tree)
    yield from _im2col_violations(tree)
    yield from _input_write_violations(path, tree)
    yield from _blocking_violations(tree, source_lines)
    yield from _raw_write_violations(path, tree, source_lines)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_hot_path(
            node
        ):
            for lineno, op in _gemms_in_loops(node):
                yield (
                    lineno,
                    f"{op} inside a loop in @hot_path {node.name}(); "
                    "hand whole batches to the layer forwards instead",
                )
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr == "time"
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "time"
        ):
            yield node.lineno, "time.time() is forbidden; use telemetry.monotonic()"
        if isinstance(fn, ast.Name) and fn.id == "time":
            yield node.lineno, "bare time() call; use telemetry.monotonic()"
        if (
            isinstance(fn, ast.Name)
            and fn.id == "print"
            and path not in ALLOWED_STDOUT
        ):
            yield node.lineno, "bare print() is forbidden; use telemetry.emit()"
        if path not in ALLOWED_EIGH and (
            (isinstance(fn, ast.Attribute) and fn.attr in EIGH_NAMES)
            or (isinstance(fn, ast.Name) and fn.id in EIGH_NAMES)
        ):
            name = fn.attr if isinstance(fn, ast.Attribute) else fn.id
            yield (
                node.lineno,
                f"direct {name}() outside core/psd.py; route through the "
                "audited helpers (psd_project / min_eigenvalue / "
                "psd_violation / condition_number) so the SVD fallback "
                "covers this call",
            )


def main() -> int:
    failures = []
    for path in sorted(TARGET.rglob("*.py")):
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            failures.append(f"{path}:{exc.lineno}: syntax error: {exc.msg}")
            continue
        for lineno, message in _violations(path, tree, source.splitlines()):
            failures.append(f"{path.relative_to(ROOT)}:{lineno}: {message}")
    if failures:
        sys.stderr.write("\n".join(failures) + "\n")
        sys.stderr.write(f"{len(failures)} telemetry lint violation(s)\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
