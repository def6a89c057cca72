"""The protocol stack must not import the simulator directly.

Everything under ``repro.bcast``, ``repro.core`` and ``repro.workload``
(plus the protocol-level consumers in ``repro.baseline``, ``repro.runtime``
and ``repro.apps``) goes through the :mod:`repro.env` interfaces; only the
``repro.env`` backends may touch ``repro.sim``.  An actor gets its
environment from the ``Runtime`` it is handed, so ``repro.env.actor``
imports no backend, and only the simulator and its backend import the
``EventLoop``.
"""

from __future__ import annotations

import ast
import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).parent
PROTOCOL_PACKAGES = ["bcast", "core", "workload", "baseline", "runtime", "apps"]
SIM_IMPORT = re.compile(r"^\s*(from|import)\s+repro\.sim\b", re.MULTILINE)


def test_protocol_modules_do_not_import_sim():
    offenders = []
    for package in PROTOCOL_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            if SIM_IMPORT.search(path.read_text()):
                offenders.append(str(path.relative_to(SRC.parent)))
    assert offenders == [], f"direct repro.sim imports in: {offenders}"


def test_sim_backend_is_the_only_env_module_importing_sim():
    allowed = {"simbackend.py", "rtbackend.py", "tcp.py", "__init__.py"}
    offenders = []
    for path in sorted((SRC / "env").rglob("*.py")):
        if path.name in allowed:
            continue
        if SIM_IMPORT.search(path.read_text()):
            offenders.append(path.name)
    assert offenders == []


def _imports(path: pathlib.Path):
    """``(module, names)`` of every import statement in ``path``, nested
    ones included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield node.module, {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, set()


def test_actor_imports_no_backend():
    """An actor gets its environment from the Runtime it is handed; the
    actor module itself knows no backend."""
    backends = ("repro.sim", "repro.env.simbackend", "repro.env.rtbackend",
                "repro.env.tcp")
    imported = [module for module, _ in _imports(SRC / "env" / "actor.py")]
    assert [m for m in imported if m.startswith(backends)] == []


def test_only_the_sim_backend_imports_the_event_loop():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "sim" or relative == pathlib.Path(
                "env", "simbackend.py"):
            continue
        for module, names in _imports(path):
            if module.startswith("repro.sim") and "EventLoop" in names:
                offenders.append(str(relative))
    assert offenders == []
