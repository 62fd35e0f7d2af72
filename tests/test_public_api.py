"""The package's public surface: what it exports and what it dropped."""

import dataclasses
import importlib

import pytest

from repro.cli import main
from repro.machines import MachineSpec


@pytest.mark.parametrize("package", ["repro", "repro.mpi"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing: {missing}"


@pytest.mark.parametrize("module", ["repro.apps", "repro.mpi.datatypes"])
def test_removed_module_is_gone(module):
    # The campaign measures collectives on their own; applications are
    # user programs on MpiWorld (see docs/extending.md).
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_machine_spec_has_no_compute_rate():
    # Compute is modelled by the caller's ctx.delay, not by a spec rate.
    names = {field.name for field in dataclasses.fields(MachineSpec)}
    assert "compute_mflops" not in names


def test_app_is_an_unknown_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["app", "stap", "t3d"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'app'" in capsys.readouterr().err
