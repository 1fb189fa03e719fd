"""The package namespace: public names resolve from their home modules on first access."""

import json
import subprocess
import sys

import pytest

import seifertgeo


@pytest.mark.parametrize("name", [name for name in seifertgeo.__all__ if name != "BACKEND"])
def test_public_name_is_its_home_modules_object(name):
    value = getattr(seifertgeo, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("seifertgeo.")
    assert getattr(home, name) is value


def test_all_lists_each_home_name_once():
    # __all__ is derived from _HOMES; every name it lists has exactly one home module.
    assert set(seifertgeo.__all__) == set(seifertgeo._HOME) | {"BACKEND"}
    assert len(seifertgeo.__all__) == len(set(seifertgeo.__all__))
    names = [name for names in seifertgeo._HOMES.values() for name in names.split()]
    assert len(names) == len(set(names))


def test_dir_lists_every_public_name():
    assert set(seifertgeo.__all__) <= set(dir(seifertgeo))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such"):
        seifertgeo.no_such
    assert not hasattr(seifertgeo, "no_such")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from seifertgeo import *", namespace)
    for name in seifertgeo.__all__:
        assert namespace[name] is getattr(seifertgeo, name)


def test_first_access_loads_only_the_home_module():
    code = (
        "import json, sys\n"
        "import seifertgeo\n"
        "def loaded():\n"
        "    return sorted(name for name in sys.modules if name.startswith('seifertgeo'))\n"
        "steps = [loaded()]\n"
        "seifertgeo.SeifertSignature\n"
        "steps.append(loaded())\n"
        "steps.append('SeifertSignature' in vars(seifertgeo))\n"
        "steps.append(seifertgeo.kernel.__name__)\n"
        "print(json.dumps(steps))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [
        ["seifertgeo"],
        ["seifertgeo", "seifertgeo.arith", "seifertgeo.seifert"],
        True,
        "seifertgeo.kernel",
    ]
