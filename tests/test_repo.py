"""Repository hygiene checks."""

import ast
import contextlib
import io
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import seifertgeo
from seifertgeo import cli

ROOT = Path(__file__).resolve().parent.parent
# the files of the package under test: the checkout's src/ only when that is
# what was imported, and site-packages when the package is installed
PACKAGE = Path(seifertgeo.__file__).parent


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and a git checkout",
)
def test_no_tracked_file_is_gitignored():
    proc = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines() == []


def test_readme_library_example():
    # each print in the README's Library block shows its output as "# ..."
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    expected = [
        line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert expected == ["<-1; (5,1),(3,1),(2,1)>", "Spherical", "5/3pi 25/3pi", "Nil"]


def test_readme_command_lines(tmp_path, monkeypatch, capsys):
    # each seifertgeo line of the README's Command line block exits 0, and a
    # "# ..." line right under a command shows part of its output
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S)
    monkeypatch.chdir(tmp_path)
    commands, shown, out = 0, [], None
    for line in block.replace("\\\n", "").splitlines():
        if line.startswith("seifertgeo "):
            assert cli.run(shlex.split(line)[1:]) == 0, line
            out, commands = " ".join(capsys.readouterr().out.split()), commands + 1
        elif line.startswith("# ") and out is not None:
            expected = " ".join(line[2:].replace("...", "").split())
            assert expected in out, (expected, out)
            shown.append(expected)
        else:
            out = None
    assert commands == 10
    assert shown == ["beta_L 5/3pi beta_U 25/3pi ratio 5", '"family": "I(1)-compatible Brieskorn(2,3,5)"']


def test_version_matches_pyproject():
    # a regex, because Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (version,) = re.findall(r'^version = "([^"]+)"$', text, re.M)
    assert seifertgeo.__version__ == version


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "--sig", '{"b":-1,"fibers":[[2,1],[3,1],[5,1]]}'], 0),
        (["surgery", "--knot", "3,2", "--hand", "left", "--slope", "6/-1"], 1),
        (["classify"], 2),
    ],
    ids=["valid", "domain-error", "usage-error"],
)
def test_console_script_exits_with_the_code_of_run(monkeypatch, argv, code):
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^seifertgeo = "([^"]+)"$', text, re.M) == ["seifertgeo.cli:main"]
    monkeypatch.setattr(sys, "argv", ["seifertgeo", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module neither reads nor lists in __all__."""
    tree = ast.parse(source)
    bound, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            # the string literals of __all__; names it is derived from are read
            exported.update(
                item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return ["line %d: %s" % (line, name) for name, line in bound.items() if name not in read | exported]


def test_unused_import_guard_sees_an_orphan():
    source = "from fractions import Fraction\nfrom math import gcd\n__all__ = ['gcd']\n"
    assert _unused_imports(source) == ["line 1: Fraction"]
    assert _unused_imports("import os.path\nos.sep\n") == []
    derived = "from math import gcd, lcm\nNAMES = {'f': 'gcd'}\n__all__ = ['lcm', *sorted(NAMES)]\n"
    assert _unused_imports(derived) == ["line 1: gcd"]


def test_no_unused_imports():
    unused = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_slots_are_filled_only_through_their_descriptors():
    # _Value._setters is the one way to fill a slot: no module of the
    # package calls object.__setattr__
    calls = [
        "%s line %d" % (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
    ]
    assert calls == []


def _public_defs(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """(name, line, is_method) of each public module-level function, class or
    constant, and of each public method of a module-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            found += [(target.id, node.lineno, False) for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno, False))
            if isinstance(node, ast.ClassDef):
                found += [(item.name, item.lineno, True) for item in node.body if isinstance(item, ast.FunctionDef)]
    return [entry for entry in found if not entry[0].startswith("_")]


def _reads(tree: ast.Module, path) -> dict[tuple[bool, str], set]:
    """(is_attribute, name) -> the (path, line)s where tree reads it: a loaded
    name or an import alias, or a loaded attribute."""
    reads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            key = (False, node.id)
        elif isinstance(node, ast.alias):
            key = (False, node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            key = (True, node.attr)
        else:
            continue
        reads.setdefault(key, set()).add((path, node.lineno))
    return reads


def _unread_names(sources: dict[str, str], elsewhere: list[str], listed) -> list[str]:
    """Public names defined in sources (file name -> text) that are not listed
    and that no code in sources or elsewhere reads off their definition line.
    A method is read only as an attribute; a module-level name as a name, an
    import or an attribute.  Docstrings, comments and local variables of the
    same spelling are not reads."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    reads = {}
    for path, tree in [*trees.items(), *((None, ast.parse(text)) for text in elsewhere)]:
        for key, places in _reads(tree, path).items():
            reads.setdefault(key, set()).update(places)
    unread = []
    for path, tree in trees.items():
        for name, defined, is_method in _public_defs(tree):
            kinds = (True,) if is_method else (False, True)
            read = any(reads.get((kind, name), set()) - {(path, defined)} for kind in kinds)
            if name not in listed and not read:
                unread.append(name)
    return unread


def test_public_name_guard_sees_an_orphan():
    source = "LIMIT = 3\n\nclass Box:\n    def size(self):\n        return LIMIT\n\n    def _hidden(self):\n        pass\n"
    assert _unread_names({"m.py": source}, [], set()) == ["Box", "size"]
    assert _unread_names({"m.py": source}, ["Box().size()"], set()) == []
    assert _unread_names({"m.py": source, "n.py": "from m import Box\n"}, [], {"size"}) == []
    # a mention on the definition line itself does not count
    assert _unread_names({"m.py": "def orphan(): return orphan\n"}, [], set()) == ["orphan"]
    # nor does a docstring that names Box().size(), nor a local variable named size
    assert _unread_names({"m.py": source}, ['"""Box().size() is documented."""\n'], set()) == ["Box", "size"]
    assert _unread_names({"m.py": source}, ["Box\nsize = 3\nprint(size)\n"], set()) == ["size"]


# Public names that no code reads yet, each with the reason it stays.
UNREAD = {
    "brieskorn_surgery": "printed by identify for a Brieskorn sphere, which is still to come",
    "curvature_parameter": "printed once it is exact: math.cos may differ in its last bit between C libraries",
    "family_dimension": "printed by a structures command that is still to come",
    "nil_admissible": "printed by a knot command that is still to come",
    "spherical_orbifold_angles": "printed by a knot command that is still to come",
    "surgery_of_line": "read by a surgery --line option that is still to come",
}


def test_every_public_name_has_a_reader():
    # a public name is read by code of the package or by the benchmark harness;
    # a README word is not a reader.  The names of UNREAD, and only they,
    # are not read, so a listed name that gains a reader fails too
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    elsewhere = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert sorted(_unread_names(sources, elsewhere, set())) == sorted(UNREAD)
