"""Every public function, class and method of the package, and every
private top-level function and class, has a caller in the package itself,
and every function but ``run_suite`` takes its sampling plan from its
caller.

A public name that only tests reach is a second entry point to a
computation that the package reaches some other way, and a private helper
that nothing calls is dead code: the guard reads the sources with ``ast``
and lists each such definition whose name no ``Name`` or ``Attribute`` node
references outside the definition itself.  ``__init__.py`` only
re-exports, so its references do not count.  The match is by name alone,
so it misses a definition whose name another object shares; it never flags
one that is in use.

A default plan is a second carrier of the run's seed and settings: the
second guard lists every function that gives a parameter named ``plan`` a
default.  ``run_suite(seed=0, plan=None)`` alone may, since it builds the
plan of its seed once and refuses a plan of another seed.

A dataclass field that nothing reads is computed for no one: the third
guard lists each annotated field of a ``@dataclass`` class whose name no
``Attribute`` node in the package loads.

A plan holds only what a run varies.  The configuration surface, the fields
of ``SamplingPlan`` and ``Tolerances``, is pinned by name, so a new knob is
an edit of this file; the README's plan-file and tolerance key lists must
name the same fields.
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

from carnot.sampling import SamplingPlan, Tolerances

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "carnot"
README = PACKAGE.parents[1] / "README.md"


def _referenced(node):
    """The names that ``Name`` and ``Attribute`` nodes under ``node`` read, with multiplicity."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _checked_definitions(tree):
    """(qualified name, name, node) of each top-level function or class,
    dunders aside, and each public method of a public class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("__"):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def unreferenced_definitions(package=PACKAGE):
    """The qualified names, per module, of the checked definitions (public
    ones and private top-level ones) that nothing else in ``package``
    references."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    trees.pop("__init__.py", None)
    counts = {}
    for tree in trees.values():
        for name in _referenced(tree):
            counts[name] = counts.get(name, 0) + 1
    unused = []
    for module, tree in trees.items():
        for qualname, name, node in _checked_definitions(tree):
            if counts.get(name, 0) == _referenced(node).count(name):
                unused.append(f"{module}:{qualname}")
    return unused


def test_every_public_definition_has_a_caller_in_the_package():
    assert unreferenced_definitions() == []


def test_guard_sees_an_unused_method_and_a_self_call(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Box, count\n")
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    def used(self):\n"
        "        return 1\n"
        "\n"
        "    def unused(self):\n"
        "        return self.unused\n"
        "\n"
        "\n"
        "def count(n):\n"
        "    return count(n - 1) if n else Box().used()\n"
    )
    assert unreferenced_definitions(tmp_path) == ["a.py:Box.unused", "a.py:count"]


def test_guard_sees_an_unused_private_helper(tmp_path):
    # a private helper whose last caller went is listed; one called from
    # another module, or used as a decorator, is not
    (tmp_path / "__init__.py").write_text("from .a import run\n")
    (tmp_path / "a.py").write_text(
        "from .b import _shared, _wrap\n"
        "\n"
        "\n"
        "def _orphan(n):\n"
        "    return _orphan(n - 1) if n else 0\n"
        "\n"
        "\n"
        "class _Unused:\n"
        "    def _method(self):\n"
        "        return 1\n"
        "\n"
        "\n"
        "@_wrap\n"
        "def run():\n"
        "    return _shared()\n"
    )
    (tmp_path / "b.py").write_text("def _shared():\n    return 1\n\n\ndef _wrap(fn):\n    return fn\n")
    (tmp_path / "c.py").write_text("from .a import run\n\nrun()\n")
    assert unreferenced_definitions(tmp_path) == ["a.py:_orphan", "a.py:_Unused"]


def plan_defaults(package=PACKAGE):
    """The functions, per module, that give a parameter named ``plan`` a
    default, ``run_suite`` aside."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name == "run_suite":
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults) :]
            defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if any(arg.arg == "plan" for arg in defaulted):
                out.append(f"{path.name}:{node.name}")
    return out


def test_only_run_suite_defaults_its_plan():
    assert plan_defaults() == []


def test_plan_guard_sees_positional_and_keyword_defaults(tmp_path):
    (tmp_path / "a.py").write_text(
        "def positional(u, plan=None):\n    pass\n"
        "def keyword(u, *, plan=None):\n    pass\n"
        "def required(u, plan, seed=0):\n    pass\n"
        "def run_suite(seed=0, plan=None):\n    pass\n"
    )
    assert plan_defaults(tmp_path) == ["a.py:positional", "a.py:keyword"]


def _is_dataclass_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    return (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass"


def unread_dataclass_fields(package=PACKAGE):
    """The qualified names, per module, of dataclass fields that no attribute
    read in ``package`` names."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = {
        sub.attr
        for tree in trees.values()
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    unread = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list)):
                fields = [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
                unread += [f"{module}:{node.name}.{field}" for field in fields if field not in read]
    return unread


def test_every_dataclass_field_is_read_in_the_package():
    assert unread_dataclass_fields() == []


def test_field_guard_sees_written_and_unread_fields(tmp_path):
    (tmp_path / "a.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    read: int\n"
        "    unread: int\n"
        "\n"
        "\n"
        "@dataclasses.dataclass\n"
        "class Store:\n"
        "    written: int = 0\n"
        "\n"
        "    def set(self):\n"
        "        self.written = 1\n"
        "\n"
        "\n"
        "class Plain:\n"
        "    ignored: int\n"
        "\n"
        "\n"
        "def use(r):\n"
        "    return r.read\n"
    )
    assert unread_dataclass_fields(tmp_path) == ["a.py:Report.unread", "a.py:Store.written"]


def test_configuration_surface_is_pinned():
    plan = ("radii", "shell_samples", "directions", "seed", "base_count", "base_radius")
    plan += ("segment_scales", "lambda_grid", "use_analytic_gradient", "tol")
    assert tuple(f.name for f in fields(SamplingPlan)) == plan
    tolerances = ("membership", "singleton_diameter", "fit", "mignot", "dermax", "hconvexity", "psd")
    tolerances += ("mvt_smooth", "mvt_polyhedral", "mvt_lambda")
    assert tuple(f.name for f in fields(Tolerances)) == tolerances


def _readme_keys(label):
    """The backquoted names of the README paragraph that opens with ``label:``."""
    paragraph = re.search(rf"^{label}:(.*?)(?:\n\n|\Z)", README.read_text(), re.M | re.S)
    assert paragraph, label
    return re.findall(r"`(\w+)`", paragraph.group(1))


def test_readme_key_lists_match_the_fields():
    # a plan file may not set seed: --seed is the run's only seed
    assert _readme_keys("Plan-file keys") == [f.name for f in fields(SamplingPlan) if f.name != "seed"]
    assert _readme_keys("Tolerance keys") == [f.name for f in fields(Tolerances)]
