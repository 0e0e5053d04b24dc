"""Every public name and every private helper has a caller other than the tests.

A name in ``chemovir.__all__``, and every function or class that a module
of the package defines at its top level, must be referenced in code by a
module of the package other than ``__init__.py``, outside the name's own
definition, or by the benchmark in ``bench/*.py``.  A public helper that
only the tests call is a second copy of something the solver does, tested
but never run; a private one that nothing calls is left over from a
deletion.  Only the public names in ``TEST_REFERENCES`` are excused.
"""

import ast
import glob
import os

import chemovir

SOURCE = os.path.dirname(chemovir.__file__)
BENCH = os.path.join(os.path.dirname(os.path.dirname(SOURCE)), "bench")

# public names that only the tests call, each with its reason
TEST_REFERENCES = {
    "config_to_text": "the config echo of the run manifest planned to sit next to diagnostics.csv",
}


def references(source: str) -> set[str]:
    """The names that code in ``source`` uses, as a name, an attribute or an
    import; a top-level definition's use of its own name does not count.
    Docstrings and comments hold no such nodes."""
    names = set()
    for statement in ast.parse(source).body:
        used = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            used.discard(statement.name)
        names |= used
    return names


def modules() -> list[str]:
    """The package's modules, ``__init__.py`` left out."""
    return [path for path in glob.glob(os.path.join(SOURCE, "*.py"))
            if os.path.basename(path) != "__init__.py"]


def definitions(private: bool = False) -> set[str]:
    """The names of the top-level functions and classes of the package: the
    public ones, or with ``private`` those with a leading underscore."""
    names = set()
    for path in modules():
        with open(path) as handle:
            names |= {statement.name for statement in ast.parse(handle.read()).body
                      if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                      and statement.name.startswith("_") == private}
    return names


def callers() -> set[str]:
    paths = modules() + glob.glob(os.path.join(BENCH, "*.py"))
    names = set()
    for path in paths:
        with open(path) as handle:
            names |= references(handle.read())
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    public = set(chemovir.__all__) | definitions()
    unused = sorted(public - callers() - set(TEST_REFERENCES))
    assert unused == [], f"public names that only the tests call: {unused}"


def test_every_private_helper_has_a_caller():
    # a helper whose last caller went is dead code that still looks in use
    unused = sorted(definitions(private=True) - callers())
    assert unused == [], f"private helpers that nothing calls: {unused}"


def test_every_exception_is_public_and_has_no_other_caller():
    # an exception that gains a caller, or stops being public, leaves the list
    assert set(TEST_REFERENCES) <= set(chemovir.__all__) | definitions()
    assert set(TEST_REFERENCES).isdisjoint(callers())


def test_docstrings_comments_and_own_definitions_do_not_count():
    source = '''
def helper():
    """Calls helper() and run() in prose only."""
    return helper()  # and step() in a comment


def other():
    return integrate
'''
    assert references(source) == {"integrate"}


def test_definitions_are_the_public_top_level_functions_and_classes():
    names = definitions()
    assert {"DiagnosticsRecord", "config_to_text", "write_diagnostics_csv"} <= names
    assert names.isdisjoint({"CSV_COLUMNS", "_csv_text", "__init__", "__post_init__"})
    assert {"_Plan", "_csv_text", "_face_differences"} <= definitions(private=True)
