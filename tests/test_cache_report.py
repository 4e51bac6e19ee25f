"""tools/cache_report.py reports every functools.cache in qschur."""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "cache_report", ROOT / "tools" / "cache_report.py")
cache_report = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(cache_report)


def is_functools_cache(node):
    return (isinstance(node, ast.Attribute) and node.attr == "cache"
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools")


def scanned_caches():
    """module.name of each functools.cache in src/qschur/*.py, read from
    the source: a decorated def, or a name bound to functools.cache(f)."""
    found = set()
    for path in sorted((ROOT / "src" / "qschur").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    map(is_functools_cache, node.decorator_list)):
                found.add(f"{path.stem}.{node.name}")
            elif (isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Call)
                  and is_functools_cache(node.value.func)):
                found.update(f"{path.stem}.{t.id}" for t in node.targets)
    return found


def test_the_report_finds_exactly_the_caches_in_the_source():
    scanned = scanned_caches()
    assert scanned
    assert set(cache_report.caches()) == scanned


def test_the_report_sizes_the_table_of_shared_units():
    from qschur import laurent
    found = cache_report.memos()
    assert found["laurent._UNITS"] is laurent._UNITS
    e = 10 ** 6 + 7
    assert (e, -1) not in laurent._UNITS
    u = laurent.neg_q_power(e)
    assert found["laurent._UNITS"][(e, -1)] is u
