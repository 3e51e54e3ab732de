"""The README's library tour runs as written, and each of its comments states
what the line computes: the test writes every comment from the computed values.
Every `module.name` that the README or a docstring or comment of the package
names exists, every `Class.attr` of a public class names one of its attributes
or fields, and every `--flag` it names is an option of the command table."""

import ast
import functools
import importlib
import io
import math
import pkgutil
import re
import tokenize
from pathlib import Path

import entroset
from entroset import cli, minimal_suitable_k

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = sorted((README.parent / "src" / "entroset").glob("*.py"))
MODULES = [info.name for info in pkgutil.iter_modules(entroset.__path__)]
# a backticked `module.name` or `entroset.module.name`; `cli.py` is a file name
REFERENCE = re.compile(
    rf"`(?:entroset\.)?({'|'.join(MODULES)})\.(?!py\b)([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")
CLASSES = {name: value for name in entroset.__all__
           if isinstance(value := getattr(entroset, name), type)}
# a backticked `Class.attr` or `entroset.Class.attr` of a class in `entroset.__all__`
CLASS_REFERENCE = re.compile(rf"`(?:entroset\.)?({'|'.join(CLASSES)})\.([A-Za-z_]\w*)")


def tour() -> str:
    """The code block of the README's "Library tour" section."""
    section = README.read_text(encoding="utf-8").split("## Library tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def run(code: str) -> tuple[dict, dict]:
    """Run the code one statement at a time: its names, and for each line
    that carries a comment, its source and the value of that statement
    (None for a statement that is not an expression) with the comment."""
    comments = {
        tok.start[0]: tok.string.removeprefix("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(code).readline)
        if tok.type == tokenize.COMMENT
    }
    names: dict = {}
    commented = {}
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), names)
        else:
            value = exec(compile(ast.Module([stmt], []), "README.md", "exec"), names)
        if stmt.end_lineno in comments:
            commented[ast.get_source_segment(code, stmt)] = (value, comments[stmt.end_lineno])
    return names, commented


def stated(names: dict, values: dict) -> dict:
    """The comment each commented line of the tour must carry, by its source."""
    X, spec, dual = names["X"], names["spec"], values["lp.dual"]
    size = values["ruzsa_size(spec)"]
    shearer = names["check_shearer"](names["A"], names["cover"], 2, "sets")
    assert spec.k == minimal_suitable_k(X)
    assert size == math.factorial(spec.k) // math.prod(map(math.factorial, spec.counts))
    assert values["verify_commutation(f, spec).holds"] is True
    assert len(set(dual)) == 1
    assert values['check_shearer(A, cover, 2, "sets").holds'] is True
    assert shearer.provenance == "exact"
    return {
        "entropy(X)": f"{values['entropy(X)']!r} bits",
        "pushforward(f, X).probs": repr(values["pushforward(f, X).probs"]),
        "pushforward(f, X).counts": f"{values['pushforward(f, X).counts']!r}, over denominator "
                                    f"{names['pushforward'](names['f'], X).denominator}",
        "spec = RuzsaSpec(X, 6)": f"{spec.k} is the least suitable k",
        "ruzsa_size(spec)": f"{size} = {spec.k}!/({' '.join(f'{c}!' for c in spec.counts)})",
        "verify_commutation(f, spec).holds": "mapped set == set of the image law",
        "lp.objective": repr(values["lp.objective"]),
        "lp.dual": f"{dual[:1]!r} * {len(dual)}, sums to {sum(dual)}",
        'check_shearer(A, cover, 2, "sets").holds':
            f"{shearer.details['lhs_count']} <= {shearer.details['rhs_count']}, exact integers",
    }


def test_tour_comments_state_the_computed_values():
    names, commented = run(tour())
    values = {code: value for code, (value, _) in commented.items()}
    expected = stated(names, values)
    assert {code: comment for code, (_, comment) in commented.items()} == expected


def test_tour_imports_only_what_it_uses():
    code = tour()
    tree = ast.parse(code)
    imported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used


def prose(path: Path) -> str:
    """The docstrings and comments of a source file."""
    code = path.read_text(encoding="utf-8")
    nodes = [node for node in ast.walk(ast.parse(code))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    docs = [ast.get_docstring(node, clean=False) or "" for node in nodes]
    comments = [tok.string for tok in tokenize.generate_tokens(io.StringIO(code).readline)
                if tok.type == tokenize.COMMENT]
    return "\n".join(docs + comments)


def documents() -> dict[str, str]:
    """The README and the prose of each source file, by where they are."""
    texts = {"README.md": README.read_text(encoding="utf-8")}
    texts.update((f"src/entroset/{path.name}", prose(path)) for path in SOURCES)
    return texts


def test_module_references_resolve():
    texts = documents()
    found = [(where, module, name) for where, text in texts.items()
             for module, name in REFERENCE.findall(text)]
    stale = []
    for where, module, name in found:
        try:
            value = importlib.import_module(f"entroset.{module}")
            functools.reduce(getattr, name.split("."), value)
        except AttributeError:
            stale.append(f"{where}: {module}.{name}")
    assert found and not stale, stale


def test_class_references_resolve():
    """A `Class.attr` names a class attribute (a method or property) or a
    field, which `Record` keeps per instance and lists in `_fields`."""
    found = [(where, cls, attr) for where, text in documents().items()
             for cls, attr in CLASS_REFERENCE.findall(text)]
    stale = [f"{where}: {cls}.{attr}" for where, cls, attr in found
             if not hasattr(CLASSES[cls], attr)
             and attr not in getattr(CLASSES[cls], "_fields", ())]
    assert found and not stale, stale


def test_readme_flags_are_in_the_command_table():
    text = README.read_text(encoding="utf-8")
    # the "Global flags" sentence lists the root level's options, in order
    sentence = re.split(r"\.\s", text.split("Global flags", 1)[1], maxsplit=1)[0]
    assert re.findall(r"`(--[a-z][\w-]*)", sentence) == list(cli._ROOT.options)
    flags, levels = set(), [cli._ROOT]
    while levels:
        level = levels.pop()
        flags.update(level.options)
        levels.extend((level.commands or {}).values())
    # argparse's --help, pytest's --benchmark-only, and the placeholder of `--name value`
    named = set(re.findall(r"--[a-z][\w-]*", text)) - {"--help", "--benchmark-only", "--name"}
    assert named <= flags, sorted(named - flags)
