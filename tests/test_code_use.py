"""No code under src/ that only tests call.

Every public function, class and method of the package must be referenced
from the package itself or from the benchmark harness, so that each one is
on a path the pipeline or its measurement runs. The same holds for every
parameter with a default: some call in the package or the harness passes it.
And every field of a package dataclass is read by name there, so that no
value is computed that nothing reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "genmatch"

ALLOWED = {
    # the command line's test seam: the console script calls main() with
    # no arguments, so that it parses sys.argv, and the tests pass argv
    "main",
}


def public_definitions() -> dict[str, str]:
    """``name`` or ``Class.method`` -> the file that defines it."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = path.name
    return found


def pipeline_trees():
    for base in (PACKAGE, ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            yield ast.parse(path.read_text())


def referenced_names() -> set[str]:
    names = set()
    for tree in pipeline_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_definition_is_used_outside_the_tests():
    definitions = public_definitions()
    assert "PipelineModel.stage_one_loss" in definitions and "backward" in definitions
    used = referenced_names()
    unused = sorted(f"{path}: {name}" for name, path in definitions.items()
                    if name.split(".")[-1] not in used and name not in ALLOWED)
    assert unused == [], "only tests call these; delete them or move them to tests/helpers.py"


def defaulted_parameters() -> dict[tuple[str, str], tuple[int | None, str]]:
    """(callable name, parameter) -> (its position in a call, or None when
    it is keyword-only; the file that defines it), for every parameter with
    a default. A method's position skips ``self``/``cls``; ``__init__`` is
    called through its class name."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(item): node.name for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            name = methods.get(id(node), node.name) if node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if id(node) in methods and not static else 0
            for arg in positional[len(positional) - len(node.args.defaults):]:
                found[(name, arg.arg)] = (positional.index(arg) - skip, path.name)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    found[(name, arg.arg)] = (None, path.name)
    return found


def passed_parameters() -> set[tuple[str, str | int]]:
    """(callee name, keyword) and (callee name, positional count) for every
    call in the package and the harness; ``*``/``**`` pass everything.
    ``super().__init__(...)`` calls the first base class."""
    passed = set()
    for tree in pipeline_trees():
        supers = {id(call): cls.bases[0].id for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.bases
                  and isinstance(cls.bases[0], ast.Name)
                  for call in ast.walk(cls) if isinstance(call, ast.Call)
                  and ast.unparse(call.func) == "super().__init__"}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            name = supers.get(id(node), name)
            if any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(k.arg is None for k in node.keywords):
                passed.add((name, "*"))
            passed.add((name, len(node.args)))
            passed.update((name, k.arg) for k in node.keywords)
    return passed


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    parameters = defaulted_parameters()
    assert ("embed_with_chars", "mask") not in parameters
    assert ("stage_one_loss", "rng") in parameters
    passed = passed_parameters()
    most = {}
    for name, key in passed:
        if isinstance(key, int):
            most[name] = max(most.get(name, 0), key)
    dead = sorted(f"{path}: {name}({param})"
                  for (name, param), (position, path) in parameters.items()
                  if name not in ALLOWED
                  and (name, param) not in passed and (name, "*") not in passed
                  and (position is None or most.get(name, 0) <= position))
    assert dead == [], "no call outside the tests passes these; drop the parameter or its default"


UNREAD_FIELDS_ALLOWED = {
    # the eval report is to carry each answer's summed token log-prob
    # (ROADMAP item 8); generation records it today
    "GeneratedAnswer.token_logprobs",
    # the benchmark harness builds its tables with ``trainable=``
    "EmbeddingTable.trainable",
    # ``TrainConfig.dims(vocab, char_vocab)`` keeps its signature for the
    # benchmark harness, which calls it
    "ModelDims.char_vocab_size",
}


def dataclass_fields(trees) -> dict[str, str]:
    """``Class.field`` -> the file's name, for every field of every
    ``@dataclass`` class in ``trees`` ((name, tree) pairs)."""
    found = {}
    for name, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(ast.unparse(d).split(".")[-1] == "dataclass" for d in decorators):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    found[f"{node.name}.{item.target.id}"] = name
    return found


def unread_fields(package_trees, reader_trees) -> list[str]:
    """The package's dataclass fields whose name no attribute read (``x.name``
    in a load) in ``reader_trees`` uses."""
    reads = {node.attr for tree in reader_trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{path}: {field}" for field, path in dataclass_fields(package_trees).items()
                  if field.split(".")[1] not in reads and field not in UNREAD_FIELDS_ALLOWED)


def test_every_dataclass_field_is_read_outside_the_tests():
    package = [(path.name, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    fields = dataclass_fields(package)
    assert "Instance.passage_tokens" in fields and "ModelDims.precision" in fields
    unread = unread_fields(package, list(pipeline_trees()))
    assert unread == [], "nothing reads these fields; stop computing them and delete them"


def test_the_field_guard_names_a_field_that_is_only_written():
    source = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Span:\n"
        "    start: int\n"
        "    score: float = 0.0\n"
        "def make(s):\n"
        "    span = Span(start=s, score=1.0)\n"
        "    span.score = 2.0\n"
        "    return span.start\n")
    assert unread_fields([("span.py", source)], [source]) == ["span.py: Span.score"]
