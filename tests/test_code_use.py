"""No code under src/ that only tests call.

Every public function, class and method of the package must be referenced
from the package itself or from the benchmark harness, so that each one is
on a path the pipeline or its measurement runs. The same holds for every
parameter with a default: some call in the package or the harness passes it,
and some call leaves it out, so that the default is a value a caller uses
rather than one every caller restates. And every field of a package
dataclass is read by name there, so that no value is computed that nothing
reads.
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


def package_trees() -> list[tuple[str, ast.Module]]:
    return [(path.name, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def defaulted_parameters(trees) -> dict[tuple[str, str], tuple[int | None, str]]:
    """(callable name, parameter) -> (its position in a call, or None when
    it is keyword-only; the file that defines it), for every parameter with
    a default in ``trees`` ((file name, tree) pairs). A method's position
    skips ``self``/``cls``; ``__init__`` is called through its class name."""
    found = {}
    for path, tree in trees:
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
                found[(name, arg.arg)] = (positional.index(arg) - skip, path)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    found[(name, arg.arg)] = (None, path)
    return found


def calls(trees, callables: set[str]) -> list[tuple[str, int, set[str], bool]]:
    """(callee name, positional count, keywords, whether a ``*``/``**``
    argument is there) for every call in ``trees``. ``super().__init__(...)``
    calls the first base class. A call whose first positional argument names
    one of ``callables``, as ``timed(evaluate, model, instances)`` does, is
    also a call of that callable with the remaining arguments."""
    found = []
    for tree in trees:
        supers = {id(call): cls.bases[0].id for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.bases
                  and isinstance(cls.bases[0], ast.Name)
                  for call in ast.walk(cls) if isinstance(call, ast.Call)
                  and ast.unparse(call.func) == "super().__init__"}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = supers.get(id(node), callee_name(node.func))
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            starred = any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords)
            found.append((name, len(node.args), keywords, starred))
            if node.args and callee_name(node.args[0]) in callables:
                found.append((callee_name(node.args[0]), len(node.args) - 1, keywords, starred))
    return found


def callee_name(node: ast.expr) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def pipeline_calls(parameters) -> list[tuple[str, int, set[str], bool]]:
    return calls(pipeline_trees(), {name for name, _ in parameters})


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    parameters = defaulted_parameters(package_trees())
    assert ("embed_with_chars", "mask") not in parameters
    assert ("evaluate", "meta") in parameters
    passed, most = set(), {}
    for name, positional, keywords, starred in pipeline_calls(parameters):
        if starred:  # ``*``/``**`` pass everything
            passed.add((name, "*"))
        passed.update((name, keyword) for keyword in keywords)
        most[name] = max(most.get(name, 0), positional)
    dead = sorted(f"{path}: {name}({param})"
                  for (name, param), (position, path) in parameters.items()
                  if name not in ALLOWED
                  and (name, param) not in passed and (name, "*") not in passed
                  and (position is None or most.get(name, 0) <= position))
    assert dead == [], "no call outside the tests passes these; drop the parameter or its default"


def restated_defaults(parameters, found_calls) -> list[str]:
    """The defaulted ``parameters`` that every call of their callable in
    ``found_calls`` passes, by keyword or by position, when there is at
    least one such call; a ``*``/``**`` call counts as leaving it out.

    Calls are matched by name alone, so a default escapes when another
    callable of the same name is called without it: ``Vocabulary.build``
    would keep a ``cap`` default every caller passes, because
    ``CharVocabulary.build`` takes no cap."""
    by_name: dict[str, list] = {}
    for name, positional, keywords, starred in found_calls:
        by_name.setdefault(name, []).append((positional, keywords, starred))

    def passed(param, position, call):
        positional, keywords, starred = call
        return not starred and (param in keywords
                                or position is not None and positional > position)

    return sorted(f"{path}: {name}({param})"
                  for (name, param), (position, path) in parameters.items()
                  if name in by_name
                  and all(passed(param, position, call) for call in by_name[name]))


def test_no_default_restates_a_value_every_call_passes():
    parameters = defaulted_parameters(package_trees())
    restated = restated_defaults(parameters, pipeline_calls(parameters))
    assert restated == [], ("every call outside the tests passes these; drop the default "
                            "and let the callers say the value")


def test_the_default_guard_names_a_default_every_call_passes():
    source = ast.parse(
        "def timed(fn, *args):\n"
        "    return fn(*args)\n"
        "def run(x, scale=1.0, *, log=None):\n"
        "    return x * scale\n"
        "def evaluate(model, meta=None):\n"
        "    return model\n"
        "def keep(x, flag=False):\n"
        "    return x\n"
        "def never(x=1):\n"
        "    return x\n"
        "class Opt:\n"
        "    def __init__(self, params, lr=0.1):\n"
        "        self.lr = lr\n"
        "    def step(self, scale=1.0):\n"
        "        return scale\n"
        "run(1, 2.0)\n"
        "run(x=1, scale=3.0, log=print)\n"
        "timed(run, 3, 4.0)\n"
        "evaluate(1, meta={})\n"
        "timed(evaluate, 2)\n"
        "keep(1, True)\n"
        "keep(*[1, True])\n"
        "Opt([], lr=0.2).step(0.5)\n")
    parameters = defaulted_parameters([("m.py", source)])
    found = calls([source], {name for name, _ in parameters})
    assert restated_defaults(parameters, found) == [
        "m.py: Opt(lr)", "m.py: run(scale)", "m.py: step(scale)"]


UNREAD_FIELDS_ALLOWED = {
    # the eval report is to carry each answer's summed token log-prob
    # (ROADMAP item 8); generation records it today
    "GeneratedAnswer.token_logprobs",
    # the benchmark harness builds its tables with ``trainable=``
    "EmbeddingTable.trainable",
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
    package = package_trees()
    fields = dataclass_fields(package)
    assert "Instance.passage_tokens" in fields and "TrainConfig.precision" in fields
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
