"""The package's layout: every public name in src/adiagen, and every defaulted parameter of a public
function, is used by the package itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "adiagen"

# name -> why it stays without a caller in src/adiagen
NO_CALLER = {
    **dict.fromkeys(
        ("default_ancilla_bits", "phase_estimation_project", "projector_hamiltonian_sim",
         "exact_projector_exponential"),
        "phase-estimation group: waits for the Markov route built from e^{-iH_M t} (ROADMAP item 2)"),
    "simulatable_handle_for_step": "the paper's per-step simulatability of the compiled path",
    "simulate_sparse": "the sparse Hamiltonian lemma for an oracle-given H; trotter-sweep holds the pieces "
                       "and e^{-iHt} already and calls trotter_within",
    "is_generator": "the generator check on its own; dlp_family runs the same orbit check on its power table",
}

# function.parameter -> why its default stays although no call in src/adiagen passes it
UNPASSED_DEFAULT = {
    "main.argv": "the console entry point reads sys.argv; tests pass argv",
    "projector_hamiltonian_sim.b": "phase-estimation group: waits for the Markov route built from e^{-iH_M t} "
                                   "(ROADMAP item 2)",
    **dict.fromkeys(("qsample_sequence.eps", "qsample_sequence.delta"),
                    "the Schrodinger route of qsample_sequence; matchings-qsample runs the Zeno route"),
}


def _public_definitions(tree: ast.Module):
    """(name, node) of each public top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                       if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, node


def _loads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read in `tree` as a bare name or an attribute, outside the subtree `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_name_has_a_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uncalled = {name for tree in trees.values() for name, node in _public_definitions(tree)
                if not any(name in _loads(other, skip=node) for other in trees.values())}
    assert sorted(uncalled - set(NO_CALLER)) == []
    assert sorted(set(NO_CALLER) - uncalled) == []  # an entry that gained a caller, or is gone, leaves too


def _public_functions(tree: ast.Module):
    """(name, node, skipped) of each public top-level function and public method of a public class.

    `skipped` counts the leading parameters a call does not write: self or cls of a method.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                    yield item.name, item, 0 if static else 1


def _defaulted(node: ast.FunctionDef, skipped: int):
    """(position or None, name) of each parameter with a default; keyword-only ones have no position."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    for k, arg in enumerate(positional[first:], start=first):
        yield k - skipped, arg.arg
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def test_every_defaulted_parameter_is_passed():
    """Each defaulted parameter is passed, by keyword or by position, by some call in src/adiagen.

    Calls are matched by the called name alone, so a parameter counts as passed
    when any call of that name passes it.
    """
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    calls = {}  # called name -> [(spread, positional count, keywords)]; a * or ** argument passes everything
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    kw.arg is None for kw in node.keywords)
                calls.setdefault(name, []).append((spread, len(node.args), {kw.arg for kw in node.keywords}))
    unpassed = {f"{name}.{param}"
                for tree in trees for name, node, skipped in _public_functions(tree)
                for position, param in _defaulted(node, skipped)
                if not any(spread or param in keywords or (position is not None and count > position)
                           for spread, count, keywords in calls.get(name, []))}
    assert sorted(unpassed - set(UNPASSED_DEFAULT)) == []
    assert sorted(set(UNPASSED_DEFAULT) - unpassed) == []  # an entry that gets passed, or is gone, leaves too
