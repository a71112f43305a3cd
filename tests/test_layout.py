"""The package's layout: every public name in src/adiagen is used by the package itself."""
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
