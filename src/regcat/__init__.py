"""regcat: a regularity calculus on finite sets.

Generalized inverses of finite maps, higher-regularity star chains,
semicommutative diagram checking with obstructors, regular 3-cycles, and an
exhaustive pruned solver for the regularized Yang-Baxter equation.

``import regcat`` loads no submodule: each name below, and each submodule,
is imported on first access (PEP 562), so a CLI call pays only for the
modules its subcommand runs.
"""

from importlib import import_module

# the submodule that defines each public name
_SUBMODULE_OF = {
    **dict.fromkeys((
        "FiniteSet", "FinMap", "ProductSet", "Subset", "build_map", "check_subset_regularity",
        "classify_map", "compose", "direct_image", "identity", "inverse_image", "tensor",
    ), "core"),
    **dict.fromkeys((
        "enumerate_inverses", "generalized_from_inner", "invertibility_class", "is_inverse",
        "closure_composite", "projectors", "section_inner_inverse", "unique_generalized_inverse",
    ), "inverses"),
    **dict.fromkeys((
        "StarChain", "check_chain", "extend_periodic", "find_chains", "higher_projector",
        "make_chain", "star_compose",
    ), "chains"),
    **dict.fromkeys((
        "Cycle", "Diagram", "FunctorData", "RegularThreeCycle", "check_regular_functor",
        "find_regular_3cycles", "is_commutative", "is_cycle_morphism", "is_semicommutative",
        "obstruction_number", "obstructor", "path_compose", "product_3cycle",
    ), "diagrams"),
    **dict.fromkeys((
        "Braiding", "ObstructorAssignment", "YbeProblem", "check_prebraid_regularity",
        "check_regular_braiding", "check_symmetry", "check_ybe", "composite_prebraid",
        "enumerate_idempotents", "prebraid", "solve_ybe",
    ), "braiding"),
    **dict.fromkeys(("Workspace", "parse_workspace", "render_workspace"), "dsl"),
}
_SUBMODULES = ("core", "errors", "inverses", "chains", "diagrams", "braiding", "dsl")

__all__ = list(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE_OF, *_SUBMODULES})
