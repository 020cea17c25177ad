"""The public API surface: which parameters of `plembed.__all__` have defaults.

Tolerances are module constants, not options, so every default left is a
value that real callers set differently.  A new defaulted parameter must be
added here.
"""

import dataclasses
import inspect

import plembed

KEPT = {
    ("FoldParams", "radial_scale"),
    ("ParseError", "line"),
    ("normalized_link_volume_mc", "samples"),
    ("normalized_link_volume_mc", "seed"),
    ("polyline_curvature", "mode"),
    ("realize_quadruple", "dim"),
    ("wald_curvature", "kappa_cap"),
}


def _defaulted(name, fn):
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:  # a builtin constructor without a signature
        return set()
    return {(name, p.name) for p in params if p.default is not p.empty}


def defaulted_parameters():
    found = set()
    for name in plembed.__all__:
        obj = getattr(plembed, name)
        if not inspect.isclass(obj):
            found |= _defaulted(name, obj)
            continue
        if dataclasses.is_dataclass(obj):
            found |= {
                (name, f.name)
                for f in dataclasses.fields(obj)
                if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
            }
        # a constructor counts where it is defined, not again in each subclass
        if "__init__" in vars(obj):
            found |= _defaulted(name, obj.__init__)
        for attr, member in vars(obj).items():
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if inspect.isfunction(member) and not attr.startswith("_"):
                found |= _defaulted(f"{name}.{attr}", member)
    return found


def test_defaulted_parameters_are_the_kept_values():
    assert defaulted_parameters() == KEPT
