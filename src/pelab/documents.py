"""Config documents: the keys of each section, one check of them, and the RunConfig
that a run config document builds.

A document's sections are declared by the keyword-only parameters of one function
each (a run config's top level, its grid and potential, a suite, a sweep, a check
kind, an initial-data family): their names are the keys, their annotations the JSON
types and their defaults the optional keys' values.  Every problem is a UsageError,
which the command line maps to exit code 1.
"""

from __future__ import annotations

import inspect
import json
import typing
from pathlib import Path

from .grid import GridSpec
from .potentials import from_piecewise_poly, get_potential
from .solver import RunConfig, _initial_family


class UsageError(Exception):
    """Bad arguments or malformed configuration; maps to exit code 1."""


# A document's keys are the keyword-only parameters of one function per section:
# their JSON types (annotations) and defaults, and which keys are required.

def _keywords(fn) -> dict:
    """Name -> parameter, annotation evaluated, of fn's keyword-only parameters: the keys
    of a config section, a suite, a sweep, a check kind or an initial-data family."""
    return {p.name: p for p in inspect.signature(fn, eval_str=True).parameters.values()
            if p.kind is p.KEYWORD_ONLY}


def _fits(value, kind) -> bool:
    """Whether a JSON value is of `kind`: a type (an int may stand for a float), a union
    of types, or list[...], an array."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is list:
        return type(value) is list and all(_fits(v, args[0]) for v in value)
    return any(_fits(value, k) for k in args) if args else \
        type(value) is kind or (kind is float and type(value) is int)


def _check_keys(what: str, *sections) -> None:
    """UsageError naming at once every unknown, missing and mistyped key of each
    (prefix, section, fn) of `sections` that is an object, as fn's keywords declare."""
    found = {"unknown key(s)": [], "missing key(s)": [], "wrong type(s)": []}
    for at, doc, fn in sections:
        if not isinstance(doc, dict):   # a section of another type, or none
            continue
        keys = _keywords(fn)
        found["unknown key(s)"] += [at + k for k in doc if k not in keys]
        found["missing key(s)"] += [at + k for k, p in keys.items()
                                    if p.default is p.empty and k not in doc]
        found["wrong type(s)"] += [
            f"{at}{k}: {t.__name__ if type(t) is type else t}, not {type(v).__name__}"
            for k, v in doc.items() if k in keys and not _fits(v, t := keys[k].annotation)]
    problems = [f"{label} {sorted(keys)}" for label, keys in found.items() if keys]
    if problems:
        raise UsageError(f"bad {what}: {', '.join(problems)}")


def _grid(*, sizes: list[int], h: float, boundary: str = "periodic") -> GridSpec:
    """A run config's `grid` section: `sizes` points per axis, spacing `h`."""
    return GridSpec(n=len(sizes), sizes=sizes, h=float(h), boundary=boundary)


def build_potential(*, id: str = "table", r_max: float | None = None,
                    table: dict | None = None):
    """A built-in potential `id`, or a piecewise-polynomial `table` (breakpoints, coeffs
    and r_max) named `id`; `r_max` beats the table's."""
    try:
        if table is None:
            return get_potential(id, r_max=r_max)
        return from_piecewise_poly(table["breakpoints"], table["coeffs"], pid=id,
                                   r_max=table.get("r_max") if r_max is None else r_max)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad potential section: {exc}") from exc


def _run_config(*, grid: dict, potential: dict, t_end: float, components: int = 1,
                system: str = "diffusion", cfl_sigma: float = 0.9, snapshot_every: int = 1,
                initial: dict = {"kind": "mode"}, seed: int = 0,
                boundary_values: list[float] | None = None, dt_override: float | None = None,
                name: str = "run") -> RunConfig:
    """A run config's top level; an int may stand for each float, which stays a float."""
    return RunConfig(
        grid=_grid(**grid), n_components=components, potential=build_potential(**potential),
        t_end=float(t_end), system=system, cfl_sigma=float(cfl_sigma),
        snapshot_every=snapshot_every, initial=dict(initial), seed=seed,
        boundary_values=None if boundary_values is None else tuple(boundary_values),
        dt_override=None if dt_override is None else float(dt_override), name=name)


def _path_name(name, what: str) -> str:
    """`name`, if it is one plain path component; UsageError otherwise."""
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise UsageError(f"{what} {name!r} is not one plain path component")
    return name


def build_config(doc: dict, seed_override: int | None = None) -> RunConfig:
    """The RunConfig of a run config document, every key checked first (`_run_config`,
    `_grid`, `build_potential` and the family of `initial` declare them)."""
    sections = [("", doc, _run_config), ("grid.", doc.get("grid"), _grid),
                ("potential.", doc.get("potential"), build_potential)]
    try:
        if isinstance(doc.get("initial"), dict):   # without its kind, under its family's keys
            family, keys = _initial_family(doc["initial"])
            sections.append(("initial.", keys, family))
        _check_keys("run config", *sections)
        return _run_config(**doc) if seed_override is None else \
            _run_config(**{**doc, "seed": seed_override})
    except UsageError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad run config: {exc}") from exc


def _load_json(path) -> dict:
    """The JSON object the file at `path` holds; a UsageError names the file otherwise."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"{path} holds a JSON {type(doc).__name__}, not an object")
    return doc
