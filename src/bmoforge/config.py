"""Experiment configuration: a flat sectioned key/value format (JSON accepted
as an alternative), schema validation per experiment kind, and a canonical
content hash.

Example::

    [experiment]
    kind = davie
    seed = 20240811
    out = runs/davie
    jobs = 2

    [davie]
    field = sign
    shifts = 0.05, 0.1, 0.2, 0.4
    n_paths = 100000
    n_steps = 1000

Parameter keys live in a section named after the kind. ``seed``, ``out`` and
``jobs`` may also come from overrides, which take precedence over the text;
only the value of each that takes effect is validated. Unknown keys and
out-of-range values are rejected with one message per violation. ``out`` says
where outputs go: a path without a NUL byte that the file system can look
up, whose nearest ancestor on disk, itself included, is a directory or a
symbolic link to one. ``jobs`` is validated, then dropped, since
case batteries run serially. Neither changes what is computed, so both are
excluded from the config hash.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .ensemble import _MAX_TOTAL_DRAWS

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "KINDS",
    "parse_config",
    "parse_config_file",
    "config_hash",
]

_U64_MAX = 2**64 - 1

# The environment variable that overrides a config file's seed.
SEED_ENV = "BMOFORGE_SEED"


class ConfigError(ValueError):
    """Raised with every violation found, one per line."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in self.violations))


@dataclass(frozen=True)
class _Param:
    kind: str  # int | float | str | bool | int_list | float_list
    default: object
    lo: float | None = None
    hi: float | None = None
    choices: tuple | None = None


# Top-level keys that carry a range; an override of one obeys the same rule.
_TOP_LEVEL = {
    "seed": _Param("int", 0, lo=0, hi=_U64_MAX),
    "jobs": _Param("int", 1, lo=1, hi=256),
}

_FIELD_CHOICES = ("one", "coordinate", "sign", "inv-abs-clip")

# Keys of the finite-tree case batteries. The largest tree, 4**5 leaves, keeps
# every case small, so no work bound is needed.
_CASE_PARAMS = {
    "depth": _Param("int", 3, lo=1, hi=5),
    "branching": _Param("int", 2, lo=2, hi=4),
    "n_processes": _Param("int", 50, lo=1, hi=100000),
    "p_list": _Param("int_list", [1, 2, 3], lo=1, hi=6),
    "lambda_list": _Param("float_list", [0.3], lo=1e-9, hi=100.0),
    "process_kind": _Param("str", "gaussian",
                           choices=("gaussian", "walk", "uniform", "integers", "heavy")),
    "random_transitions": _Param("bool", True),
}

KIND_SCHEMAS: dict[str, dict[str, _Param]] = {
    "verify-finite": _CASE_PARAMS,
    "rho-grid": {
        "field": _Param("str", "sign", choices=_FIELD_CHOICES),
        "grid_times": _Param("float_list", [0.25, 0.5, 0.75, 1.0], lo=0.0, hi=100.0),
        "n_outer": _Param("int", 64, lo=2, hi=100000),
        "n_inner": _Param("int", 256, lo=2, hi=10**7),
        "steps_per_unit": _Param("int", 256, lo=1, hi=10**6),
        "proxy": _Param("str", "max", choices=("max", "quantile")),
    },
    "jn-check": {k: v for k, v in _CASE_PARAMS.items() if k != "lambda_list"},
    "davie": {
        "field": _Param("str", "sign", choices=_FIELD_CHOICES),
        "shifts": _Param("float_list", [0.05, 0.1, 0.2, 0.4], lo=1e-6, hi=10.0),
        "n_paths": _Param("int", 100000, lo=2, hi=10**7),
        "n_steps": _Param("int", 1000, lo=1, hi=10**6),
        "moments": _Param("int_list", [2, 4], lo=2, hi=8),
    },
    "quadrature": {
        "field": _Param("str", "sign", choices=_FIELD_CHOICES),
        "ns": _Param("int_list", [8, 16, 32, 64, 128, 256], lo=1, hi=10**6),
        "n_outer": _Param("int", 64, lo=2, hi=100000),
        "n_inner": _Param("int", 256, lo=2, hi=10**7),
        "anchor_times": _Param("float_list", [0.0, 0.25, 0.5, 0.75], lo=0.0, hi=1.0),
        "fine_per_block": _Param("int", 4, lo=1, hi=1024),
    },
    "tamed-em": {
        "drift": _Param("str", "sign", choices=("zero", "sign", "neg-linear", "const")),
        "sigma": _Param("float", 1.0, lo=0.0, hi=100.0),
        "x0": _Param("float", 0.0, lo=-1e6, hi=1e6),
        "ns": _Param("int_list", [8, 16, 32, 64, 128, 256], lo=1, hi=10**6),
        "fine_factor": _Param("int", 64, lo=2, hi=4096),
        "n_paths": _Param("int", 2000, lo=2, hi=10**6),
        "taming_scale": _Param("float", 1.0, lo=1e-6, hi=1e6),
        "taming_exponent": _Param("float", 0.5, lo=1e-6, hi=0.5),
        "taming_log_power": _Param("float", 1.0, lo=0.0, hi=10.0),
        "ellipticity_bound": _Param("float", 4.0, lo=1.0, hi=1e6),
    },
}

KINDS = tuple(KIND_SCHEMAS)


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    out: str
    params: dict


def _coerce(name: str, spec: _Param, raw, violations: list[str]):
    def fail(msg):
        violations.append(f"{name}: {msg} (got {raw!r})")
        return None

    def one(v, kind):
        if kind == "int":
            if isinstance(v, bool):
                raise ValueError
            if isinstance(v, int):
                return v
            if isinstance(v, float) and v.is_integer():
                return int(v)
            if isinstance(v, str):
                return int(v.strip())
            raise ValueError
        if kind == "float":
            if isinstance(v, bool) or not isinstance(v, (int, float, str)):
                raise ValueError
            val = float(v.strip() if isinstance(v, str) else v)
            # NaN passes every range comparison, so it is refused here.
            if not math.isfinite(val):
                raise ValueError
            return val
        raise ValueError

    if spec.kind == "bool":
        if isinstance(raw, bool):
            return raw
        if isinstance(raw, str) and raw.strip().lower() in ("true", "false", "yes", "no", "1", "0"):
            return raw.strip().lower() in ("true", "yes", "1")
        return fail("expected a boolean")
    if spec.kind == "str":
        if not isinstance(raw, str):
            return fail("expected a string")
        val = raw.strip()
        if spec.choices and val not in spec.choices:
            return fail(f"must be one of {list(spec.choices)}")
        return val
    if spec.kind in ("int", "float"):
        try:
            val = one(raw, spec.kind)
        except (ValueError, TypeError):
            return fail("expected a finite float" if spec.kind == "float" else "expected int")
        if spec.lo is not None and val < spec.lo or spec.hi is not None and val > spec.hi:
            return fail(f"must lie in [{spec.lo}, {spec.hi}]")
        return val
    if spec.kind in ("int_list", "float_list"):
        base = spec.kind[:-5]
        if isinstance(raw, str):
            parts = [p for p in (s.strip() for s in raw.split(",")) if p]
        elif isinstance(raw, (list, tuple)):
            parts = list(raw)
        else:
            return fail("expected a comma-separated list")
        try:
            vals = [one(p, base) for p in parts]
        except (ValueError, TypeError):
            return fail("expected a list of finite floats" if base == "float"
                        else "expected a list of ints")
        if not vals:
            return fail("list must be nonempty")
        bad = [v for v in vals
               if (spec.lo is not None and v < spec.lo) or (spec.hi is not None and v > spec.hi)]
        if bad:
            return fail(f"entries must lie in [{spec.lo}, {spec.hi}]; offending: {bad}")
        repeated = list(dict.fromkeys(v for v in vals if vals.count(v) > 1))
        if repeated:
            return fail(f"entries must be distinct; repeated: {repeated}")
        return vals
    raise AssertionError(spec.kind)


def _cross_field_violations(kind: str, params: dict, rejected: set) -> list[str]:
    """Constraints that the per-key ranges cannot express: between keys, and
    on a list as a whole.

    Keys whose own value was rejected are left to that violation.
    """
    out = []
    if kind == "davie" and "moments" not in rejected:
        odd = [m for m in params["moments"] if m % 2]
        if odd:
            out.append(f"moments: orders must be even; offending: {odd}")
    if kind == "rho-grid" and "grid_times" not in rejected:
        times = params["grid_times"]
        if len(times) < 2 or any(b <= a for a, b in zip(times, times[1:])):
            out.append(f"grid_times: must hold at least two strictly increasing "
                       f"times (got {times!r})")
    # The 0.99 quantile of fewer than 100 outer states is their max.
    if (kind == "rho-grid" and not rejected & {"proxy", "n_outer"}
            and params["proxy"] == "quantile" and params["n_outer"] < 100):
        out.append(f"proxy: quantile equals max unless n_outer >= 100 "
                   f"(got n_outer = {params['n_outer']})")
    if kind == "davie" and not rejected & {"n_paths", "n_steps"}:
        draws = params["n_paths"] * params["n_steps"]
        if draws > _MAX_TOTAL_DRAWS:
            out.append(f"n_paths: n_paths * n_steps = {draws} normal draws exceeds "
                       f"the ensemble cap {_MAX_TOTAL_DRAWS}")
    if kind == "tamed-em" and not rejected & {"ns", "fine_factor"}:
        n_ref = params["fine_factor"] * max(params["ns"])
        bad = [n for n in params["ns"] if n_ref % n]
        if bad:
            out.append(f"ns: every mesh must divide fine_factor * max(ns) = {n_ref}; "
                       f"offending: {bad}")
        draws = params["n_paths"] * n_ref
        if "n_paths" not in rejected and draws > _MAX_TOTAL_DRAWS:
            out.append(f"n_paths: n_paths * fine_factor * max(ns) = {draws} normal draws "
                       f"exceeds the ensemble cap {_MAX_TOTAL_DRAWS}")
    # The clip level M_n must grow slower than sqrt(n), as TamingPolicy requires.
    if (kind == "tamed-em" and not rejected & {"taming_exponent", "taming_log_power"}
            and params["taming_exponent"] == 0.5 and params["taming_log_power"] == 0.0):
        out.append("taming_log_power: must be > 0 when taming_exponent = 0.5, so the "
                   "normalized clip level decays")
    if kind == "quadrature" and not rejected & {"ns", "anchor_times"}:
        ns = params["ns"]
        bad = [n for n in ns if max(ns) % n]
        if bad:
            out.append(f"ns: every mesh must divide max(ns) = {max(ns)}; offending: {bad}")
        for s in params["anchor_times"]:
            if s >= 1.0:
                out.append(f"anchor_times: must lie in [0, 1) (got {s!r})")
                continue
            off = [n for n in ns if abs(round(s * n) - s * n) > 1e-9]
            if off:
                out.append(f"anchor_times: {s!r} is not a mesh point of ns {off}")
    return out


def _build(kind, top, raw_params: dict) -> ExperimentConfig:
    """Validate one run's config. ``top`` holds ``(source, key, raw)`` triples
    for ``seed``, ``out`` and ``jobs`` in increasing precedence; only the last
    value of each key takes effect, so only it is checked, and its violation
    is labelled by its source."""
    violations: list[str] = []
    if not isinstance(kind, str) or kind not in KIND_SCHEMAS:
        raise ConfigError([f"kind: must be one of {list(KINDS)} (got {kind!r})"])
    schema = KIND_SCHEMAS[kind]
    effective = {key: (source, raw) for source, key, raw in top}
    if "seed" in effective:
        source, raw = effective["seed"]
        seed = _coerce(source, _TOP_LEVEL["seed"], raw, violations)
    else:
        violations.append("seed: required (use --config, --seed, or "
                          f"the {SEED_ENV} environment variable)")
        seed = 0
    source, out = effective.get("out", ("out", "runs"))
    if not isinstance(out, str) or not out.strip():
        violations.append(f"{source}: expected a nonempty path (got {out!r})")
        out = "runs"
    elif "\0" in out:
        violations.append(f"{source}: a path cannot hold a NUL byte (got {out!r})")
    else:
        # The output directory, or its nearest ancestor on disk (symbolic
        # links not followed), must be a directory or a link to one.
        target = Path(out.strip())
        for path in (target, *target.parents):
            try:
                path.lstat()
            except (FileNotFoundError, NotADirectoryError):
                continue
            except OSError as exc:  # a name too long, a symbolic-link loop
                violations.append(f"{source}: {path}: {exc.strerror}")
                break
            if path.is_symlink() and not path.exists():
                violations.append(f"{source}: {path} is a dangling symbolic link")
            elif not path.is_dir():
                violations.append(f"{source}: {path} exists and is not a directory")
            break
    if "jobs" in effective:  # checked, then dropped: case batteries run serially
        source, raw = effective["jobs"]
        _coerce(source, _TOP_LEVEL["jobs"], raw, violations)
    params = {}
    rejected = set()
    for name, spec in schema.items():
        if name in raw_params:
            val = _coerce(name, spec, raw_params[name], violations)
            if val is None:
                rejected.add(name)
            params[name] = spec.default if val is None else val
        else:
            params[name] = spec.default if not isinstance(spec.default, list) else list(spec.default)
    for name in raw_params:
        if name not in schema:
            violations.append(f"{name}: unknown key for kind {kind!r} "
                              f"(known: {sorted(schema)})")
    violations.extend(_cross_field_violations(kind, params, rejected))
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(kind=kind, seed=seed, out=out.strip(), params=params)


def _read_document(text: str):
    """The kind, the ``seed``/``out``/``jobs`` values the text sets, and its
    raw parameters, from sectioned key/value text or a JSON object."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"json: {exc}"]) from exc
        if not isinstance(doc, dict):
            raise ConfigError(["json: top level must be an object"])
        known_top = {"kind", "seed", "out", "jobs", "params"}
        extra = sorted(set(doc) - known_top)
        if extra:
            raise ConfigError([f"{k}: unknown top-level key (known: {sorted(known_top)})"
                               for k in extra])
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(["params: must be an object"])
        return doc.get("kind"), doc, params
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from exc
    # configparser copies [DEFAULT] keys into every section.
    if cp.defaults():
        keys = ", ".join(sorted(cp.defaults()))
        raise ConfigError([f"[DEFAULT]: unsupported section (keys: {keys}); put each key "
                           "in [experiment] or in the kind's section"])
    if "experiment" not in cp:
        raise ConfigError(["missing [experiment] section"])
    exp = dict(cp["experiment"])
    violations = [f"{k}: unknown key in [experiment] (known: kind, seed, out, jobs)"
                  for k in sorted(set(exp) - {"kind", "seed", "out", "jobs"})]
    if "kind" not in exp:
        violations.append("kind: required")
    if violations:
        raise ConfigError(violations)
    kind = exp["kind"].strip()
    params = {}
    for section in cp.sections():
        if section == "experiment":
            continue
        if section != kind:
            raise ConfigError([f"[{section}]: unexpected section; parameters for kind "
                               f"{kind!r} belong in [{kind}]"])
        params.update(dict(cp[section]))
    return kind, exp, params


def parse_config(text: str, overrides=()) -> ExperimentConfig:
    """Parse sectioned key/value text, or a JSON object if text starts with '{',
    and validate it. ``overrides`` are ``(source, key, raw)`` triples for
    ``seed``, ``out`` or ``jobs`` that take precedence over the text, later
    ones over earlier ones."""
    kind, doc, params = _read_document(text)
    top = [(key, key, doc[key]) for key in ("seed", "out", "jobs") if doc.get(key) is not None]
    return _build(kind, [*top, *overrides], params)


def parse_config_file(path) -> str:
    """A config file's text; an unreadable or non-UTF-8 file is a ``config:`` violation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc.strerror or exc}"]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config: {path} is not UTF-8 text (byte {exc.start})"]) from exc


def config_hash(config: ExperimentConfig) -> str:
    """sha256 of the canonicalized science-relevant content (kind, seed, params)."""
    doc = {"kind": config.kind, "seed": config.seed,
           "params": {k: config.params[k] for k in sorted(config.params)}}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
