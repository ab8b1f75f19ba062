"""Command-line front end.

Subcommands mirror the library: validate, energy, chi, dim, bounds,
family-bounds, microstate, series, selberg, report.  Measures come from
JSON spec files (see ``measures``); each command's one payload goes to
stdout or ``--out`` as JSON, text, or (series and microstates only) CSV
rows rendered from it.  Each command and each series kind has its own
parser, which declares exactly its flags and its handler.

Exit codes: 0 success; 1 usage error (including knobs a command does
not take); 2 invalid measure specification; 3 a ``status`` field of the
report is not "ok" (a regularized energy did not converge, or an
energy diverged); 4 the volume bound's inner-radius equation has no
solution.  Every failure writes a single machine-parseable line to
stderr.  JSON output is deterministic (sorted keys, shortest-round-trip
floats) and serializes infinities as the strings "inf"/"-inf".
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from ._kernels import _check_positive_finite
from .asymptotics import (
    DEFAULT_SEED,
    gamma_ratio_limit_series,
    selberg_log,
    selberg_mc_check,
)
from .energy import (
    DEFAULT_TOL,
    EnergyResult,
    offdiag_energy,
    regularized_energy,
)
from .entropy import (
    FORMULAS,
    chi,
    dimension_truncation_bound,
    free_family_bounds,
    free_hausdorff_dimension,
    h1_identity,
    hausdorff_entropy_bounds,
    sandwich_width,
)
from .measures import MeasureSpecError, SpectralMeasure, load_measure, validate
from .microstates import (
    NoSolutionError,
    build_lower_microstate,
    build_upper_microstate,
    offdiag_sum_series,
    packing_constant_log,
    packing_constant_series,
    pair_partition,
    regularized_product_series,
    sk_counting_check,
    volume_upper_bound_log,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Sequence

__all__ = ["main", "run", "parse_args"]

DEFAULT_SAMPLES = 1_000_000
DEFAULT_MC_EPS = 0.5
EPS_SWEEP = (1.0, 0.1, 0.01)

_TOL_HELP = "absolute tolerance of the regularized energy"
_CSV = ("csv", "json", "text")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message)


def _ks_arg(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--ks expects comma-separated integers, got {text!r}")
    if not ks:
        raise argparse.ArgumentTypeError("--ks must list at least one k")
    return ks


def _command(parent, name: str, help_: str, handler,
             formats=("text", "json"), measure: bool = True) -> _Parser:
    """A command's parser with its handler, --measure (if it reads
    one), --out and --format, whose default is the first of ``formats``."""
    p = parent.add_parser(name, help=help_, description=help_)
    p.set_defaults(handler=handler)
    if measure:
        p.add_argument("--measure", action="append", required=True,
                       metavar="PATH", help="measure spec JSON file "
                                            "(repeatable)")
    p.add_argument("--out", metavar="PATH",
                   help="write the report to this file instead of stdout")
    p.add_argument("--format", choices=formats, default=formats[0],
                   help="output format (default: %(default)s)")
    return p


def build_parser() -> _Parser:
    parser = _Parser(
        prog="freeprob",
        description="Logarithmic energies, free entropy, and free Hausdorff "
                    "entropy bounds for spectral measures.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    # selberg and series gamma-ratio take no --measure; _load_all reads it
    parser.set_defaults(measure=[])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser, metavar="command")

    _command(sub, "validate", "check a measure spec and report its "
                              "invariants", _cmd_validate)

    p = _command(sub, "energy", "off-diagonal log energy plus a regularized "
                                "sweep", _cmd_energy)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=_TOL_HELP + " sweep")
    p.add_argument("--eps", type=float,
                   help="single regularization instead of the default sweep")

    p = _command(sub, "chi", "free entropy (log energy plus 3/4 + "
                             "log(2 pi)/2)", _cmd_chi)
    # chi is closed form; --tol is only recorded in the report.  It stays
    # because the benchmark job chi:semicircle:tol=1e-8 passes it.
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="recorded in the report; chi is closed form")

    _command(sub, "dim", "free Hausdorff dimension 1 - sum(c_i^2)", _cmd_dim)
    _command(sub, "bounds", "two-sided free Hausdorff entropy bounds",
             _cmd_bounds)
    _command(sub, "family-bounds", "entropy sandwich for a free family",
             _cmd_family_bounds)

    p = _command(sub, "microstate", "diagonal microstate spectrum and pair "
                                    "statistics", _cmd_microstate, _CSV)
    p.add_argument("--k", type=int, required=True, help="matrix size")
    p.add_argument("--kind", choices=["upper", "lower"], required=True,
                   help="quantile-fill (upper) or separated (lower) variant")
    p.add_argument("--eps", type=float,
                   help="with --t: evaluate the volume upper bound (upper kind)")
    p.add_argument("--t", type=float,
                   help="with --eps: evaluate the volume upper bound (upper kind)")

    help_ = "convergence series against its limit or bound"
    p = sub.add_parser("series", help=help_, description=help_)
    kinds = p.add_subparsers(dest="kind", required=True, parser_class=_Parser,
                             metavar="kind")
    for kind, help_ in (
            ("gamma-ratio", "normalized Gamma-ratio series and its limit"),
            ("regularized-product", "regularized pair averages of the "
                                    "upper microstate"),
            ("offdiag-sum", "distinct-value pair averages of the lower "
                            "microstate"),
            ("packing-constant", "packing constants of the lower "
                                 "microstate")):
        p = _command(kinds, kind, help_, _cmd_series, _CSV,
                     measure=kind != "gamma-ratio")
        p.add_argument("--ks", type=_ks_arg, required=True,
                       help="comma-separated strictly increasing k values")
    p = kinds.choices["regularized-product"]
    p.add_argument("--eps", type=float, required=True, help="regularization")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=_TOL_HELP + " target")

    p = _command(sub, "selberg", "Selberg product: closed form and Monte "
                                 "Carlo check", _cmd_selberg, measure=False)
    p.add_argument("--k", type=int, required=True, help="number of variables")
    p.add_argument("--eps", type=float,
                   help="half-width of the Monte Carlo cube (k <= 6 only)")
    p.add_argument("--samples", type=int,
                   help="Monte Carlo sample count (k <= 6 only)")
    p.add_argument("--seed", type=int,
                   help="Monte Carlo seed (k <= 6 only)")

    _command(sub, "report", "comprehensive report over one or more measures",
             _cmd_report, ("json", "text"))
    return parser


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Parse argv and make the checks argparse cannot declare."""
    ns = build_parser().parse_args(argv)
    for flag in ("tol", "eps"):
        if (value := getattr(ns, flag, None)) is not None:
            try:
                _check_positive_finite(value, flag)
            except ValueError as exc:
                raise _UsageError(f"--{exc}") from None
    if ns.command in ("microstate", "series") and len(ns.measure) > 1:
        name = f"series {ns.kind}" if ns.command == "series" else "microstate"
        raise _UsageError(f"{name} takes exactly one --measure")
    if ns.command == "microstate":
        if (ns.eps is None) != (ns.t is None):
            raise _UsageError("--eps and --t must be given together")
        if ns.t is not None and not math.isfinite(ns.t):
            raise _UsageError(f"--t must be finite, got {ns.t!r}")
        if ns.eps is not None and ns.kind != "upper":
            raise _UsageError("the volume bound (--eps/--t) applies to the "
                              "upper microstate only")
    if ns.command == "selberg":
        if ns.k > 6 and any(v is not None for v in (ns.eps, ns.samples,
                                                    ns.seed)):
            raise _UsageError("Monte Carlo knobs (--eps/--samples/--seed) "
                              "apply only for k <= 6")
        if ns.eps is None:
            ns.eps = DEFAULT_MC_EPS
        if ns.samples is None:
            ns.samples = DEFAULT_SAMPLES
        if ns.seed is None:
            ns.seed = DEFAULT_SEED
    return ns


# ---------------------------------------------------------------------------
# Serialization helpers.


def _sanitize(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def _text_lines(obj: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, dict) or (isinstance(val, list)
                                         and any(isinstance(x, (dict, list))
                                                 for x in val)):
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(val, indent + 1))
            elif isinstance(val, list):
                shown = val if len(val) <= 20 else val[:8] + ["..."] + val[-2:]
                body = ", ".join(str(x) for x in shown)
                suffix = f"  ({len(val)} values)" if len(val) > 20 else ""
                lines.append(f"{pad}{key}: [{body}]{suffix}")
            else:
                lines.append(f"{pad}{key}: {val}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _render(payload: dict, ns: argparse.Namespace) -> str:
    if ns.format == "json":
        return json.dumps(_sanitize(payload), sort_keys=True, indent=2,
                          allow_nan=False)
    if ns.format == "text":
        return "\n".join(_text_lines(_sanitize(payload)))
    # csv, offered only by microstate and series, reads unsanitized floats
    result = payload["result"]
    if ns.command == "microstate":
        return "\n".join(map(str, result["eigenvalues"]))
    target = result["target"]
    return "\n".join(["k,value,target,gap"] + [
        f"{k},{v},{target},{v - target}"
        for k, v in zip(result["ks"], result["values"])])


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fail(code: int, category: str, message: str) -> int:
    one_line = " ".join(str(message).split())
    sys.stderr.write(f"freeprob: error: {category}: {one_line}\n")
    return code


def _envelope(ns: argparse.Namespace, inputs: dict, body: dict) -> dict:
    return {"tool": {"name": "freeprob", "version": __version__},
            "command": ns.command, "inputs": inputs, **body}


def _statuses(obj: Any):
    """Every ``status`` value anywhere in a payload."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            if key == "status":
                yield val
            else:
                yield from _statuses(val)
    elif isinstance(obj, list):
        for val in obj:
            yield from _statuses(val)


def _energy_dict(res: EnergyResult) -> dict:
    out = {**res._asdict(), "components": res.components._asdict()}
    if res.truncation_note is None:
        del out["truncation_bound"], out["truncation_note"]
    return out


def _above_underflow(block: dict) -> dict:
    """``block`` without the Selberg values that underflow to 0.0 or a
    subnormal, which would print as a number they are not."""
    return {key: val for key, val in block.items()
            if key not in ("product", "closed_form", "mc_estimate")
            or val >= sys.float_info.min}


# ---------------------------------------------------------------------------
# Command handlers, each declared with its parser.  Each takes the
# namespace and the loaded [(path, measure)] and returns the payload.


Loaded = list[tuple[str, SpectralMeasure]]


def _load_all(ns: argparse.Namespace) -> Loaded:
    """Parse every --measure file; except for ``validate``, reject the
    first invalid measure (exit 2)."""
    loaded = []
    for path in ns.measure:
        try:
            measure = load_measure(path)
        except OSError as exc:
            raise _UsageError(f"cannot read measure file {path}: {exc}")
        except MeasureSpecError as exc:
            where = f"{path}: {exc.path}" if exc.path else path
            raise MeasureSpecError(where, exc.reason) from exc
        if ns.command != "validate":
            report = validate(measure)
            if not report.ok:
                raise MeasureSpecError(path, "; ".join(report.problems))
        loaded.append((path, measure))
    return loaded


def _rows(ns, loaded: Loaded, row, **inputs) -> dict:
    """The payload of a command that reports ``row(measure)`` per measure."""
    results = [{"measure": path, **row(measure)} for path, measure in loaded]
    return _envelope(ns, {"measures": ns.measure, **inputs},
                     {"results": results})


def _cmd_validate(ns, loaded: Loaded):
    return _rows(ns, loaded, lambda m: validate(m)._asdict())


def _cmd_energy(ns, loaded: Loaded):
    eps_list = [ns.eps] if ns.eps is not None else list(EPS_SWEEP)
    return _rows(ns, loaded, lambda m: {
        "offdiag_energy": _energy_dict(offdiag_energy(m)),
        "regularized": [
            {"eps": e, **_energy_dict(regularized_energy(m, e, ns.tol))}
            for e in eps_list],
    }, tol=ns.tol, eps=eps_list)


def _cmd_chi(ns, loaded: Loaded):
    return _rows(ns, loaded, lambda m: {"chi": chi(m),
                                        "formula": FORMULAS["chi"]},
                 tol=ns.tol)


def _cmd_dim(ns, loaded: Loaded):
    return _rows(ns, loaded, lambda m: {
        "alpha": free_hausdorff_dimension(m),
        "truncation_bound": dimension_truncation_bound(m),
        "formula": FORMULAS["alpha"]})


def _bounds_row(measure: SpectralMeasure) -> dict:
    bounds = hausdorff_entropy_bounds(measure)
    return {**bounds._asdict(), "energy": _energy_dict(bounds.energy),
            "width": sandwich_width(bounds.alpha),
            "formulas": {key: FORMULAS[key]
                         for key in ("lower", "upper", "width")}}


def _cmd_bounds(ns, loaded: Loaded):
    return _rows(ns, loaded, _bounds_row)


def _family(loaded: Loaded) -> dict:
    family = free_family_bounds([m for _, m in loaded])
    return {"n": len(loaded), **family._asdict(), "energies": [
        {"measure": path, **_energy_dict(energy)}
        for (path, _), energy in zip(loaded, family.energies)]}


def _cmd_family_bounds(ns, loaded: Loaded):
    body = {**_family(loaded),
            "formulas": {key: FORMULAS[key] for key in ("k1", "k2")}}
    return _envelope(ns, {"measures": ns.measure}, {"result": body})


def _cmd_microstate(ns, loaded: Loaded):
    [(path, measure)] = loaded
    if ns.kind == "upper":
        ms = build_upper_microstate(measure, ns.k)
    else:
        ms = build_lower_microstate(measure, ns.k)
    part = pair_partition(ms)
    body = {
        "measure": path,
        "kind": ms.kind,
        "k": ms.k,
        "quantile_count": ms.quantile_count,
        "atom_multiplicities": [
            {"location": loc, "multiplicity": mult}
            for loc, mult in ms.atom_multiplicity_map
        ],
        "pair_partition": {"s_count": part.s_count, "w_count": part.w_count},
        "eigenvalues": ms.eigenvalues,
    }
    if ms.kind == "upper":
        body["zero_count"] = ms.zero_count
    else:
        body["filler_count"] = ms.filler_count
        body["filler_range"] = list(ms.filler_range)
        body["excluded_quantile_count"] = ms.excluded_quantile_count
        check = sk_counting_check(measure, ms)
        body["counting_bound"] = {
            "lhs": check.lhs, "rhs": check.rhs,
            "margin": check.margin, "holds": check.holds,
        }
        body["packing_constant_log"] = packing_constant_log(ms)
    inputs = {"measures": [path], "k": ns.k, "kind": ns.kind}
    if ns.eps is not None:
        body["volume_upper_bound_log"] = volume_upper_bound_log(
            ms, ns.eps, ns.t)
        inputs.update(eps=ns.eps, t=ns.t)
    return _envelope(ns, inputs, {"result": body})


def _cmd_series(ns, loaded: Loaded):
    inputs: dict[str, Any] = {"ks": list(ns.ks)}
    if ns.kind == "gamma-ratio":
        report = gamma_ratio_limit_series(ns.ks)
    else:
        [(path, measure)] = loaded
        inputs["measures"] = [path]
        if ns.kind == "regularized-product":
            inputs.update(tol=ns.tol, eps=ns.eps)
            report = regularized_product_series(measure, ns.eps, ns.ks,
                                                ns.tol)
        elif ns.kind == "offdiag-sum":
            report = offdiag_sum_series(measure, ns.ks)
        else:
            report = packing_constant_series(measure, ns.ks)
    body = {"kind": ns.kind, **report._asdict()}
    if not report.extras:
        del body["extras"]
    return _envelope(ns, inputs, {"result": body})


def _cmd_selberg(ns, loaded: Loaded):
    log_value = selberg_log(ns.k)
    body: dict[str, Any] = {"k": ns.k, "selberg_log": log_value,
                            "product": math.exp(log_value)}
    inputs: dict[str, Any] = {"k": ns.k}
    if ns.k <= 6:
        knobs = {"eps": ns.eps, "samples": ns.samples, "seed": ns.seed}
        mc = selberg_mc_check(ns.k, ns.eps, ns.samples, ns.seed)
        body["monte_carlo"] = _above_underflow({**knobs, **mc._asdict()})
        inputs.update(knobs)
    return _envelope(ns, inputs, {"result": _above_underflow(body)})


def _report_row(measure: SpectralMeasure) -> dict:
    bounds = hausdorff_entropy_bounds(measure)
    return {
        "dimension": {"alpha": bounds.alpha,
                      "truncation_bound": dimension_truncation_bound(measure)},
        "energy": _energy_dict(bounds.energy),
        "chi": chi(measure),
        "h1_identity": h1_identity(measure),
        "bounds": {"lower": bounds.lower, "upper": bounds.upper,
                   "width": sandwich_width(bounds.alpha)},
    }


def _cmd_report(ns, loaded: Loaded):
    payload = _rows(ns, loaded, _report_row)
    payload["formulas"] = dict(FORMULAS)
    if len(loaded) >= 2:
        family = _family(loaded)
        del family["alphas"], family["energies"]
        payload["family"] = family
    return payload


def run(ns: argparse.Namespace) -> int:
    """Execute a parsed command line; returns the exit code.

    2 when ``validate`` finds a problem, 3 when any ``status`` in the
    report is not "ok", else 0.
    """
    try:
        loaded = _load_all(ns)
        payload = ns.handler(ns, loaded)
    except _UsageError as exc:
        return _fail(1, "usage", str(exc))
    except MeasureSpecError as exc:
        return _fail(2, "measure-spec", str(exc))
    except NoSolutionError as exc:
        return _fail(4, "no-solution", str(exc))
    except ValueError as exc:
        return _fail(1, "usage", str(exc))
    try:
        _emit(_render(payload, ns), ns.out)
    except OSError as exc:
        return _fail(1, "usage", f"cannot write report file {ns.out}: {exc}")
    if ns.command == "validate":
        return 0 if all(row["ok"] for row in payload["results"]) else 2
    if any(status != "ok" for status in _statuses(payload)):
        return _fail(3, "energy", "an energy did not converge or diverged; "
                                  "see the report's status fields")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = parse_args(argv)
    except _UsageError as exc:
        return _fail(1, "usage", str(exc))
    return run(ns)
