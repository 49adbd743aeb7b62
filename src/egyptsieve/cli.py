"""Command-line workbench: sieve, analyze, decompose, verify, sweep.

Exit codes: 0 success, 1 no-result-within-budget (exhausted search,
failed certificate check), 2 domain or configuration errors, 3 any
other exception, a fault in the toolkit ("internal error:" and the
traceback go to stderr).  Every report embeds the resolved
configuration and toolkit version; config resolution is defaults, then
config file, then command-line flags.

Each step at the boundary exists once: ``_read_object`` reads the
config, certificate and grid files, ``_write`` renders every report to
--out or stdout, ``_COMMANDS`` maps each command to its handler, and
``_analyze_one`` evaluates one lemma point for analyze and sweep alike.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import traceback
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .arith import _chunks, prime_array
from .egypt import DEFAULT_BUDGET, SearchBudget, r_fold_disjoint, verify
from .errors import CapacityError, DomainError, SearchExhausted
from . import reports
from .spectrum import (
    ShiftParams,
    divisor_window_density,
    friability_density,
    omega_deviation_density,
)


@dataclass
class RunConfig:
    command: str = None
    limit: int = None
    N: int = None
    shift: int = 1
    modulus: int = 1
    epsilon: str = None
    delta: str = None
    y: str = None
    z: str = None
    target: str | list[str] = None
    r_fold: int = None
    max_prime: int = DEFAULT_BUDGET.max_prime
    max_terms: int = DEFAULT_BUDGET.max_terms
    out: str = None
    primes_out: str = None
    format: str = "json"
    cert: str = None
    grid: str = None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_INT_FIELDS = [f.name for f in fields(RunConfig) if f.type == "int"]


def _as_int(key: str, val) -> int:
    """val as an int: an int, an integral float or an integer string;
    anything else is a DomainError naming key."""
    if isinstance(val, float) and val.is_integer():
        return int(val)
    if not isinstance(val, (bool, float)):
        try:
            return int(val)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{key} must be an integer, got {val!r}")


def _read_object(path: str, what: str) -> dict:
    """The JSON object in the file at path; a missing file, malformed
    JSON, an int literal past 4,300 digits or any other JSON value is a
    DomainError naming what the file holds."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read {what} file: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"{what} file must hold a JSON object")
    return doc


def resolve_config(cli_args: dict, config_path: str | None) -> RunConfig:
    """defaults < config file < explicitly set CLI flags; the int fields
    read by ``_as_int``, the paths (out, primes_out, cert, grid) as
    strings and format as json, or csv for analyze and sweep, the only
    commands with a CSV output; else DomainError."""
    merged = dict(_DEFAULTS)
    if config_path:
        for key, val in _read_object(config_path, "config").items():
            if key not in merged:
                raise DomainError(f"unknown config key {key!r}")
            merged[key] = val
    for key, val in cli_args.items():
        if val is not None and key in merged:
            merged[key] = val
    merged["command"] = cli_args.get("command") or merged["command"]
    for key in _INT_FIELDS:
        if merged[key] is not None:
            merged[key] = _as_int(key, merged[key])
    for key in ("out", "primes_out", "cert", "grid"):
        if not isinstance(merged[key], (str, type(None))):
            raise DomainError(f"{key} must be a path, got {merged[key]!r}")
    if merged["format"] not in ("json", "csv"):
        raise DomainError(f"format must be json or csv, "
                          f"got {merged['format']!r}")
    if merged["format"] == "csv" and merged["command"] not in ("analyze",
                                                               "sweep"):
        raise DomainError(f"{merged['command']} has no csv output")
    return RunConfig(**merged)


def _write(cfg: RunConfig, payload: dict, rows: list | None = None) -> None:
    """The JSON report of payload, or under --format csv the CSV of
    rows, with the resolved config and version, to --out or stdout."""
    if cfg.format == "csv":
        text = reports.render_csv(rows, cfg.as_dict(), __version__)
    else:
        text = reports.render_report(payload, cfg.as_dict(), __version__)
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_sieve(cfg: RunConfig, flags: dict) -> int:
    limit = cfg.limit
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    primes = prime_array(limit)
    if cfg.primes_out:
        # the int64 file of np.save, or one decimal prime a line, written
        # one slice at a time from the int32 primes: no int64 copy and no
        # text of the whole array
        p = Path(cfg.primes_out)
        if p.suffix == ".npy":
            with p.open("wb") as f:
                np.lib.format.write_array_header_1_0(
                    f, {"descr": "<i8", "fortran_order": False,
                        "shape": (len(primes),)})
                for chunk in _chunks(primes):
                    chunk.astype("<i8").tofile(f)
        else:
            with p.open("w") as f:
                for chunk in _chunks(primes):
                    f.write("".join(f"{q}\n" for q in chunk.tolist()))
    payload = {
        "limit": limit,
        "count": int(len(primes)),
        "largest": int(primes[-1]) if len(primes) else None,
    }
    _write(cfg, payload)
    return 0


# each lemma's report and the names of its parameters
_LEMMAS = {1: (friability_density, ("epsilon",)),
           2: (omega_deviation_density, ("delta",)),
           3: (divisor_window_density, ("y", "z"))}
# the inputs a density report reads, the keys a sweep grid may hold
_POINT_KEYS = {"lemma", "N", "shift", "modulus",
               *(k for _, names in _LEMMAS.values() for k in names)}


def _analyze_one(point: dict):
    """The lemma and density report of one point: the run config with
    analyze's lemma, or a sweep grid point laid over the run config."""
    shift = ShiftParams(_as_int("shift", point["shift"]),
                        _as_int("modulus", point["modulus"]))
    lemma = _as_int("lemma", point["lemma"])
    N = _as_int("N", point["N"])
    if lemma not in _LEMMAS:
        raise DomainError(f"unknown lemma {lemma}")
    report, names = _LEMMAS[lemma]
    if any(point.get(k) is None for k in names):
        raise DomainError(f"lemma {lemma} needs "
                          + " and ".join(f"--{k}" for k in names))
    try:
        params = [Fraction(str(point[k])) for k in names]
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"lemma {lemma}: {exc}") from exc
    return lemma, report(N, shift, *params)


def _cmd_analyze(cfg: RunConfig, flags: dict) -> int:
    # the lemma is a flag, not a config field: the embedded config
    # leaves it out
    lemma, rep = _analyze_one({**cfg.as_dict(), "lemma": flags["lemma"]})
    _write(cfg, {"lemma": lemma, "report": reports.density_report_dict(rep)},
           reports.density_rows([rep]))
    return 0


def _cmd_decompose(cfg: RunConfig, flags: dict) -> int:
    """r_fold (default 1) disjoint certificates of each target, solved in
    order; one target without r_fold writes a bare certificate, anything
    else the "decompositions" list in target order.  Each certificate was
    checked once, by ``decompose``."""
    if cfg.target in (None, []):
        raise DomainError("decompose needs --target")
    raw = cfg.target if isinstance(cfg.target, list) else [cfg.target]
    targets = []
    for t in raw:
        try:
            targets.append(Fraction(str(t)))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed target {t!r}") from exc
    budget = SearchBudget(cfg.max_prime, cfg.max_terms)
    r = 1 if cfg.r_fold is None else cfg.r_fold
    decs = []
    for target in targets:
        decs += r_fold_disjoint(target, cfg.shift, r, budget)
    if len(targets) == 1 and cfg.r_fold is None:
        payload = reports.certificate_dict(decs[0])
    else:
        payload = {"decompositions": [reports.certificate_dict(d)
                                      for d in decs]}
    _write(cfg, payload)
    return 0


def _cmd_verify(cfg: RunConfig, flags: dict) -> int:
    doc = _read_object(cfg.cert, "certificate")
    certs = doc.get("decompositions", [doc])
    if not isinstance(certs, list):
        raise DomainError("decompositions must be a JSON list")
    if not certs:
        raise DomainError("certificate file holds no decomposition")
    results = []
    all_ok = True
    for entry in certs:
        dec = reports.certificate_from_dict(entry)
        res = verify(dec)
        all_ok &= res.valid
        result = {"valid": res.valid, "reason": res.reason,
                  "primes": len(dec.primes)}
        if res.probable_primes:
            result["probable_primes"] = res.probable_primes
        results.append(result)
    _write(cfg, {"results": results, "all_valid": all_ok})
    return 0 if all_ok else 1


def _grid_points(grid: dict) -> list[dict]:
    """Every point of the grid's product, keys sorted; a key that is no
    input of a density report is refused, and a grid of more than 10^4
    points from its list lengths, before any point is built."""
    lists = {}
    for key, val in grid.items():
        if key not in _POINT_KEYS:
            raise DomainError(f"unknown grid key {key!r}")
        lists[key] = val if isinstance(val, list) else [val]
    if "lemma" not in lists:
        raise DomainError("grid needs a lemma")
    size = math.prod(map(len, lists.values()))
    if size > 10 ** 4:
        raise DomainError(f"grid cardinality {size} exceeds 1e4")
    keys = sorted(lists)
    return [dict(zip(keys, values))
            for values in itertools.product(*(lists[k] for k in keys))]


def _cmd_sweep(cfg: RunConfig, flags: dict) -> int:
    grid = _read_object(cfg.grid, "grid")
    # a grid value overrides the resolved config, lemma parameters too
    points = [_analyze_one({**cfg.as_dict(), **pt})
              for pt in (_grid_points(grid) if grid else [])]
    # each row names its lemma first: rows of different lemmas share one
    # CSV header
    rows = [{"lemma": lemma, **reports.density_rows([rep])[0]}
            for lemma, rep in points]
    _write(cfg, {"rows": rows}, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file (flags override it)")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output path (default: stdout)")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"))

    ap = argparse.ArgumentParser(
        prog="egyptsieve", parents=[common],
        description="Egyptian fractions over shifted primes and a "
                    "shifted-prime density workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sieve", parents=[common], help="enumerate primes")
    s.add_argument("--limit", type=int, required=True)
    s.add_argument("--primes-out", dest="primes_out")

    a = sub.add_parser("analyze", parents=[common, fmt],
                       help="one density measurement")
    a.add_argument("--lemma", type=int, choices=(1, 2, 3), required=True)
    a.add_argument("--N", type=int, required=True)
    a.add_argument("--shift", type=int)
    a.add_argument("--modulus", type=int)
    a.add_argument("--epsilon")
    a.add_argument("--delta")
    a.add_argument("--y")
    a.add_argument("--z")

    d = sub.add_parser("decompose", parents=[common],
                       help="find a decomposition certificate")
    d.add_argument("--target", nargs="+",
                   help="one or more rationals, e.g. 5/3 1")
    d.add_argument("--shift", type=int)
    d.add_argument("--r-fold", dest="r_fold", type=int)
    d.add_argument("--max-prime", dest="max_prime", type=int)
    d.add_argument("--max-terms", dest="max_terms", type=int)

    v = sub.add_parser("verify", parents=[common],
                       help="check a certificate file")
    v.add_argument("--cert", required=True)

    w = sub.add_parser("sweep", parents=[common, fmt],
                       help="density reports over a parameter grid")
    w.add_argument("--grid", required=True)
    return ap


# each command's handler, called with the resolved config and the
# parsed flags (analyze reads its lemma there)
_COMMANDS = {"sieve": _cmd_sieve, "analyze": _cmd_analyze,
             "decompose": _cmd_decompose, "verify": _cmd_verify,
             "sweep": _cmd_sweep}


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    config_path = flags.pop("config", None)
    try:
        # resolve_config reads only the flags that are config fields
        cfg = resolve_config(flags, config_path)
        return _COMMANDS[cfg.command](cfg, flags)
    except (DomainError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchExhausted as exc:
        print(f"exhausted: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
