"""Command line front end.

Subcommands:
  region        evaluate allocations, write a CSV with rate pairs,
                benchmark corners/hull and Gaussian-TIN rates
  det-verify    run the rank/achievability identities on the scenario
  codeparams    derive (info bits, codeword bits) for one allocation
  constellation dump a superimposed receive constellation as CSV

Exit codes: 0 success, 2 invalid config, 3 infeasible allocation,
4 property violation, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain

import yaml

from . import detmac
from .config import ChannelConfig, UserSpec
from .errors import (
    ConfigError,
    ConstellationTooLargeError,
    EnumerationTooLargeError,
    InfeasibleAllocationError,
    SamplesTooLargeError,
    UnsupportedOrderError,
)
from .fblrate import gaussian_sic_region, gaussian_tin_rates, rate_region_sweep
from .infodensity import MIN_SAMPLES
from .pipeline import BitAllocation, enumerate_allocations, select_code_params
from .signaling import build_scheme, superimpose, write_constellation_csv

CSV_SCHEMA = "hetmac-region-csv v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VIOLATION = 4
# what a shell reports for a tool that SIGPIPE killed
EXIT_BROKEN_PIPE = 141


@dataclass(frozen=True)
class Scenario:
    users: tuple[UserSpec, ...]
    samples: int
    seed: int
    even_only: bool
    scheme_types: str
    selection_policy: str
    # (id, allocation, pinned scheme label or None)
    allocations: tuple[tuple[str, BitAllocation, str | None], ...]

    def channel(self) -> ChannelConfig:
        return ChannelConfig.from_users(self.users)


def _number(raw, where: str, kind: type = float, least: float = -math.inf, most: float = math.inf):
    """raw as a kind (int or float) in [least, most]; anything else, booleans, values
    past float range and fractions where an int is wanted are config errors.  A string
    is the number it spells, since YAML 1.1 reads an unquoted 1e-5 or 2.0e4 as one: an
    integer literal by int(), any other by float() and then the rules for a float."""
    try:
        try:
            number = int(raw) if isinstance(raw, str) else raw
        except ValueError:
            number = float(raw)
        value = None if isinstance(raw, bool) else kind(number)
        # float() raises OverflowError for an int past float range
        if not math.isfinite(float(number)) or kind is int and value != number:
            value = None
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None:
        noun = "an integer within float range" if kind is int else "a finite number"
        raise ConfigError(f"{where} must be {noun}, got {raw!r}")
    if value < least:
        raise ConfigError(f"{where} must be at least {least}, got {value}")
    if value > most:
        raise ConfigError(f"{where} must be at most {most}, got {value}")
    return value


def _gain(raw, where: str):
    if isinstance(raw, list) and len(raw) == 2:
        return complex(_number(raw[0], where), _number(raw[1], where))
    if isinstance(raw, (list, dict)):
        raise ConfigError(f"{where} must be a number or a [re, im] pair")
    return _number(raw, where)


def _kind(test, noun: str, out=lambda raw: raw):
    """The parser giving out(raw) for a raw that test accepts; anything else is an error."""
    def parse(raw, where: str):
        if not test(raw):
            raise ConfigError(f"{where} must be {noun}, got {raw!r}")
        return out(raw)
    return parse


def _choice(*options: str):
    return _kind(lambda raw: str(raw) in options, f"one of {', '.join(options)}", str)


_REQUIRED = object()  # the default of a key its section must give
# a sample count is a range's length, which cannot pass sys.maxsize
_SAMPLES = partial(_number, kind=int, least=MIN_SAMPLES, most=sys.maxsize)
# a symbol count, bounded as a sample count is: n * mi and R * N then stay finite
_BLOCKLENGTH = partial(_number, kind=int, most=sys.maxsize)
# an allocation id, as text one CSV cell can hold
_ID = _kind(
    lambda raw: type(raw) in (str, int) and str(raw) != "" and not set(str(raw)) & set(',"\r\n'),
    "a name with no comma, double quote or line break", str,
)
_LIST = _kind(lambda raw: isinstance(raw, list), "a list")
_MAPPING = _kind(lambda raw: isinstance(raw, dict), "a mapping")
# Each section's keys: key -> (parser, default).  An absent key takes its
# default; a null is absent where the default is None, and an error elsewhere.
_FIELDS = {
    "scenario": {
        "users": (_kind(lambda raw: isinstance(raw, list) and raw, "a non-empty list"), _REQUIRED),
        "estimator": (_MAPPING, None), "flags": (_MAPPING, None), "allocations": (_LIST, None),
    },
    "users": {
        "snr_db": (_number, None), "blocklength": (_BLOCKLENGTH, _REQUIRED),
        "target_eps": (_number, _REQUIRED), "power": (_number, None), "gain": (_gain, None),
    },
    "estimator": {"samples": (_SAMPLES, 200_000), "seed": (partial(_number, kind=int), 0)},
    "flags": {
        "even_only": (_kind(lambda raw: isinstance(raw, bool), "true or false"), True),
        "scheme_types": (_choice("1", "2", "both"), "both"),
        "selection_policy": (_choice("all", "max_min", "sum_rate"), "all"),
    },
    "allocations": {
        "id": (_ID, _REQUIRED), "m": (_LIST, _REQUIRED), "scheme": (_choice("1", "2"), None),
    },
}


def _fields(raw, table: dict, where: str) -> dict:
    """The mapping raw checked against table, each value parsed at its location."""
    unknown = set(_MAPPING(raw, where)) - set(table)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown, key=str)} in {where}")
    out = {}
    for key, (parse, default) in table.items():
        value = raw.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{where} needs {key}")
        out[key] = value if value is default else parse(value, f"{where}.{key}")
    return out


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    # PyYAML raises ValueError on a bad date or a 5,000-digit int, RecursionError on deep nesting
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed YAML in {path}: {' '.join(str(exc).split())}") from exc
    top = _fields(raw, _FIELDS["scenario"], "scenario")
    users = tuple(
        UserSpec(**_fields(u, _FIELDS["users"], f"users[{i}]")) for i, u in enumerate(top["users"])
    )
    allocations = {}
    for j, a in enumerate(top["allocations"] or ()):
        where = f"allocations[{j}]"
        a = _fields(a, _FIELDS["allocations"], where)
        if a["id"] in allocations:
            raise ConfigError(f"{where}: id {a['id']!r} is used twice")
        m = tuple(tuple(_LIST(row, f"{where}.m[{k}]")) for k, row in enumerate(a["m"]))
        try:
            alloc = BitAllocation(m=m, scheme_type=int(a["scheme"] or 1))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if alloc.users != len(users):
            raise ConfigError(f"{where}: m has {alloc.users} rows for {len(users)} users")
        allocations[a["id"]] = (a["id"], alloc, a["scheme"])
    return Scenario(
        users=users,
        allocations=tuple(allocations.values()),
        **_fields(top["estimator"] or {}, _FIELDS["estimator"], "estimator"),
        **_fields(top["flags"] or {}, _FIELDS["flags"], "flags"),
    )


def _scenario_allocations(scenario: Scenario, cfg: ChannelConfig):
    if scenario.allocations:
        return scenario.allocations
    allocs = enumerate_allocations(cfg, even_only=scenario.even_only)
    width = len(str(max(len(allocs) - 1, 0)))
    return [("alloc_" + str(i).zfill(width), a, None) for i, a in enumerate(allocs)]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _pack_table(values: dict, users: int) -> str:
    rows = []
    for k in range(users):
        rows.append(";".join(_fmt(values[(k, l)]) for l in range(k + 1)))
    return "|".join(rows)


def _benchmark_row(cfg: ChannelConfig, row_type: str, row_id: str, rates) -> str:
    """CSV row carrying only a rate tuple (canonical order) in the R_k columns."""
    rates = [_fmt(v) for v in cfg.to_original(list(rates))]
    return ",".join([row_type, row_id, "", ""] + rates + [""] * (2 * cfg.users + 2))


def _claim_output(path: str) -> bool:
    """Check that path can be written, leaving any existing bytes as they
    are; True when this call created the (empty) file."""
    created = not os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return created


def cmd_region(scenario: Scenario, out_path: str) -> int:
    cfg = scenario.channel()
    allocations = _scenario_allocations(scenario, cfg)
    created = _claim_output(out_path)
    try:
        results = rate_region_sweep(
            cfg, allocations, scenario.samples, scenario.seed, scenario.scheme_types
        )
    except BaseException:
        if created:
            os.remove(out_path)
        raise
    K = cfg.users
    lines = [
        f"# {CSV_SCHEMA}",
        f"# seed={scenario.seed} samples={scenario.samples} users={K} "
        f"scheme_types={scenario.scheme_types} even_only={scenario.even_only} "
        f"policy={scenario.selection_policy}",
    ]
    rate_cols = ",".join(f"R_{i + 1}" for i in range(K))
    mi_cols = ",".join(f"mi_{i + 1}" for i in range(K))
    disp_cols = ",".join(f"dispsum_{i + 1}" for i in range(K))
    lines.append(
        f"row_type,alloc_id,scheme,m,{rate_cols},{mi_cols},{disp_cols},zeta,mi_se"
    )
    for res in results:
        rates = cfg.to_original([r.rate for r in res.reports])
        mis = cfg.to_original([r.weighted_mi for r in res.reports])
        disps = cfg.to_original([r.dispersion_sum for r in res.reports])
        zeta = _pack_table(res.signaling.zeta, K)
        se = _pack_table(
            {(k, l): res.reports[k].stats[l].std_error for (k, l) in res.signaling.zeta},
            K,
        )
        m_txt = "|".join(";".join(str(v) for v in row) for row in res.alloc.m)
        lines.append(
            ",".join(
                ["scheme", res.alloc_id, res.scheme_label, m_txt]
                + [_fmt(v) for v in rates]
                + [_fmt(v) for v in mis]
                + [_fmt(v) for v in disps]
                + [zeta, se]
            )
        )
    if K == 2:
        region = gaussian_sic_region(cfg)
        for i, corner in enumerate(region.corner_points):
            lines.append(_benchmark_row(cfg, "benchmark_corner", f"corner_{i}", corner))
        for i, vertex in enumerate(region.hull_vertices):
            lines.append(_benchmark_row(cfg, "benchmark_hull", f"vertex_{i}", vertex))
    lines.append(_benchmark_row(cfg, "gaussian_tin", "tin", gaussian_tin_rates(cfg)))
    if scenario.selection_policy != "all":
        score = min if scenario.selection_policy == "max_min" else sum
        best = max(results, key=lambda r: (score(r.rates), r.alloc_id))
        lines.append(f"# selected alloc_id={best.alloc_id} scheme={best.scheme_label}")
    text = "\n".join(lines) + "\n"
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    print(f"wrote {len(results)} scheme rows to {out_path}")
    return EXIT_OK


def _feasibility_line(comp: detmac.ComponentFeasibility) -> str:
    mark = "ok" if comp.feasible else "INFEASIBLE"
    return (
        f"  component {comp.component + 1}, users {comp.first_user + 1}..: "
        f"load {comp.load} / capacity {comp.capacity} (slack {comp.slack}) {mark}"
    )


def cmd_det_verify(scenario: Scenario) -> int:
    cfg = scenario.channel()
    allocations = _scenario_allocations(scenario, cfg)
    status = EXIT_OK
    rng = random.Random(scenario.seed)
    # (component l, column) -> absent while no feasible table has held the column, None
    # while every feasible table that held it failed, its feasibility line once one passed:
    # feasible, and no VIOLATION under either scheme's identity or its first witness
    ledger: dict[tuple[int, tuple[int, ...]], str | None] = {}
    pairs = [(k, l) for k in range(cfg.users) for l in range(k + 1)]
    # the rates line, filled with one rate per (k, l) pair in row order
    rates_line = "  rates: " + ", ".join([f"I(user {k + 1}; block {l + 1})={{}}" for k, l in pairs])
    n = cfg.n
    for alloc_id, alloc, _ in allocations:
        keys = list(enumerate(alloc.columns))
        lines = [ledger.get(key) for key in keys]
        # a component's line, witness draws and identity rates depend on its column
        # alone, so with every column passed the full check would draw nothing and find
        # the rates equal to m, which runs row by row as pairs do
        rates = chain.from_iterable(alloc.m)
        if None in lines:
            comps = detmac.verify_region(n, alloc)
            lines = [_feasibility_line(comp) for comp in comps]
            if all(comp.feasible for comp in comps):
                expected = dict(zip(pairs, rates))
                # every full-rank witness gives the identity's rates (README), so one
                # random witness per scheme runs achieved_rates' block-packing path for
                # each column new to the ledger; a table that brings none is checked on
                # the identity alone
                new = [key for key in keys if key not in ledger]
                held = True
                for scheme_type in (1, 2):
                    witness = {
                        (k, l): detmac.random_full_rank(mk, rng)
                        for l, m_col in new for k, mk in enumerate(m_col, l)
                    }
                    for f_blocks in (None, witness) if witness else (None,):
                        got = detmac.achieved_rates(n, alloc, scheme_type, f_blocks)
                        if scheme_type == 1 and f_blocks is None:
                            rates = [got[kl] for kl in pairs]
                        if got != expected:
                            bad = {kl: r for kl, r in got.items() if r != expected.get(kl)}
                            lines.append(f"  scheme {scheme_type}: VIOLATION {bad}")
                            status = max(status, EXIT_VIOLATION)
                            held = False
                # a pass gives each column its line; a failure leaves a column's
                # entry as it was, None for a new one
                ledger.update(
                    (key, line if held else ledger.get(key)) for key, line in zip(keys, lines)
                )
            else:
                lines.append("  infeasible allocation, skipping rank identities")
                status = max(status, EXIT_INFEASIBLE)
                rates = None
        if rates is not None:
            lines.append(rates_line.format(*rates))
        # one write per allocation: a long run still streams its output
        sys.stdout.write("\n".join([f"allocation {alloc_id}: m={alloc.m}", *lines]) + "\n")
    if status == EXIT_OK:
        print("all rank identities hold")
    return status


def _find_alloc(
    scenario: Scenario, cfg: ChannelConfig, alloc_id: str, scheme_type: int | None
) -> BitAllocation:
    """The allocation named alloc_id, under scheme_type when one is given."""
    for aid, alloc, _ in _scenario_allocations(scenario, cfg):
        if aid == alloc_id:
            return alloc if scheme_type is None else replace(alloc, scheme_type=scheme_type)
    raise ConfigError(f"unknown allocation id {alloc_id!r}")


def cmd_codeparams(scenario: Scenario, alloc_id: str, scheme_type: int | None) -> int:
    cfg = scenario.channel()
    alloc = _find_alloc(scenario, cfg, alloc_id, scheme_type)
    pinned = [(alloc_id, alloc, str(alloc.scheme_type))]
    (result,) = rate_region_sweep(cfg, pinned, scenario.samples, scenario.seed)
    params = select_code_params(cfg, alloc, result.rates)
    print(f"allocation {alloc_id} scheme {alloc.scheme_type}")
    for k, (entry, report) in enumerate(zip(params, result.reports)):
        label = cfg.order[k] + 1
        note = "  (degenerate)" if entry.degenerate else ""
        print(
            f"user {label}: R={report.rate:.6g} b/sym, info_bits={entry.info_bits}, "
            f"codeword_bits={entry.codeword_bits}, code_rate={entry.rate:.6g}{note}"
        )
    return EXIT_OK


def cmd_constellation(
    scenario: Scenario, alloc_id: str, component: int, out_path: str, scheme_type: int | None
) -> int:
    cfg = scenario.channel()
    if not 1 <= component <= cfg.users:
        raise ConfigError(f"component must lie in 1..{cfg.users}")
    sig = build_scheme(cfg, _find_alloc(scenario, cfg, alloc_id, scheme_type))
    const = superimpose(sig, cfg, component - 1)
    try:
        write_constellation_csv(const, out_path)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    print(
        f"wrote {const.cardinality} points (dmin={const.dmin:.6g}) to {out_path}"
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hetmac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", help="rate-region sweep to CSV")
    region.add_argument("--scenario", required=True)
    region.add_argument("--out", required=True)
    region.add_argument("--samples", type=int)
    region.add_argument("--seed", type=int)
    region.add_argument("--workers", type=int, default=1)
    region.add_argument("--scheme", choices=["1", "2", "both"])

    verify = sub.add_parser("det-verify", help="rank identity checks")
    verify.add_argument("--scenario", required=True)

    code = sub.add_parser("codeparams", help="channel code parameters")
    code.add_argument("--scenario", required=True)
    code.add_argument("--alloc", required=True)
    code.add_argument("--scheme", type=int, choices=[1, 2], default=None)
    code.add_argument("--samples", type=int)
    code.add_argument("--seed", type=int)
    code.add_argument("--workers", type=int, default=1)

    const = sub.add_parser("constellation", help="superimposed point dump")
    const.add_argument("--scenario", required=True)
    const.add_argument("--alloc", required=True)
    const.add_argument("--component", type=int, required=True)
    const.add_argument("--out", required=True)
    const.add_argument("--scheme", type=int, choices=[1, 2], default=None)
    return parser


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    if getattr(args, "workers", 1) < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    if args.command != "det-verify" and not scenario.even_only:
        raise ConfigError(
            "flags.even_only: false is only valid for det-verify; "
            "QAM signaling needs even orders"
        )
    changes = {
        key: _FIELDS["estimator"][key][0](getattr(args, key), f"--{key}")
        for key in ("samples", "seed")
        if getattr(args, key, None) is not None
    }
    if args.command == "region" and args.scheme is not None:
        changes["scheme_types"] = args.scheme
    return replace(scenario, **changes)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = _apply_overrides(load_scenario(args.scenario), args)
        if args.command == "region":
            code = cmd_region(scenario, args.out)
        elif args.command == "det-verify":
            code = cmd_det_verify(scenario)
        elif args.command == "codeparams":
            code = cmd_codeparams(scenario, args.alloc, args.scheme)
        else:
            # the subparsers are required, so argparse has rejected any other command
            code = cmd_constellation(scenario, args.alloc, args.component, args.out, args.scheme)
        # a closed stdout fails here, not in the interpreter's flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: point its fd at devnull so that
        # flushing what is still buffered cannot raise again at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ConfigError, UnsupportedOrderError, EnumerationTooLargeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleAllocationError as exc:
        print(f"infeasible allocation: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConstellationTooLargeError, SamplesTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
