"""Command line front end.

Subcommands:
  region        evaluate allocations, write a CSV with rate pairs,
                benchmark corners/hull and Gaussian-TIN rates
  det-verify    run the rank/achievability identities on the scenario
  codeparams    derive (info bits, codeword bits) for one allocation
  constellation dump a superimposed receive constellation as CSV

Exit codes: 0 success, 2 invalid config, 3 infeasible allocation,
4 property violation.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from dataclasses import dataclass, field, replace

import yaml

from . import detmac
from .config import ChannelConfig, UserSpec
from .errors import (
    ConfigError,
    ConstellationTooLargeError,
    EnumerationTooLargeError,
    InfeasibleAllocationError,
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

_USER_KEYS = {"snr_db", "blocklength", "target_eps", "power", "gain"}
_ESTIMATOR_KEYS = {"samples", "seed"}
_FLAG_KEYS = {"even_only", "scheme_types", "selection_policy"}
_ALLOC_KEYS = {"id", "m", "scheme"}
_TOP_KEYS = {"users", "estimator", "flags", "allocations"}


@dataclass
class Scenario:
    users: list[UserSpec]
    samples: int = 200_000
    seed: int = 0
    even_only: bool = True
    scheme_types: str = "both"
    selection_policy: str = "all"
    # (id, allocation, pinned scheme label or None)
    allocations: list[tuple[str, BitAllocation, str | None]] = field(default_factory=list)

    def channel(self) -> ChannelConfig:
        return ChannelConfig.from_users(self.users)


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown, key=str)} in {where}")


def _mapping(raw, where: str) -> dict:
    """An optional section: absent or empty means {}, anything else must be a mapping."""
    if not raw:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping")
    return raw


def _number(raw, where: str, kind: type = float):
    """raw converted by kind (int or float); anything else, infinities and
    fractions where an int is wanted are config errors."""
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or not math.isfinite(value) or isinstance(raw, float) and value != raw:
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{where} must be {noun}, got {raw!r}")
    return value


def _optional_number(raw, where: str):
    return None if raw is None else _number(raw, where)


def _parse_gain(raw, where: str):
    if raw is None:
        return None
    if isinstance(raw, (int, float)):
        return _number(raw, where)
    if isinstance(raw, list) and len(raw) == 2:
        return complex(_number(raw[0], where), _number(raw[1], where))
    raise ConfigError(f"{where} must be a number or a [re, im] pair")


def _checked_samples(raw, where: str) -> int:
    samples = _number(raw, where, int)
    if samples < MIN_SAMPLES:
        raise ConfigError(f"{where} must be at least {MIN_SAMPLES}, got {samples}")
    return samples


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {' '.join(str(exc).split())}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must hold a mapping")
    _reject_unknown(raw, _TOP_KEYS, "scenario")
    users_raw = raw.get("users")
    if not isinstance(users_raw, list) or not users_raw:
        raise ConfigError("scenario needs a non-empty 'users' list")
    users = []
    for i, u in enumerate(users_raw):
        if not isinstance(u, dict):
            raise ConfigError(f"users[{i}] must be a mapping")
        _reject_unknown(u, _USER_KEYS, f"users[{i}]")
        if "blocklength" not in u or "target_eps" not in u:
            raise ConfigError(f"users[{i}] needs blocklength and target_eps")
        users.append(
            UserSpec(
                snr_db=_optional_number(u.get("snr_db"), f"users[{i}].snr_db"),
                blocklength=_number(u["blocklength"], f"users[{i}].blocklength", int),
                target_eps=_number(u["target_eps"], f"users[{i}].target_eps"),
                power=_optional_number(u.get("power"), f"users[{i}].power"),
                gain=_parse_gain(u.get("gain"), f"users[{i}].gain"),
            )
        )
    scenario = Scenario(users=users)
    est = _mapping(raw.get("estimator"), "estimator")
    if est:
        _reject_unknown(est, _ESTIMATOR_KEYS, "estimator")
        scenario.samples = _checked_samples(est.get("samples", scenario.samples), "estimator.samples")
        scenario.seed = _number(est.get("seed", scenario.seed), "estimator.seed", int)
    flags = _mapping(raw.get("flags"), "flags")
    if flags:
        _reject_unknown(flags, _FLAG_KEYS, "flags")
        scenario.even_only = flags.get("even_only", True)
        if not isinstance(scenario.even_only, bool):
            raise ConfigError(f"flags.even_only must be true or false, got {scenario.even_only!r}")
        scenario.scheme_types = str(flags.get("scheme_types", "both"))
        scenario.selection_policy = str(flags.get("selection_policy", "all"))
        if scenario.scheme_types not in ("1", "2", "both"):
            raise ConfigError("scheme_types must be 1, 2 or both")
        if scenario.selection_policy not in ("all", "max_min", "sum_rate"):
            raise ConfigError("selection_policy must be all, max_min or sum_rate")
    allocations = raw.get("allocations") or []
    if not isinstance(allocations, list):
        raise ConfigError("allocations must be a list")
    for j, a in enumerate(allocations):
        if not isinstance(a, dict):
            raise ConfigError(f"allocations[{j}] must be a mapping")
        _reject_unknown(a, _ALLOC_KEYS, f"allocations[{j}]")
        if "id" not in a or "m" not in a:
            raise ConfigError(f"allocations[{j}] needs id and m")
        pinned = a.get("scheme")
        if pinned is not None and str(pinned) not in ("1", "2"):
            raise ConfigError(f"allocations[{j}]: scheme must be 1 or 2")
        try:
            alloc = BitAllocation(
                m=tuple(tuple(row) for row in a["m"]),
                scheme_type=int(pinned) if pinned is not None else 1,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"allocations[{j}]: {exc}") from exc
        if alloc.users != len(users):
            raise ConfigError(
                f"allocations[{j}]: m has {alloc.users} rows for {len(users)} users"
            )
        scenario.allocations.append(
            (str(a["id"]), alloc, str(pinned) if pinned is not None else None)
        )
    return scenario


def _scenario_allocations(scenario: Scenario, cfg: ChannelConfig):
    if scenario.allocations:
        return scenario.allocations
    allocs = enumerate_allocations(cfg, even_only=scenario.even_only)
    width = len(str(max(len(allocs) - 1, 0)))
    return [(f"alloc_{i:0{width}d}", a, None) for i, a in enumerate(allocs)]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


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


def cmd_region(scenario: Scenario, out_path: str, workers: int = 1) -> int:
    cfg = scenario.channel()
    allocations = _scenario_allocations(scenario, cfg)
    created = _claim_output(out_path)
    try:
        results = rate_region_sweep(
            cfg, allocations, scenario.samples, scenario.seed, scenario.scheme_types, workers
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


def cmd_det_verify(scenario: Scenario, trials: int = 3) -> int:
    cfg = scenario.channel()
    allocations = _scenario_allocations(scenario, cfg)
    status = EXIT_OK
    for alloc_id, alloc, _ in allocations:
        det = detmac.DetConfig(n=cfg.n, m=alloc.m)
        print(f"allocation {alloc_id}: m={alloc.m}")
        comps = detmac.verify_region(det)
        for comp in comps:
            mark = "ok" if comp.feasible else "INFEASIBLE"
            print(
                f"  component {comp.component + 1}, users {comp.first_user + 1}..: "
                f"load {comp.load} / capacity {comp.capacity} (slack {comp.slack}) {mark}"
            )
        if not all(comp.feasible for comp in comps):
            print("  infeasible allocation, skipping rank identities")
            status = max(status, EXIT_INFEASIBLE)
            continue
        rng = random.Random(scenario.seed)
        for scheme_type in (1, 2):
            witnesses = [None] + [
                {
                    (k, l): detmac.random_full_rank(det.m[k][l], rng)
                    for l in range(det.users)
                    for k in range(l, det.users)
                }
                for _ in range(trials)
            ]
            for f_blocks in witnesses:
                rates = detmac.achieved_rates(det, scheme_type, f_blocks)
                if scheme_type == 1 and f_blocks is None:
                    identity_rates = rates
                bad = {kl: r for kl, r in rates.items() if r != det.m[kl[0]][kl[1]]}
                if bad:
                    print(f"  scheme {scheme_type}: VIOLATION {bad}")
                    status = max(status, EXIT_VIOLATION)
        summary = ", ".join(
            f"I(user {k + 1}; block {l + 1})={r}"
            for (k, l), r in sorted(identity_rates.items())
        )
        print(f"  rates: {summary}")
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


def cmd_codeparams(
    scenario: Scenario, alloc_id: str, scheme_type: int | None, workers: int = 1
) -> int:
    cfg = scenario.channel()
    alloc = _find_alloc(scenario, cfg, alloc_id, scheme_type)
    pinned = [(alloc_id, alloc, str(alloc.scheme_type))]
    (result,) = rate_region_sweep(cfg, pinned, scenario.samples, scenario.seed, workers=workers)
    params = select_code_params(cfg, alloc, result.rates)
    print(f"allocation {alloc_id} scheme {alloc.scheme_type}")
    for entry, report in zip(params.entries, result.reports):
        label = cfg.order[entry.user] + 1
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
    sig = build_scheme(cfg, _find_alloc(scenario, cfg, alloc_id, scheme_type))
    if not 1 <= component <= cfg.users:
        raise ConfigError(f"component must lie in 1..{cfg.users}")
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


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> None:
    if getattr(args, "workers", 1) < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    if getattr(args, "samples", None) is not None:
        scenario.samples = _checked_samples(args.samples, "--samples")
    if getattr(args, "seed", None) is not None:
        scenario.seed = args.seed
    if args.command != "det-verify" and not scenario.even_only:
        raise ConfigError(
            "flags.even_only: false is only valid for det-verify; "
            "QAM signaling needs even orders"
        )
    scheme = getattr(args, "scheme", None)
    if args.command == "region" and scheme is not None:
        scenario.scheme_types = scheme


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        _apply_overrides(scenario, args)
        if args.command == "region":
            return cmd_region(scenario, args.out, workers=args.workers)
        if args.command == "det-verify":
            return cmd_det_verify(scenario)
        if args.command == "codeparams":
            return cmd_codeparams(scenario, args.alloc, args.scheme, args.workers)
        if args.command == "constellation":
            return cmd_constellation(
                scenario, args.alloc, args.component, args.out, args.scheme
            )
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, UnsupportedOrderError, EnumerationTooLargeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleAllocationError as exc:
        print(f"infeasible allocation: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConstellationTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
