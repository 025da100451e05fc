"""Command-line interface.

Machine-readable reports go to stdout as line-delimited JSON (an infinite
float as the literal 1e999 or -1e999, NaN as null); human notes go to
stderr. Exit codes form a fixed protocol so shell harnesses need no
output parsing:

    0  success (checks passed / split found / balances closed)
    1  usage error or unreadable/malformed file
    2  a checked condition or balance failed
    3  no splitting found
    4  runtime model fault (gamma lost positivity, state left finite range)

Identical invocations on identical files produce byte-identical output:
direction sets are seeded (override with the CIPH_SEED environment
variable), and floats are written with full round-trip precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .dynamics import audit_balances, integrate
from .errors import CiphError
from .fileio import (
    load_directions,
    load_matrix,
    load_model,
    load_tensor,
    save_tensor,
    write_trajectory_csv,
)
from .brackets import product_tensor
from .splitter import SPLIT, split_tensor
from .tensor import (
    DEFAULT_TOL,
    DIRECTION_SEED,
    check_cyclic_b,
    check_psd_c,
    check_quasi_poisson,
    check_raw_iii,
    check_sym_a,
    default_directions,
    symmetrize_34,
)
from .verify import exhaustive_condition_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONDITION_FAIL = 2
EXIT_NO_SPLIT = 3
EXIT_MODEL_FAULT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI reserves 2 for
    failed checks, so usage errors are rerouted to exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _json(obj) -> str:
    """``json.dumps(obj)``, but valid JSON for non-finite floats: +-inf is
    written as the literal +-1e999 (which parses back to +-inf) and NaN as
    null, where json.dumps writes Infinity and NaN."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "null" if math.isnan(obj) else ("1e999" if obj > 0.0 else "-1e999")
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_json, obj)) + "]"
    return json.dumps(obj)


def _emit(obj) -> None:
    sys.stdout.write(_json(obj) + "\n")


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _direction_seed() -> int:
    raw = os.environ.get("CIPH_SEED")
    if raw is None:
        return DIRECTION_SEED
    try:
        seed = int(raw, 0)
    except ValueError:
        seed = None
    if seed is None or seed < 0:  # numpy takes no negative seed
        raise _UsageError(f"CIPH_SEED must be a nonnegative integer, got {raw!r}")
    return seed


def cmd_check(args) -> int:
    tensor = load_tensor(args.tensor)
    if args.directions == "standard":
        directions = default_directions(tensor.n, seed=_direction_seed())
    else:
        directions = load_directions(args.directions, tensor.n)
    reports = [
        check_sym_a(tensor, args.tol),
        check_cyclic_b(tensor, args.tol),
        check_raw_iii(tensor, args.tol),
        check_psd_c(tensor, directions, args.tol),
        check_quasi_poisson(tensor, args.tol),
    ]
    for report in reports:
        _emit(report.to_json())
    by_id = {r.condition_id: r.passed for r in reports}
    ok = by_id["SYM_A"] and by_id["CYCLIC_B"] and by_id["PSD_C"]
    _note(f"conservative-irreversible verdict: {'pass' if ok else 'fail'}")
    return EXIT_OK if ok else EXIT_CONDITION_FAIL


def cmd_symmetrize(args) -> int:
    tensor = load_tensor(args.tensor)
    save_tensor(symmetrize_34(tensor), args.output)
    _note(f"wrote symmetrized tensor to {args.output}")
    return EXIT_OK


def cmd_product(args) -> int:
    A = load_matrix(args.matrix_a)
    B = load_matrix(args.matrix_b)
    save_tensor(product_tensor(A, B), args.output)
    _note(f"wrote product tensor to {args.output}")
    return EXIT_OK


def cmd_split(args) -> int:
    tensor = load_tensor(args.tensor)
    result = split_tensor(tensor, args.tol)
    _emit(result.to_json())
    return EXIT_OK if result.status == SPLIT else EXIT_NO_SPLIT


def _parse_x0(raw: str, n: int):
    try:
        values = [float(v) for v in raw.split(",")]
    except ValueError:
        raise _UsageError(f"--x0 must be a comma-separated list of reals, got {raw!r}") from None
    if len(values) != n:
        raise _UsageError(f"--x0 has {len(values)} components, model expects {n}")
    if not all(math.isfinite(v) for v in values):
        raise _UsageError(f"--x0 must be finite, got {raw!r}")
    return values


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    x0 = _parse_x0(args.x0, model.n)
    trajectory = integrate(model, x0, t_end=args.t_end, dt=args.dt)
    write_trajectory_csv(model, trajectory, args.output)

    summary: dict = {
        "fault": trajectory.fault,
        "t_last": float(trajectory.times[-1]),
        "samples": len(trajectory),
    }
    if trajectory.fault is not None:
        _emit(summary)
        _note(f"model fault {trajectory.fault} at t = {float(trajectory.times[-1])!r}")
        return EXIT_MODEL_FAULT
    report = audit_balances(model, trajectory)
    summary.update(report.to_json())
    _emit(summary)
    _note(f"wrote trajectory to {args.output}")
    return EXIT_OK if report.passed else EXIT_CONDITION_FAIL


def cmd_oracle(args) -> int:
    tensor = load_tensor(args.tensor)
    primary = {
        "SYM_A": check_sym_a(tensor, args.tol).passed,
        "CYCLIC_B": check_cyclic_b(tensor, args.tol).passed,
        "RAW_III": check_raw_iii(tensor, args.tol).passed,
        "QUASI_POISSON": check_quasi_poisson(tensor, args.tol).passed,
    }
    oracle = exhaustive_condition_check(tensor, args.tol).as_dict()
    agree = primary == oracle
    _emit({"agree": agree, "primary": primary, "oracle": oracle})
    return EXIT_OK if agree else EXIT_CONDITION_FAIL


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> _Parser:
    parser = _Parser(
        prog="ciph",
        description="Check, factor, and simulate conservative-irreversible 4-tensors.",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{check,symmetrize,product,split,simulate}",
    )

    p = sub.add_parser("check", help="run all condition checks on a tensor file")
    p.add_argument("tensor", help="tensor JSON file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument(
        "--directions",
        default="standard",
        help="'standard' or a JSON file with a 'directions' list",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("symmetrize", help="symmetrize a tensor in its last two slots")
    p.add_argument("tensor")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("product", help="build the product tensor of two bracket matrices")
    p.add_argument("-A", dest="matrix_a", required=True, help="first matrix JSON file")
    p.add_argument("-B", dest="matrix_b", required=True, help="second matrix JSON file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("split", help="factor a tensor into gamma and a skew bracket")
    p.add_argument("tensor")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("simulate", help="integrate a model and audit its balances")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("-o", "--output", default="traj.csv")
    p.set_defaults(func=cmd_simulate)

    # Debugging aid; deliberately absent from the subcommand listing.
    p = sub.add_parser("oracle")
    p.add_argument("tensor")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, CiphError) as exc:  # FormatError is a CiphError
        _note(f"error: {exc}")
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
