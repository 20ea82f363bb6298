"""Command-line front end: verify, solve, game, prob.

Every run is fully determined by its flags: seeds are explicit, randomness
is counter-mode, and report files carry no timestamps, so identical
invocations produce byte-identical outputs.

Exit codes: 0 success, 1 verification found violations, 2 invalid
parameters, descriptor or unwritable output file, 3 enumeration-guard refusal.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .errors import EnumerationGuardError, ParameterError, RatioLabError
from .game import (
    GAME_CSV_COLUMNS,
    game_report_row,
    run_game_decreasing,
    run_game_increasing,
    summarize_games,
    union_bound,
)
from .instances import derive_decreasing_params, instance_from_descriptor
from .optimize import OPT_CSV_COLUMNS, SEARCHES, make_algorithm, opt_result_row
# Not called here; kept as cli attributes that perfbench/tracing.py rebinds.
from .game import distinguish_probability  # noqa: F401
from .optimize import brute_force_min_ratio, local_search, random_search  # noqa: F401
from .oracles import CountingOracle, make_oracles
from .serialize import approx_str, frac_from_str, frac_to_str, write_csv, write_json
from .verify import (
    VIOLATION_CSV_COLUMNS,
    check_monotone,
    check_nonnegative,
    check_supermodular,
    violation_row,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every `main` call.

    Parsing leaves it unchanged, so callers must not mutate it either.
    """
    parser = argparse.ArgumentParser(
        prog="ratiolab",
        description="Adversarial instance laboratory for ratio-of-supermodular-functions optimization.",
    )
    parser.add_argument("--version", action="version", version=f"ratiolab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", choices=("decreasing", "increasing"), required=True)
        p.add_argument("--n", type=int, required=True, help="ground set size")
        p.add_argument("--alpha", type=int, help="decreasing family: plant cardinality")
        p.add_argument("--beta", type=int, help="decreasing family: criterion offset")
        p.add_argument("--m", help="increasing family: jump factor, rational p/q (default 1000000)")
        p.add_argument("--epsilon", default="1/100", help="rational p/q (default 1/100)")
        p.add_argument("--x", help="decreasing family: derive alpha, beta from growth parameter x")
        p.add_argument("--plant", help="comma-separated element indices of the hidden set")
        p.add_argument("--plant-seed", type=int, help="draw the hidden set from this seed")

    p_verify = sub.add_parser("verify", help="exhaustive structural checks at small n")
    add_instance_flags(p_verify)
    p_verify.add_argument("--out-csv", help="write supermodularity violations as CSV")

    units = "local: queries, two per ratio; random: sampled sets, two queries each; brute: unused (default n^3)"
    p_solve = sub.add_parser("solve", help="minimize f/g over nonempty subsets")
    add_instance_flags(p_solve)
    p_solve.add_argument("--method", choices=tuple(SEARCHES), default="brute")
    p_solve.add_argument("--budget", type=int, help=units)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out-csv", help="write the result row as CSV")

    p_game = sub.add_parser("game", help="run the planted indistinguishability game")
    add_instance_flags(p_game)
    p_game.add_argument("--method", choices=tuple(SEARCHES), default="random")
    p_game.add_argument("--budget", type=int, help="per trial; " + units)
    p_game.add_argument("--trials", type=int, default=100)
    p_game.add_argument("--seed", type=int, default=0)
    p_game.add_argument("--out-csv", help="write per-trial reports as CSV")
    p_game.add_argument("--out-json", help="write the aggregate summary as JSON")

    p_prob = sub.add_parser("prob", help="exact distinguishing probability / union bound")
    p_prob.add_argument("--n", type=int, required=True)
    p_prob.add_argument("--alpha", type=int, required=True)
    p_prob.add_argument("--beta", type=int, required=True)
    p_prob.add_argument(
        "--s", required=True,
        help="query cardinality; a comma-separated list yields the union bound",
    )
    return parser


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"{what} must be comma-separated integers, got {text!r}") from exc


def _descriptor_from_args(args) -> dict:
    desc: dict = {"family": args.family, "n": args.n, "epsilon": args.epsilon}
    if args.family == "decreasing":
        if args.m is not None:
            raise ParameterError("--m applies to the increasing family only")
        if args.x is not None:
            if args.alpha is not None or args.beta is not None:
                raise ParameterError("give either --x or --alpha/--beta, not both")
            alpha, beta = derive_decreasing_params(args.n, frac_from_str(args.x))
        else:
            alpha, beta = args.alpha, args.beta
            if alpha is None or beta is None:
                raise ParameterError("decreasing family needs --alpha and --beta (or --x)")
        desc["alpha"], desc["beta"] = alpha, beta
    else:
        if args.alpha is not None or args.beta is not None or args.x is not None:
            raise ParameterError("--alpha/--beta/--x apply to the decreasing family only")
        desc["m"] = args.m if args.m is not None else "1000000"
    if args.plant is not None and args.plant_seed is not None:
        raise ParameterError("give either --plant or --plant-seed, not both")
    if args.plant is not None:
        desc["plant"] = _parse_int_list(args.plant, "--plant")
    elif args.plant_seed is not None:
        desc["plant"] = {"seed": args.plant_seed}
    return desc


def _run_meta(args, desc: dict, **extra) -> dict:
    config = dict(desc)
    for key in ("method", "budget", "trials", "seed"):
        if hasattr(args, key):
            config[key] = getattr(args, key)
    meta = {"tool": f"ratiolab {__version__}", "command": args.command, "config": config}
    meta.update(extra)
    return meta


def cmd_verify(args) -> int:
    desc = _descriptor_from_args(args)
    inst = instance_from_descriptor(desc)
    direction = "nonincreasing" if args.family == "decreasing" else "nondecreasing"
    sides = ["f"]
    if args.family == "increasing" or inst.plant is not None:
        sides.append("g")
    all_supermodular_violations = []
    clean = True
    for side in sides:
        oracle = CountingOracle.for_instance(inst, side)
        sup = check_supermodular(oracle, inst.n)
        mono = check_monotone(oracle, inst.n, direction)
        neg = check_nonnegative(oracle, inst.n)
        all_supermodular_violations.extend(sup)
        clean = clean and not (sup or mono or neg)
        print(
            f"{side}: supermodular violations={len(sup)}, "
            f"monotone({direction}) violations={len(mono)}, "
            f"negative values={len(neg)}, queries={oracle.count}"
        )
    if args.out_csv:
        write_csv(
            args.out_csv,
            VIOLATION_CSV_COLUMNS,
            [violation_row(v) for v in all_supermodular_violations],
            _run_meta(args, desc, sides=",".join(sides)),
        )
    return 0 if clean else 1


def cmd_solve(args) -> int:
    desc = _descriptor_from_args(args)
    inst = instance_from_descriptor(desc)
    budget = args.budget if args.budget is not None else inst.n ** 3
    f_oracle, g_oracle = make_oracles(inst)
    result = SEARCHES[args.method](f_oracle, g_oracle, inst.n, budget, args.seed)
    print(
        f"method={result.method} family={inst.family} n={inst.n} "
        f"value={frac_to_str(result.value)} (approx {approx_str(result.value)}) "
        f"argset={result.argset.to_json()} mask={result.argset.hex_mask()} "
        f"queries={result.queries_used}"
    )
    if args.out_csv:
        write_csv(
            args.out_csv,
            OPT_CSV_COLUMNS,
            [opt_result_row(result, inst.n, inst.family, args.seed)],
            _run_meta(args, desc),
        )
    return 0


def cmd_game(args) -> int:
    desc = _descriptor_from_args(args)
    inst = instance_from_descriptor(desc)
    budget = args.budget if args.budget is not None else inst.n ** 3
    algorithm = make_algorithm(args.method, budget)
    if args.family == "decreasing":
        reports = run_game_decreasing(algorithm, inst, args.seed, args.trials)
    else:
        reports = run_game_increasing(algorithm, inst, args.seed, args.trials)
    summary = summarize_games(reports)
    summary["max_union_bound"] = frac_to_str(max(r.union_bound for r in reports))
    summary["min_ratio_approx"] = approx_str(frac_from_str(summary["min_ratio"]))
    summary["median_ratio_approx"] = approx_str(frac_from_str(summary["median_ratio"]))
    print(
        f"family={summary['family']} n={summary['n']} trials={summary['trials']} "
        f"distinguished={summary['distinguished_count']}/{summary['trials']} "
        f"min_ratio={summary['min_ratio']} (approx {summary['min_ratio_approx']}) "
        f"median_ratio={summary['median_ratio']}"
    )
    trial_seeds = [r.seed for r in reports]
    meta = _run_meta(args, desc, resolved_budget=budget, trial_seeds=trial_seeds)
    if args.out_csv:
        write_csv(args.out_csv, GAME_CSV_COLUMNS, [game_report_row(r) for r in reports], meta)
    if args.out_json:
        payload = dict(summary)
        payload["config"] = meta["config"]
        payload["resolved_budget"] = budget
        payload["tool"] = meta["tool"]
        payload["trial_seeds"] = trial_seeds
        write_json(args.out_json, payload)
    return 0


def cmd_prob(args) -> int:
    cardinalities = _parse_int_list(args.s, "--s")
    print(frac_to_str(union_bound(cardinalities, args.n, args.alpha, args.beta)))
    return 0


# Looked up by name at call time, so a rebound cli.cmd_* (perfbench/tracing.py) is the one that runs.
COMMANDS = {
    "verify": lambda args: cmd_verify(args),
    "solve": lambda args: cmd_solve(args),
    "game": lambda args: cmd_game(args),
    "prob": lambda args: cmd_prob(args),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except EnumerationGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RatioLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
