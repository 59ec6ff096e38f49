"""Command-line interface.

Subcommands: ``measures`` (single-state report), ``werner``
(quasi-Werner report), ``decohere`` (loss sweep to CSV/JSON),
``charfunc`` (characteristic-function evaluation) and ``verify``
(closed-form versus Fock-space cross-check battery).

Reports are JSON objects with snake_case keys on stdout.  Domain errors,
arithmetic faults (Python float overflow; numpy divide by zero,
overflow, invalid), failed sweep points, non-finite results and running
out of memory print a JSON error object on stderr and exit with code 2;
an unwritable sweep output path exits with code 3.  Data files carry no
timestamps and use fixed float formatting, so identical invocations
produce identical bytes.
"""

import argparse
import json
import re
import sys

DEFAULT_ETAS = (0.9, 0.7, 0.5, 0.3, 0.1)


def fmt_float(x):
    """12-significant-digit float for data files: positional notation
    down to 1e-12 magnitude, scientific below that."""
    import numpy as np

    x = float(x)
    if x == 0.0:
        return "0.000000000000"
    if abs(x) < 1e-12:
        return np.format_float_scientific(x, precision=11, unique=False)
    return np.format_float_positional(
        x, precision=12, unique=False, fractional=False, trim="k"
    )


def _emit(report):
    print(json.dumps(report, indent=2, allow_nan=False))


def _fail(message, code=2):
    print(json.dumps({"error": str(message)}), file=sys.stderr)
    raise SystemExit(code)


def cmd_measures(args):
    from . import coherent, measures, states

    if (args.kappa is None) == (args.alpha is None):
        _fail("provide exactly one of --kappa or --alpha")
    if args.alpha is None:
        state = states.QuasiBell(args.index, args.kappa)
        kappa = state.kappa
    else:
        state = coherent.CoherentQuasiBell(args.index, args.alpha)
        kappa = coherent.overlap_of_amplitude(args.alpha)
    report = {
        "index": args.index,
        "kappa": kappa,
        "normalization": state.normalization,
        "gram_off_diagonal": states.gram_off_diagonal(kappa),
        "spectrum": list(states.reduced_spectrum(state)),
        "entropy": states.entropy_of_entanglement(state),
        "concurrence": measures.concurrence_pure(states.embed_qubit(state)),
    }
    if args.alpha is not None:
        report["alpha"] = args.alpha
        report["mean_photon_a"], report["mean_photon_b"] = (
            coherent.mean_photon_numbers(state)
        )
    _emit(report)


def cmd_werner(args):
    from . import measures, werner

    spec = werner.QuasiWerner(args.fidelity, args.kappa)
    rho = werner.build_quasi_werner(spec)
    report = {
        "fidelity": spec.fidelity,
        "kappa": spec.kappa,
        "eigenvalues": list(werner.quasi_werner_spectrum(spec)),
        "entangled_fraction": spec.fidelity,
        "fully_entangled_fraction": measures.fully_entangled_fraction(rho),
        "eof_lower_bound": measures.eof_lower_bound(spec.fidelity),
        "eof_wootters": measures.eof_wootters(rho),
    }
    _emit(report)


def _sweep_rows(args):
    import numpy as np

    from . import decoherence, measures

    for option, value in (("alpha-min", args.alpha_min), ("alpha-max", args.alpha_max)):
        if not np.isfinite(value):
            raise ValueError(f"{option} must be finite, got {value}")
    if args.alpha_min <= 0.0:
        raise ValueError("alpha-min must be positive")
    if args.steps < 2:
        raise ValueError("need at least 2 sweep steps")
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.steps)
    try:
        points = decoherence.figure1_sweep(alphas, args.etas)
    except decoherence.SweepError as exc:
        _fail(exc)
    return [
        (p.alpha, p.eta, p.fraction, p.beta_star, measures.eof_lower_bound(p.fraction))
        for p in points
    ]


def cmd_decohere(args):
    rows = _sweep_rows(args)
    if args.format == "csv":
        lines = ["alpha,eta,f,beta_star,eof_lower_bound"]
        lines += [",".join(fmt_float(v) for v in row) for row in rows]
        payload = "\n".join(lines) + "\n"
    else:
        keys = ("alpha", "eta", "f", "beta_star", "eof_lower_bound")
        payload = json.dumps(
            {"points": [dict(zip(keys, map(float, row))) for row in rows]},
            indent=2, allow_nan=False,
        ) + "\n"
    if args.output == "-":
        sys.stdout.write(payload)
        return
    try:
        with open(args.output, "w", newline="") as handle:
            handle.write(payload)
    except OSError as exc:
        _fail(f"cannot write {args.output}: {exc}", code=3)


def cmd_charfunc(args):
    from . import coherent

    state = coherent.CoherentQuasiBell(args.index, args.alpha)
    point = coherent.CharFuncPoint(
        complex(args.zeta_a_re, args.zeta_a_im),
        complex(args.zeta_b_re, args.zeta_b_im),
    )
    value = coherent.characteristic_function(state, point)
    report = {
        "index": args.index,
        "alpha": args.alpha,
        "zeta_a": [point.zeta_a.real, point.zeta_a.imag],
        "zeta_b": [point.zeta_b.real, point.zeta_b.imag],
        "real": value.real,
        "imag": value.imag,
        "abs": abs(value),
    }
    if args.witness:
        report["gaussianity_residual"] = coherent.gaussianity_witness(state)
    _emit(report)


def cmd_verify(args):
    from . import verify

    results = verify.run_all(truncation=args.truncation)
    failed = [r for r in results if not r.passed]
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        print(
            f"{r.name}: max deviation = {r.deviation:.3e} "
            f"(tolerance {r.tolerance:.1e}) -> {flag}"
        )
    if failed:
        print(f"FAILED: {', '.join(r.name for r in failed)}", file=sys.stderr)
        raise SystemExit(1)
    print(f"all {len(results)} checks passed")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with negative numbers in scientific notation
    read as values.  argparse's own negative-number pattern has no
    exponent, so it takes a value such as -7.9e-05 for an option flag
    and exits with its usage text; this one also reads -inf and -nan,
    so every float option reaches its domain check.  Subparsers inherit
    the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )


def build_parser():
    parser = _Parser(
        prog="qbell",
        description="Quasi-Bell states: measures, mixtures, decoherence, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="report on a single quasi-Bell state")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--kappa", type=float, help="basis-state overlap in [0, 1)")
    group.add_argument("--alpha", type=float, help="coherent amplitude")
    p.add_argument("--index", type=int, required=True, choices=(1, 2, 3, 4))
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("werner", help="report on a quasi-Werner mixture")
    p.add_argument("--fidelity", "-F", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.set_defaults(func=cmd_werner)

    p = sub.add_parser("decohere", help="loss sweep over (alpha, eta)")
    p.add_argument("--alpha-min", type=float, default=0.05)
    p.add_argument("--alpha-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=60)
    p.add_argument("--etas", type=float, nargs="+", default=list(DEFAULT_ETAS))
    p.add_argument("--output", "-o", default="-", help="output path, '-' for stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_decohere)

    p = sub.add_parser("charfunc", help="two-mode characteristic function")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--index", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--zeta-a-re", type=float, default=0.0)
    p.add_argument("--zeta-a-im", type=float, default=0.0)
    p.add_argument("--zeta-b-re", type=float, default=0.0)
    p.add_argument("--zeta-b-im", type=float, default=0.0)
    p.add_argument("--witness", action="store_true",
                   help="include the non-Gaussianity fit residual")
    p.set_defaults(func=cmd_charfunc)

    p = sub.add_parser("verify", help="run the Fock-space cross-check battery")
    p.add_argument("--truncation", type=int, default=None,
                   help="override the truncation rule")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # numpy loads only once the arguments parse, so --help and usage
    # errors never pay for it; each subcommand imports its own modules
    import numpy as np

    try:
        # a numpy floating-point fault becomes a JSON error instead of a
        # RuntimeWarning on stderr; underflow to zero stays silent
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            args.func(args)
    except (ValueError, ArithmeticError) as exc:
        _fail(exc)
    except MemoryError as exc:
        _fail(f"out of memory: {exc}")


if __name__ == "__main__":
    main()
