"""Command-line driver: parse, differentiate, compile, run, grad, train, bench.

Exit codes: 0 success, 1 usage, 2 parse error, 3 semantic error,
4 numeric error.  JSON output is deterministic for fixed inputs and
seeds (sorted keys, repr floats), so runs can be diffed byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .ast import Register
from .autodiff import differentiate
from .benchmarks import CONTROLS, FAMILIES, SCALES, BenchSpec, bench_unit
from .casestudy import TrainConfig, build_model, train
from .compiler import compile_additive, resource_report
from .errors import NumericError, ParseError, QwadError, ValidationError
from .gradient import grad_all
from .linalg import (
    DensityOperator,
    Observable,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_matrix,
    check_sim_dim,
)
from .semantics import denote, embed_on, observable_semantics
from .syntax import SourceUnit, parse, print_source

_PAULIS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_unit(path: str) -> SourceUnit:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e}")
    return parse(text)


def _parse_theta(args, need_k: int) -> np.ndarray:
    if args.theta_file:
        with open(args.theta_file, encoding="utf-8") as fh:
            values = [float(tok) for tok in fh.read().split()]
    elif args.theta:
        values = [float(tok) for tok in args.theta.split(",")]
    else:
        values = []
    if len(values) < need_k:
        raise ValidationError(
            f"program declares {need_k} parameters, got {len(values)} values"
        )
    return np.asarray(values, dtype=float)


def _load_matrix_file(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)

    def entry(x):
        if isinstance(x, (list, tuple)):
            return complex(x[0], x[1])
        return complex(x)

    return as_matrix([[entry(x) for x in row] for row in raw])


def _parse_obs(spec: str, register: Register) -> Observable:
    kind, _, arg = spec.partition(":")
    if kind in _PAULIS:
        var = _find_var(register, arg or register.names[0])
        return Observable(embed_on(_PAULIS[kind], Register.of(var), register))
    if kind in ("proj0", "proj1"):
        var = _find_var(register, arg or register.names[-1])
        p = np.zeros((2, 2), complex)
        p[int(kind[-1]), int(kind[-1])] = 1.0
        return Observable(embed_on(p, Register.of(var), register))
    if kind == "file":
        return Observable(_load_matrix_file(arg))
    raise ValidationError(
        f"bad observable spec {spec!r} (want Z:q1, proj1:q4 or file:PATH)"
    )


def _find_var(register: Register, name: str):
    for v in register:
        if v.name == name:
            return v
    raise ValidationError(f"no declared variable named {name!r}")


def _parse_rho(spec: str, register: Register) -> DensityOperator:
    kind, _, arg = spec.partition(":")
    if kind == "basis":
        dims = register.dims
        if len(arg) == len(register) and all(c.isdigit() for c in arg):
            idx = 0
            for c, d in zip(arg, dims):
                if int(c) >= d:
                    raise ValidationError(f"digit {c} out of range for dim {d}")
                idx = idx * d + int(c)
        else:
            idx = int(arg)
        return DensityOperator.basis(register.dim, idx)
    if kind == "file":
        return DensityOperator(_load_matrix_file(arg))
    raise ValidationError(f"bad state spec {spec!r} (want basis:IDX or file:PATH)")


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands ------------------------------------------------------------------

def cmd_parse(args) -> int:
    unit = _read_unit(args.file)
    _emit(args, print_source(unit))
    return 0


def cmd_diff(args) -> int:
    unit = _read_unit(args.file)
    d = differentiate(unit.body, args.param, unit.k)
    out = SourceUnit(d.register, unit.k, d.transformed)
    _emit(args, print_source(out))
    return 0


def cmd_compile(args) -> int:
    unit = _read_unit(args.file)
    if args.param:
        d = differentiate(unit.body, args.param, unit.k)
        cm = compile_additive(d.transformed, d.register)
    else:
        cm = compile_additive(unit.body, unit.register)
    if len(cm.members) > 10000:
        print(
            f"warning: {len(cm.members)} compiled members", file=sys.stderr
        )
    _emit(args, cm.to_json() + "\n")
    return 0


def cmd_run(args) -> int:
    unit = _read_unit(args.file)
    reg = unit.register
    theta = _parse_theta(args, unit.k)
    rho = _parse_rho(args.rho, reg)
    if args.obs:
        o = _parse_obs(args.obs, reg)
        value = observable_semantics(unit.body, o, rho, theta, reg)
        doc = {"observable": args.obs, "value": value}
        _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0
    if not unit.is_plain:
        raise ValidationError(
            "running an additive program needs --obs (its output is a "
            "multiset; only read-outs are single-valued)"
        )
    out = denote(unit.body, theta, rho, reg)
    doc = {
        "trace": out.trace,
        "state": [[[z.real, z.imag] for z in row] for row in out.mat],
    }
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_grad(args) -> int:
    unit = _read_unit(args.file)
    reg = unit.register
    # refuse an oversized register before building its observable and
    # state: the sampler adds an ancilla qubit, the exact sweep does not
    check_sim_dim(2 * reg.dim if args.sampled else reg.dim)
    theta = _parse_theta(args, unit.k)
    o = _parse_obs(args.obs, reg)
    rho = _parse_rho(args.rho, reg)
    if not unit.is_plain:
        raise ValidationError("gradients are taken of plain programs")
    params = [args.param] if args.param else None
    report = grad_all(
        unit.body, theta, o, rho, reg,
        sampled=args.sampled, delta=args.delta, seed=args.seed,
        c=args.shot_constant, params=params,
    )
    _emit(args, report.to_json() + "\n")
    return 0


def cmd_train(args) -> int:
    model = build_model(args.model)
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
    result = train(model, cfg)
    _emit(args, result.to_csv())
    return 0


def cmd_bench(args) -> int:
    spec = BenchSpec(args.family, args.scale, args.control)
    unit = bench_unit(spec)
    if args.report_only:
        text = ""
    else:
        text = print_source(unit) + "\n"
    report = resource_report(unit.body)
    _emit(args, text + report.to_json() + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="qwad", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, file=True):
        if file:
            p.add_argument("file", help="program file (.qw)")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("parse", help="echo the normalized program")
    common(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("diff", help="print the derivative transform")
    p.add_argument("--param", type=int, required=True, help="1-based parameter index")
    common(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("compile", help="compile to a multiset of plain programs")
    p.add_argument("--param", type=int, help="differentiate first")
    common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="evaluate a program on an input state")
    p.add_argument("--theta", help="comma-separated parameter values")
    p.add_argument("--theta-file", help="whitespace-separated parameter file")
    p.add_argument("--rho", default="basis:0", help="basis:IDX, basis:BITS or file:PATH")
    p.add_argument("--obs", help="Z:q1, proj1:q4 or file:PATH")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grad", help="gradient of the read-out")
    p.add_argument("--param", type=int, help="single parameter (default: all)")
    p.add_argument("--theta", help="comma-separated parameter values")
    p.add_argument("--theta-file")
    p.add_argument("--rho", default="basis:0")
    p.add_argument("--obs", required=True)
    p.add_argument("--sampled", action="store_true", help="trajectory estimator")
    p.add_argument("--delta", type=float, default=0.05, help="target precision")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shot-constant", type=float, default=10.0,
                   help="c in ceil(c m^2/delta^2) trajectories")
    common(p)
    p.set_defaults(func=cmd_grad)

    p = sub.add_parser("train", help="train the 4-qubit classifier case study")
    p.add_argument("--model", choices=("p1", "p2"), required=True)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    common(p, file=False)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="generate a benchmark and its resources")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--scale", choices=SCALES, required=True)
    p.add_argument("--control", choices=CONTROLS, required=True)
    p.add_argument("--report-only", action="store_true")
    common(p, file=False)
    p.set_defaults(func=cmd_bench)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    except QwadError as e:  # pragma: no cover - catch-all for new kinds
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
