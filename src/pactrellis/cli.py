"""Command-line front end: encode, decode, simulate, latency, profile.

Exit codes: 0 on success, 2 on usage errors (bad flags, flag combinations or
input values, such as non-finite LLRs or SNR points), 3 on runtime failures
(I/O errors, a worker process that died).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import sim
from .decoder import _DECODER_NAMES, METRIC_MODES, DecoderConfig, decode
from .pac_core import PacCode, load_code_spec, parse_profile, rm_rate_profile
from .sc_engine import COMBINING_RULES
from .sorter import latency_report


class UsageError(ValueError):
    pass


def _add_code_flags(p: argparse.ArgumentParser) -> None:
    length = p.add_mutually_exclusive_group(required=True)
    length.add_argument("--code", metavar="FILE", help="code-spec file (keys: n, k, gen, profile)")
    length.add_argument("--n", type=int, help="log2 of the block length")
    length.add_argument("--N", type=int, dest="block_len", help="block length (power of two)")
    p.add_argument("--k", type=int, help="number of message bits")
    p.add_argument("--gen", help="generator polynomial, octal (default 0o133)")
    p.add_argument("--profile", help="'rm' or 'file:<path>' (default rm)")


def _resolve_code(args) -> PacCode:
    if args.code is not None:
        given = [f"--{key}" for key in ("k", "gen", "profile") if getattr(args, key) is not None]
        if given:
            raise UsageError(f"--code FILE sets the whole code; drop {', '.join(given)}")
        return load_code_spec(args.code)
    if args.block_len is not None:
        N = args.block_len
        if N < 1 or N & (N - 1):
            raise UsageError(f"--N must be a power of two, got {N}")
        n = N.bit_length() - 1
    else:
        n = args.n
    if args.k is None:
        raise UsageError("--k is required")
    gen = "0o133" if args.gen is None else args.gen
    profile = "rm" if args.profile is None else args.profile
    return PacCode(n=n, K=args.k, A=parse_profile(profile, n, args.k), g=gen)


def _add_decoder_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--decoder", choices=tuple(_DECODER_NAMES), default="sc",
                   help="decoder: sc, scl (--list L), va or lva (--list L per state); default sc")
    p.add_argument("--list", type=int, dest="list_size",
                   help="survivors kept for scl, or per state for lva")
    p.add_argument("--metric", choices=METRIC_MODES, default="approximate")
    p.add_argument("--combining", choices=COMBINING_RULES, default="min-sum")


def _resolve_decoder(args, code: PacCode) -> DecoderConfig:
    config = DecoderConfig.from_name(
        args.decoder, args.list_size, metric_mode=args.metric, combining_rule=args.combining
    )
    if config.sorting == "local" and code.m == 0:
        raise UsageError(
            f"--decoder {args.decoder} sorts per register state and needs a generator with "
            f"memory (gen {code.gen_octal} has m = 0); use --decoder sc or scl"
        )
    return config


def _parse_message(text: str, K: int) -> np.ndarray:
    text = text.strip()
    if text.lower().startswith("0x"):
        value = int(text, 16)
        if value >= 1 << K:
            raise UsageError(f"hex message {text} does not fit in {K} bits")
        bits = [(value >> (K - 1 - j)) & 1 for j in range(K)]
    else:
        if len(text) != K or set(text) - {"0", "1"}:
            raise UsageError(f"binary message must be exactly {K} bits of 0/1, got {text!r}")
        bits = [int(c) for c in text]
    return np.array(bits, dtype=np.int8)


def _bits(arr) -> str:
    return "".join(str(int(b)) for b in arr)


def _parse_snr(text: str):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"--snr range must be a:step:b, got {text!r}")
        a, step, b = (float(p) for p in parts)
        if step <= 0 or b < a:
            raise UsageError(f"--snr range must ascend with positive step, got {text!r}")
        count = int(round((b - a) / step)) + 1
        return tuple(round(a + i * step, 10) for i in range(count))
    return tuple(float(p) for p in text.split(","))


def _parse_int_list(text: str):
    return tuple(int(p) for p in text.split(","))


def cmd_encode(args) -> int:
    code = _resolve_code(args)
    d = _parse_message(args.message, code.K)
    from .pac_core import conv_transform, polar_transform, rate_profile_insert

    v = rate_profile_insert(d, code.A, code.N)
    u = conv_transform(v, code.g)
    x = polar_transform(u)
    if args.trace:
        print(f"v={_bits(v)}")
        print(f"u={_bits(u)}")
        print(f"x={_bits(x)}")
    else:
        print(_bits(x))
    return 0


def cmd_decode(args) -> int:
    code = _resolve_code(args)
    config = _resolve_decoder(args, code)
    if args.llr_file is not None:
        with open(args.llr_file) as fh:
            text = fh.read()
    else:
        text = args.llr
    llrs = np.array([float(tok) for tok in text.replace(",", " ").split()])
    result = decode(llrs, code, config)
    print(f"d={_bits(result.d_hat)}")
    print(f"metric={result.metric!r}")
    return 0


def cmd_simulate(args) -> int:
    code = _resolve_code(args)
    config = _resolve_decoder(args, code)
    plan = sim.SimPlan(
        code=code,
        decoder=config,
        snr_points=_parse_snr(args.snr),
        min_frame_errors=args.min_errors,
        max_trials=args.max_trials,
        master_seed=args.seed,
    )
    points = sim.run_sweep(plan, workers=args.workers)
    if args.out:
        sim.write_csv(args.out, plan, points)
    else:
        sys.stdout.write(sim.csv_text(plan, points))
    if args.json:
        sim.write_json(args.json, plan, points)
    return 0


def cmd_latency(args) -> int:
    rows = []
    for L in _parse_int_list(args.list_sizes):
        for m in _parse_int_list(args.memories):
            rows.append(latency_report(args.k, L, m))
    header = f"{'L':>6} {'m':>3} {'ell':>5} {'psi_ld':>7} {'psi_lva':>8} {'ld_total':>9} {'lva_total':>10} {'reduction':>10}"
    print(header)
    for r in rows:
        print(
            f"{r.list_size:>6} {r.m:>3} {r.per_state_list:>5} {r.ld_stages:>7} "
            f"{r.lva_stages:>8} {r.ld_stages_total:>9} {r.lva_stages_total:>10} "
            f"{r.reduction_pct:>9.1f}%"
        )
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write("L,m,ell,psi_ld,psi_lva,ld_total,lva_total,reduction_pct\n")
            for r in rows:
                fh.write(
                    f"{r.list_size},{r.m},{r.per_state_list},{r.ld_stages},{r.lva_stages},"
                    f"{r.ld_stages_total},{r.lva_stages_total},{r.reduction_pct!r}\n"
                )
    return 0


def cmd_profile(args) -> int:
    A = rm_rate_profile(args.n, args.k)
    print(" ".join(str(i) for i in A))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(str(i) for i in A) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pactrellis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a message to a codeword")
    _add_code_flags(p)
    p.add_argument("--message", required=True, help="message bits (binary string or 0xHEX)")
    p.add_argument("--trace", action="store_true", help="print the v, u, x stages")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a vector of channel LLRs")
    _add_code_flags(p)
    _add_decoder_flags(p)
    llrs = p.add_mutually_exclusive_group(required=True)
    llrs.add_argument("--llr", help="comma/space separated channel LLRs")
    llrs.add_argument("--llr-file", help="file of channel LLRs")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="Monte-Carlo FER/BER sweep")
    _add_code_flags(p)
    _add_decoder_flags(p)
    p.add_argument("--snr", required=True, help="Eb/N0 grid in dB: a:step:b or comma list")
    p.add_argument("--min-errors", type=int, default=100, help="frame errors per point")
    p.add_argument("--max-trials", type=int, default=100_000, help="trial cap per point")
    p.add_argument("--seed", type=int, default=1, help="master seed")
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.add_argument("--json", help="also write a JSON envelope here")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers (does not change results)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("latency", help="sorting-stage latency table")
    p.add_argument("--k", type=int, required=True, help="information bits per block")
    p.add_argument("--list", dest="list_sizes", required=True, help="survivor counts, comma list")
    p.add_argument("--m", dest="memories", required=True, help="memory orders, comma list")
    p.add_argument("--csv", help="also write machine-readable rows here")
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("profile", help="print or save a rate profile")
    p.add_argument("--n", type=int, required=True, help="log2 of the block length")
    p.add_argument("--k", type=int, required=True, help="number of message bits")
    p.add_argument("--out", help="write newline-separated indices here")
    p.set_defaults(func=cmd_profile)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        if isinstance(exc, RuntimeError):
            # a dead pool raises BrokenProcessPool; its base is imported only
            # here so that a serial run never loads the pool modules
            from concurrent.futures import BrokenExecutor

            if not isinstance(exc, BrokenExecutor):
                raise
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
