"""Command-line diagnostics front end.

Subcommands: init, check, bench, flops, forward, dump-attn, stats-lambda.
Every command takes --config (JSON) and/or --preset plus field overrides;
overriding a preset-pinned dimension flips the config to 'custom'.  Commands
that need an input draw weights first, then tokens, from one seeded stream,
so a given config is byte-reproducible end to end (timing values aside).
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from .attention import AttentionStack, extract_attention_row, stack_forward
from .bench import BENCH_CSV_HEADER, BenchResourceError, bench_run
from .checks import format_results, run_checks
from .config import RunConfig, load_config, save_config, seeded_run
from .fileio import (
    fmt_cell,
    fmt_float,
    load_tokens_csv,
    save_weights_blob,
    write_csv,
    write_pgm,
    write_tokens_csv,
)
from .flops import IMPLEMENTATIONS, config_flops
from .numerics import ConfigError, ContractViolation, matmul_backend, require_finite
from .oracle import OracleCapError

__all__ = ["main"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", choices=("small", "base", "large", "custom"),
                   help="named preset (when no --config is given)")
    p.add_argument("--dim", type=int, help="model dim override (flips preset to custom)")
    p.add_argument("--heads", type=int, help="head count override")
    p.add_argument("--seed", type=int, help="seed override")
    p.add_argument("--precision", choices=("f32", "f64"), help="precision override")


def _load_cfg(args) -> RunConfig:
    if args.config:
        cfg = load_config(args.config)
        if args.preset and args.preset != cfg.preset:
            cfg = cfg.with_overrides(preset=args.preset)
    else:
        cfg = RunConfig.from_dict({"preset": args.preset or "small"})
    overrides = {}
    for name in ("dim", "heads", "seed", "precision"):
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    return cfg.with_overrides(**overrides) if overrides else cfg


def _emit_csv(path, header, rows) -> None:
    if path:
        write_csv(path, header, rows)
        print(f"wrote {path}")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(fmt_cell(c) for c in row))


def _seq_list(text: str) -> list:
    try:
        values = [int(t) for t in text.split(",") if t]
    except ValueError:
        raise ConfigError(f"--seq-len expects integers, got {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"--seq-len values must be >= 1, got {text!r}")
    return values


def _build_inputs(cfg: RunConfig, args):
    """``seeded_run`` over the single ``--seq-len`` or the rows of ``--input``,
    whose tokens then replace the seeded ones; both lie on one grid rule."""
    n = None
    if args.seq_len is not None:
        n = _seq_list(args.seq_len)
        if len(n) != 1:
            raise ConfigError("this command takes a single --seq-len")
        n = n[0]
    x = None
    if args.input:
        x = load_tokens_csv(args.input, cfg.precision)
        if x.shape[1] != cfg.dim:
            raise ContractViolation(
                f"input tokens are {x.shape[1]}-wide, config dim is {cfg.dim}"
            )
        if n is not None and n != x.shape[0]:
            raise ConfigError(f"--seq-len {n} but {args.input} holds {x.shape[0]} tokens")
        n = x.shape[0]
    cfg, stack, seeded = seeded_run(cfg, n)
    return cfg, stack, seeded if x is None else x


def _cmd_init(args) -> int:
    cfg = _load_cfg(args)
    save_config(cfg, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_check(args) -> int:
    cfg = _load_cfg(args)
    results = run_checks(cfg)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    n_list = _seq_list(args.seq_len)
    # the backend and the summaries go to stderr, so stdout stays a CSV
    print(f"matmul backend: {matmul_backend()}", file=sys.stderr)
    records = bench_run(cfg, args.impl, n_list, args.iters)
    for r in records:
        print(
            f"{r.impl} N={r.n} d={r.d} heads={r.heads}: "
            f"median {r.median_s:.6f}s mean {r.mean_s:.6f}s std {r.std_s:.6f}s "
            f"({r.flops} flops)",
            file=sys.stderr,
        )
    rows = [(r.impl, r.n, r.d, r.heads, r.mean_s, r.std_s, r.flops) for r in records]
    _emit_csv(args.out, BENCH_CSV_HEADER, rows)
    return 0


def _cmd_flops(args) -> int:
    cfg = _load_cfg(args)
    rows = []
    for n in _seq_list(args.seq_len):
        parts = config_flops(cfg, args.impl, n)
        rows.extend((args.impl, n, name, count) for name, count in parts.items())
    _emit_csv(args.out, ["impl", "N", "component", "flops"], rows)
    return 0


def _cmd_forward(args) -> int:
    cfg, stack, x = _build_inputs(_load_cfg(args), args)
    out, diags = stack_forward(x, stack)
    for b, diag in enumerate(diags):
        means = " ".join(f"mean_lambda_{k}={fmt_float(m)}" for k, m in diag.lambda_means().items())
        print(
            f"block {b}: proj_q_top={diag.routes_proj_q.most_frequent()} "
            f"proj_k_top={diag.routes_proj_k.most_frequent()} {means}"
        )
    print(f"output sha256 {hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()}")
    if args.out:
        write_tokens_csv(args.out, out)
        print(f"wrote {args.out}")
    if args.routes_out:
        route_rows = (
            (b, i, int(cq), int(ck))
            for b, diag in enumerate(diags)
            for i, (cq, ck) in enumerate(zip(diag.routes_proj_q.indices,
                                             diag.routes_proj_k.indices))
        )
        write_csv(args.routes_out,
                  ["block_index", "token_index", "proj_q_choice", "proj_k_choice"], route_rows)
        print(f"wrote {args.routes_out}")
    if args.save_weights:
        manifest = save_weights_blob(stack, args.save_weights)
        print(f"wrote {manifest}")
    return 0


def _cmd_dump_attn(args) -> int:
    cfg, stack, x = _build_inputs(_load_cfg(args), args)
    if not (0 <= args.block < stack.depth):
        raise ConfigError(f"--block {args.block} out of range for depth {stack.depth}")
    if args.block:
        x, _ = stack_forward(x, AttentionStack(stack.blocks[: args.block]))
    row = extract_attention_row(x, stack.blocks[args.block], args.query_index,
                                impl=args.impl, head=args.head)
    require_finite(row, f"block {args.block} attention row")
    csv_path, pgm_path = args.out + ".csv", args.out + ".pgm"
    write_csv(csv_path, ["token_index", "weight"], ((i, float(wt)) for i, wt in enumerate(row)))
    write_pgm(pgm_path, np.asarray(row, dtype=np.float64).reshape(cfg.grid_h, cfg.grid_w))
    print(f"wrote {csv_path} and {pgm_path}")
    return 0


def _cmd_stats_lambda(args) -> int:
    _, stack, x = _build_inputs(_load_cfg(args), args)
    _, diags = stack_forward(x, stack)
    means = [diag.lambda_means() for diag in diags]
    rows = [(b, *m.values()) for b, m in enumerate(means)]
    _emit_csv(args.out, ["block_index", *(f"mean_lambda_{k}" for k in means[0])], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dydila",
        description="dynamic differential linear attention diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="write a config file for a preset")
    _add_common(p)
    p.add_argument("--out", default="dydila.json", help="config path to write")
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("check", help="run the self-check suite")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bench", help="time forward passes over sequence lengths")
    _add_common(p)
    p.add_argument("--impl", required=True, choices=IMPLEMENTATIONS)
    p.add_argument("--seq-len", required=True, help="sequence length(s), comma separated")
    p.add_argument("--iters", type=int, default=5, help="timed iterations per cell (>= 3)")
    p.add_argument("--out", help="CSV path (default: print)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("flops", help="closed-form FLOP estimate")
    _add_common(p)
    p.add_argument("--impl", required=True, choices=IMPLEMENTATIONS)
    p.add_argument("--seq-len", required=True, help="sequence length(s), comma separated")
    p.add_argument("--out", help="CSV path (default: print)")
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("forward", help="run the residual stack on tokens")
    _add_common(p)
    p.add_argument("--seq-len", help="token count (default: grid area)")
    p.add_argument("--input", help="token CSV (default: seeded random tokens)")
    p.add_argument("--out", help="write output tokens CSV")
    p.add_argument("--routes-out", help="write per-block projector routes CSV")
    p.add_argument("--save-weights", metavar="BASE",
                   help="write BASE.bin weight blob + BASE.json manifest")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("dump-attn", help="export one query's attention row")
    _add_common(p)
    p.add_argument("--seq-len", help="token count (default: grid area)")
    p.add_argument("--input", help="token CSV (default: seeded random tokens)")
    p.add_argument("--block", type=int, default=0, help="block index")
    p.add_argument("--query-index", type=int, default=0)
    p.add_argument("--impl", default="dydila", choices=IMPLEMENTATIONS)
    p.add_argument("--head", type=int, default=0)
    p.add_argument("--out", required=True, metavar="BASE", help="writes BASE.csv and BASE.pgm")
    p.set_defaults(func=_cmd_dump_attn)

    p = sub.add_parser("stats-lambda", help="per-block mean routed lambda factors")
    _add_common(p)
    p.add_argument("--seq-len", help="token count (default: grid area)")
    p.add_argument("--input", help="token CSV (default: seeded random tokens)")
    p.add_argument("--out", help="CSV path (default: print)")
    p.set_defaults(func=_cmd_stats_lambda)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractViolation, OracleCapError, BenchResourceError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
