"""Command-line front end.

Exit codes: 0 success, 1 verification found a mismatch, 2 bad usage or
unparseable input, 3 a domain error (valid syntax, invalid value).
BGRANK_THREADS caps the worker pool used by `verify`; output order is
always the deterministic grid order.
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from .bijections import (
    ParameterBox,
    map_strict,
    minimal_box,
    minimal_box_for_image,
    rank_from_triangular,
    unmap_strict,
)
from .cover import double_cover
from .enumeration import EnumSpec, count_partitions, enumerate_partitions
from .errors import DomainError, ParseError, RankMismatch
from .partitions import (
    bg_rank,
    bg_rank_residue,
    characteristic,
    conjugate,
    format_partition,
    parse_partition,
    shifted_column_profile,
)
from .qseries import (
    all_bgrank_gf,
    gaussian_binomial,
    inv_pochhammer,
    neg_q_pochhammer,
    strict_bgrank_gf,
    substitute_power,
    verify_eq1,
    verify_eq2,
    verify_eq3,
    verify_eq51,
    verify_eq52,
    verify_eq53,
)
from .render import render_blocks, render_residue, render_shifted, render_young
from .selftest import run_all
from .sequences import split_point

IDENTITIES = ("eq1", "eq2", "eq3", "eq51", "eq52", "eq53", "theorem31", "roundtrip")


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"{where}: {text!r} is not an integer") from exc


def _parse_range(text: str) -> list[int]:
    """'0..5' or '0,1' or '-2..3' or single numbers; commas combine."""
    where = f"range {text!r}"
    values = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo, hi = token.split("..", 1)
            values.extend(range(_parse_int(lo, where), _parse_int(hi, where) + 1))
        elif token:
            values.append(_parse_int(token, where))
    if not values:
        raise ParseError(f"empty range: {text!r}")
    return values


def _parse_box(text: str, k: int) -> ParameterBox:
    try:
        n_text, nu_text = text.split(",", 1)
        return ParameterBox(int(n_text), int(nu_text), k)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"--box expects 'N,nu', got {text!r}") from exc


def _json_record(cmd, input_text, **fields) -> dict:
    record = {
        "cmd": cmd,
        "input": input_text,
        "k": None,
        "t": None,
        "delta": None,
        "image": None,
        "bounds": None,
        "ok": True,
        "mismatch": None,
        "ms": 0.0,
    }
    record.update(fields)
    return record


def _emit(record: dict, out):
    print(json.dumps(record), file=out)


def _workers() -> int:
    raw = os.environ.get("BGRANK_THREADS", "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def _grid_map(fn, items):
    """Apply fn over items, possibly with a thread pool, preserving order."""
    workers = _workers()
    if workers == 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def cmd_map(args, out) -> int:
    started = time.perf_counter()
    d = parse_partition(args.partition, strict=True)
    box = None
    if args.box is not None:
        box = _parse_box(args.box, bg_rank(d))
    pair = map_strict(d, box, conjugate_positive=not args.no_conjugate)
    box = box or minimal_box(pair.k, d.largest)
    bound_l, bound_m = box.bounds(pair.conjugated)
    result = split_point(shifted_column_profile(d), d.length)
    cover = double_cover(result.tail.a, result.tail.entries) if result.tail else None
    ms = (time.perf_counter() - started) * 1000.0
    if args.json:
        _emit(
            _json_record(
                "map",
                args.partition,
                k=pair.k,
                t=pair.triangular,
                delta=list(result.tail.entries),
                image=format_partition(pair.image),
                bounds={"L": bound_l, "M": bound_m},
                ms=ms,
            ),
            out,
        )
        return 0
    print(f"input      = {format_partition(d)}", file=out)
    print(f"n          = {d.size}", file=out)
    print(f"k          = {pair.k}", file=out)
    print(f"m          = {pair.m}", file=out)
    print(f"t          = {pair.triangular}", file=out)
    print(f"a          = {'-' if pair.a_seq is None else pair.a_seq}", file=out)
    print(f"delta      = {result.tail}", file=out)
    print(f"b          = {','.join(str(x) for x in cover.covered) if cover else ''}", file=out)
    print(f"image      = {format_partition(pair.image)}", file=out)
    print(f"conjugated = {'yes' if pair.conjugated else 'no'}", file=out)
    print(f"box        = N={box.N} nu={box.nu} (parts of input <= {box.strict_largest_bound})", file=out)
    print(f"bounds     = largest<={bound_l} parts<={bound_m}", file=out)
    return 0


def cmd_unmap(args, out) -> int:
    started = time.perf_counter()
    image = parse_partition(args.partition)
    t = args.t
    k = rank_from_triangular(t)
    box = None
    if args.box is not None:
        box = _parse_box(args.box, k)
    conjugated = not args.no_conjugate
    d = unmap_strict(t, image, box, conjugated=conjugated)
    if box is None:
        working = conjugate(image) if (k > 0 and conjugated) else image
        box = minimal_box_for_image(k, working)
    result = split_point(shifted_column_profile(d), d.length)
    ms = (time.perf_counter() - started) * 1000.0
    if args.json:
        _emit(
            _json_record(
                "unmap",
                f"{t} {args.partition}",
                k=k,
                t=t,
                delta=list(result.tail.entries),
                image=format_partition(d),
                bounds={"L": box.bounds()[0], "M": box.bounds()[1]},
                ms=ms,
            ),
            out,
        )
        return 0
    print(f"t          = {t}", file=out)
    print(f"image      = {format_partition(image)}", file=out)
    print(f"k          = {k}", file=out)
    print(f"N          = {box.N}", file=out)
    print(f"nu         = {box.nu}", file=out)
    print(f"n          = {d.size}", file=out)
    print(f"delta      = {result.tail}", file=out)
    print(f"partition  = {format_partition(d)}", file=out)
    return 0


def cmd_rank(args, out) -> int:
    started = time.perf_counter()
    p = parse_partition(args.partition)
    counts, rank = bg_rank_residue(p)
    by_index = bg_rank(p)
    if rank != by_index:
        raise RankMismatch(f"residue count gives BG-rank {rank}, part indices give {by_index}")
    ms = (time.perf_counter() - started) * 1000.0
    if args.json:
        _emit(_json_record("rank", args.partition, k=rank, ms=ms), out)
        return 0
    print(f"input          = {format_partition(p)}", file=out)
    print(f"bg-rank        = {rank}", file=out)
    print(f"r0             = {counts.r0}", file=out)
    print(f"r1             = {counts.r1}", file=out)
    print(f"characteristic = {characteristic(p)}", file=out)
    return 0


def cmd_gf(args, out) -> int:
    if args.kind == "strict":
        poly = strict_bgrank_gf(args.max_part, args.k)
    elif args.kind == "all":
        poly = all_bgrank_gf(args.max_part, args.k, args.degree)
    elif args.kind == "gaussian":
        poly = substitute_power(gaussian_binomial(args.m, args.n), args.base)
    elif args.kind == "negpoch":
        poly = neg_q_pochhammer(args.count)
    else:  # invpoch
        factors = None if args.factors == "inf" else _parse_int(args.factors, "--factors")
        poly = inv_pochhammer(args.base, factors, args.degree)
    if args.json:
        _emit(poly.to_json_dict(), out)
    else:
        print(poly, file=out)
    return 0


def _verify_grid(args):
    """Build (callable, label) tuples for the requested identity, grid order."""
    n_values = _parse_range(args.N) if args.N is not None else list(range(0, 6))
    nu_values = _parse_range(args.nu) if args.nu is not None else [0, 1]
    degree = args.degree
    tasks = []
    if args.identity == "eq1":
        for n_cap in n_values:
            for nu in nu_values:
                ks = _parse_range(args.k) if args.k is not None else list(range(-n_cap - 1, n_cap + nu + 2))
                for k in ks:
                    tasks.append(lambda n_cap=n_cap, nu=nu, k=k: verify_eq1(n_cap, nu, k))
    elif args.identity == "eq2":
        ks = _parse_range(args.k) if args.k is not None else list(range(-3, 4))
        for k in ks:
            tasks.append(lambda k=k: verify_eq2(k, degree))
    elif args.identity == "eq3":
        tasks.append(lambda: verify_eq3(degree))
    elif args.identity == "eq51":
        for n_cap in n_values:
            for nu in nu_values:
                ks = _parse_range(args.k) if args.k is not None else list(range(-3, 4))
                for k in ks:
                    tasks.append(lambda n_cap=n_cap, nu=nu, k=k: verify_eq51(n_cap, nu, k, degree))
    elif args.identity == "eq52":
        for n_cap in n_values:
            for nu in nu_values:
                tasks.append(lambda n_cap=n_cap, nu=nu: verify_eq52(n_cap, nu))
    else:  # eq53
        for n_cap in n_values:
            for nu in nu_values:
                tasks.append(lambda n_cap=n_cap, nu=nu: verify_eq53(n_cap, nu, degree))
    return tasks


def _verify_theorem31(args, out) -> int:
    n_values = _parse_range(args.N) if args.N is not None else list(range(0, 7))
    nu_values = _parse_range(args.nu) if args.nu is not None else [0, 1]
    k_values = _parse_range(args.k) if args.k is not None else list(range(-4, 5))
    grid = [
        (n, n_cap, nu, k)
        for n in range(args.n_max + 1)
        for n_cap in n_values
        for nu in nu_values
        for k in k_values
    ]

    def check(item):
        n, n_cap, nu, k = item
        started = time.perf_counter()
        strict_count = count_partitions(EnumSpec(n, max_part=2 * n_cap + nu, strict=True, rank=k))
        doubled = n - 2 * k * k + k
        bound_l, bound_m = n_cap + nu - k, n_cap + k
        if doubled < 0 or doubled % 2 == 1 or bound_l < 0 or bound_m < 0:
            box_count = 0
        else:
            box_count = count_partitions(EnumSpec(doubled // 2, max_part=bound_l, max_len=bound_m))
        ms = (time.perf_counter() - started) * 1000.0
        return item, strict_count, box_count, ms

    failures = 0
    for item, strict_count, box_count, ms in _grid_map(check, grid):
        n, n_cap, nu, k = item
        label = f"theorem31 n={n} N={n_cap} nu={nu} k={k}"
        ok = strict_count == box_count
        if not ok:
            failures += 1
        if args.json:
            _emit(
                _json_record(
                    "verify",
                    label,
                    k=k,
                    ok=ok,
                    mismatch=None if ok else {"lhs": str(strict_count), "rhs": str(box_count)},
                    ms=ms,
                ),
                out,
            )
        elif not ok:
            print(f"{label}: MISMATCH ({strict_count} != {box_count})", file=out)
        else:
            print(f"{label}: equal ({strict_count})", file=out)
    return 1 if failures else 0


def _verify_roundtrip(args, out) -> int:
    failures = 0
    for n in range(args.n_max + 1):
        started = time.perf_counter()
        checked = 0
        bad = None
        for d in enumerate_partitions(EnumSpec(n, strict=True)):
            checked += 1
            k = bg_rank(d)
            box = minimal_box(k, d.largest)
            for conj in (True, False):
                pair = map_strict(d, box, conjugate_positive=conj)
                back = unmap_strict(pair.triangular, pair.image, box, conjugated=pair.conjugated)
                if back != d or d.size != pair.triangular + 2 * pair.image.size:
                    bad = format_partition(d)
                    break
            if bad:
                break
        ms = (time.perf_counter() - started) * 1000.0
        ok = bad is None
        if not ok:
            failures += 1
        label = f"roundtrip n={n}"
        if args.json:
            _emit(
                _json_record(
                    "verify",
                    label,
                    ok=ok,
                    mismatch=None if ok else {"partition": bad},
                    ms=ms,
                ),
                out,
            )
        else:
            status = f"{checked} partitions ok" if ok else f"FAILED on {bad}"
            print(f"{label}: {status}", file=out)
    return 1 if failures else 0


def cmd_verify(args, out) -> int:
    if args.identity == "theorem31":
        return _verify_theorem31(args, out)
    if args.identity == "roundtrip":
        return _verify_roundtrip(args, out)
    tasks = _verify_grid(args)
    reports = _grid_map(lambda task: task(), tasks)
    failures = 0
    for report in reports:
        if not report.equal:
            failures += 1
        if args.json:
            record = _json_record(
                "verify",
                report.identity + "".join(f" {k}={v}" for k, v in report.params.items()),
                k=report.params.get("k"),
                ok=report.equal,
                mismatch=report.to_json_dict()["mismatch"],
                ms=report.ms,
            )
            _emit(record, out)
        else:
            print(report.describe(), file=out)
    return 1 if failures else 0


def cmd_render(args, out) -> int:
    if args.kind in ("shifted", "blocks"):
        p = parse_partition(args.partition, strict=True)
        text = render_shifted(p) if args.kind == "shifted" else render_blocks(p)
    else:
        p = parse_partition(args.partition)
        text = render_young(p) if args.kind == "young" else render_residue(p)
    print(text, file=out)
    return 0


def cmd_selftest(args, out) -> int:
    results = run_all(quick=args.quick)
    if args.json:
        for r in results:
            _emit(
                _json_record(
                    "selftest",
                    f"criterion {r.number}",
                    ok=r.ok,
                    mismatch=None if r.ok else {"detail": r.detail},
                    ms=r.seconds * 1000.0,
                ),
                out,
            )
    else:
        for r in results:
            print(r.line(), file=out)
        passed = sum(1 for r in results if r.ok)
        print(f"{passed}/{len(results)} criteria passed", file=out)
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgrank",
        description="Exact partition bijections by BG-rank and q-series identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="map a strict partition to (t, image)")
    p_map.add_argument("partition", help="comma-separated parts, largest first; '' is empty")
    p_map.add_argument("--box", help="parameters as 'N,nu'; default is the minimal box")
    p_map.add_argument("--no-conjugate", action="store_true", help="keep positive-rank images un-conjugated")
    p_map.add_argument("--json", action="store_true")

    p_unmap = sub.add_parser("unmap", help="recover the strict partition from (t, image)")
    p_unmap.add_argument("t", type=int, help="triangular weight")
    p_unmap.add_argument("partition", help="image partition text")
    p_unmap.add_argument("--box", help="parameters as 'N,nu'")
    p_unmap.add_argument("--no-conjugate", action="store_true", help="image is un-conjugated")
    p_unmap.add_argument("--json", action="store_true")

    p_rank = sub.add_parser("rank", help="BG-rank and residue counts of a partition")
    p_rank.add_argument("partition")
    p_rank.add_argument("--json", action="store_true")

    p_gf = sub.add_parser("gf", help="print a generating function")
    p_gf.add_argument("kind", choices=("strict", "all", "gaussian", "negpoch", "invpoch"))
    p_gf.add_argument("--max-part", type=int, default=0)
    p_gf.add_argument("--k", type=int, default=0)
    p_gf.add_argument("--degree", type=int, default=40)
    p_gf.add_argument("--m", type=int, default=0, help="gaussian: top index")
    p_gf.add_argument("--n", type=int, default=0, help="gaussian: bottom index")
    p_gf.add_argument("--base", type=int, default=1, help="substitute q -> q^base")
    p_gf.add_argument("--count", type=int, default=0, help="negpoch: number of factors")
    p_gf.add_argument("--factors", default="inf", help="invpoch: factor count or 'inf'")
    p_gf.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="sweep an identity over a parameter grid")
    p_verify.add_argument("identity", choices=IDENTITIES)
    p_verify.add_argument("--N", help="range like '0..5' or '0,2,4'")
    p_verify.add_argument("--nu", help="range, default '0,1'")
    p_verify.add_argument("--k", help="range; use --k=-2..3 for negative bounds; default depends on the identity")
    p_verify.add_argument("--degree", type=int, default=40)
    p_verify.add_argument("--n-max", type=int, default=24, dest="n_max")
    p_verify.add_argument("--json", action="store_true")

    p_render = sub.add_parser("render", help="ASCII diagrams")
    p_render.add_argument("kind", choices=("young", "shifted", "residue", "blocks"))
    p_render.add_argument("partition")
    p_render.add_argument("--ascii", action="store_true", help="plain ASCII (the default)")

    p_self = sub.add_parser("selftest", help="run the acceptance checks")
    p_self.add_argument("--quick", action="store_true", help="reduced scales, well under 10 s")
    p_self.add_argument("--json", action="store_true")

    return parser


HANDLERS = {
    "map": cmd_map,
    "unmap": cmd_unmap,
    "rank": cmd_rank,
    "gf": cmd_gf,
    "verify": cmd_verify,
    "render": cmd_render,
    "selftest": cmd_selftest,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args, out)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
