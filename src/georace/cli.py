"""Command-line front end.

Subcommands:

    ingest <scene-dir> --store ROOT [--nodes N]
    query --store ROOT --min-lon .. --max-lon .. --min-lat .. --max-lat ..
          --start .. --end .. --info ndvi [--satellite S] [--out heat.pgm]
    serve --store ROOT [--host H] [--port P]
    node fail|restore <node-id> --store ROOT
    bench scaling [--counts 100..1000] [--repeat 50] [--tiles N] [--json F]
    bench overhead [--tiles 9000] [--repeat 50] [--json F]
    gen-scenes --out DIR --count N [--size 256] [--bands 10] [--seed S]

Exit codes: 0 success, 2 validation error, 3 store/replica error, 4 timeout.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from .bandmath import InfoKind
from .bench import DEFAULT_REPEAT, bench_overhead, bench_query_scaling
from .engine import Query, System, execute_query
from .errors import (
    CorruptionError,
    DuplicateTileError,
    QueryTimeoutError,
    ReplicationError,
    UnavailableError,
    UnknownNodeError,
    ValidationError,
)
from .geo import BoundingBox, TimeRange
from .render import write_pgm
from .service import QueryService
from .store import DEFAULT_BAND_LABELS, TileStore
from .synth import SceneSpec, generate_entries, write_scenes

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STORE = 3
EXIT_TIMEOUT = 4

_STORE_ERRORS = (
    UnavailableError,
    ReplicationError,
    CorruptionError,
    DuplicateTileError,
    UnknownNodeError,
)


def parse_counts(text: str) -> list[int]:
    """Count lists: "100..1000" (step 100), "100..1000:50", or "1,5,10"."""
    try:
        if ".." in text:
            lo, _, rest = text.partition("..")
            hi, _, step = rest.partition(":")
            return list(range(int(lo), int(hi) + 1, int(step) if step else 100))
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad counts {text!r}: {exc}") from exc


def _cmd_ingest(args) -> int:
    root = Path(args.store)
    if (root / TileStore.MANIFEST).is_file():
        store = TileStore.open(root)
    else:
        store = TileStore.create(root, nodes=args.nodes)
    paths = sorted(Path(args.scene_dir).glob("*.npz"))
    if not paths:
        raise ValidationError(f"no .npz scenes under {args.scene_dir}")
    for path in paths:
        store.ingest_scene_file(path)
    print(f"ingested {len(paths)} scenes into {root} ({len(store)} tiles total)")
    return EXIT_OK


def _cmd_query(args) -> int:
    q = Query(
        BoundingBox(args.min_lon, args.max_lon, args.min_lat, args.max_lat),
        TimeRange(args.start, args.end),
        InfoKind.parse(args.info),
        args.satellite,
    )
    with System.open(args.store) as system:
        res = execute_query(system, q, verification=args.verify or None)
        if args.out:
            write_pgm(res.mosaic, args.out, q.info)
        doc = {
            "tile_count": res.tile_count,
            "tile_ids": list(res.tile_ids),
            "winner": res.race.winner,
            "timings": res.timings.as_millis(),
            "mosaic": {"rows": res.mosaic.rows, "cols": res.mosaic.cols},
        }
        if args.out:
            doc["image"] = str(args.out)
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_serve(args) -> int:
    system = System.open(args.store)
    service = QueryService(system, args.host, args.port)
    host, port = service.address
    # SIGTERM stops the service as SIGINT does, so the race workers are
    # stopped too instead of outliving it
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    print(f"serving {args.store} on http://{host}:{port}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        service.stop()
        system.close()
    return EXIT_OK


def _cmd_node(args) -> int:
    store = TileStore.open(args.store)
    if args.action == "fail":
        store.fail_node(args.node_id)
    else:
        store.restore_node(args.node_id)
    print(json.dumps({"nodes": store.node_status()}))
    return EXIT_OK


def _bench_entries(tiles: int, seed: int):
    return generate_entries(SceneSpec(count=tiles, seed=seed))


def _cmd_bench_scaling(args) -> int:
    counts = parse_counts(args.counts)
    report = bench_query_scaling(
        _bench_entries(args.tiles, args.seed),
        counts,
        repeat=args.repeat,
        seed=args.seed + 1,
    )
    if args.json:
        report.save(args.json)
        print(f"wrote {args.json}")
    print(report.to_text())
    return EXIT_OK


def _cmd_bench_overhead(args) -> int:
    report = bench_overhead(_bench_entries(args.tiles, args.seed), repeat=args.repeat)
    if args.json:
        report.save(args.json)
        print(f"wrote {args.json}")
    print(report.to_text())
    return EXIT_OK


def _cmd_gen_scenes(args) -> int:
    if not 1 <= args.bands <= len(DEFAULT_BAND_LABELS):
        raise ValidationError(f"--bands must be 1..{len(DEFAULT_BAND_LABELS)}")
    spec = SceneSpec(
        count=args.count,
        seed=args.seed,
        size_px=args.size,
        band_labels=DEFAULT_BAND_LABELS[: args.bands],
        revisits=args.revisits,
        tile_edge_deg=args.edge,
    )
    paths = write_scenes(spec, args.out)
    print(f"wrote {len(paths)} scenes to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="georace",
        description="Replicated multi-index tile store and racing query engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="ingest .npz scenes into a store")
    p.add_argument("scene_dir")
    p.add_argument("--store", required=True)
    p.add_argument("--nodes", type=int, default=3)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("query", help="run one query and render a heatmap")
    p.add_argument("--store", required=True)
    p.add_argument("--min-lon", type=float, required=True)
    p.add_argument("--max-lon", type=float, required=True)
    p.add_argument("--min-lat", type=float, required=True)
    p.add_argument("--max-lat", type=float, required=True)
    p.add_argument("--start", type=int, required=True, help="epoch seconds, inclusive")
    p.add_argument("--end", type=int, required=True, help="epoch seconds, inclusive")
    p.add_argument("--info", default="ndvi", help="ndvi | rvi | dvi")
    p.add_argument("--satellite")
    p.add_argument("--out", help="write the PGM heatmap here")
    p.add_argument("--verify", action="store_true", help="wait for all indexes and cross-check")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("serve", help="serve the HTTP API")
    p.add_argument("--store", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("node", help="inject or clear a storage-node fault")
    p.add_argument("action", choices=("fail", "restore"))
    p.add_argument("node_id")
    p.add_argument("--store", required=True)
    p.set_defaults(func=_cmd_node)

    p = sub.add_parser("bench", help="run a benchmark scenario")
    bench_sub = p.add_subparsers(dest="scenario", required=True)

    b = bench_sub.add_parser("scaling", help="elapsed time vs. query count")
    b.add_argument("--counts", default="100..1000")
    b.add_argument("--repeat", type=int, default=DEFAULT_REPEAT)
    b.add_argument("--tiles", type=int, default=9000)
    b.add_argument("--seed", type=int, default=7)
    b.add_argument("--json", help="write the JSON report here")
    b.set_defaults(func=_cmd_bench_scaling)

    b = bench_sub.add_parser("overhead", help="index build time and size")
    b.add_argument("--tiles", type=int, default=9000)
    b.add_argument("--repeat", type=int, default=DEFAULT_REPEAT)
    b.add_argument("--seed", type=int, default=7)
    b.add_argument("--json", help="write the JSON report here")
    b.set_defaults(func=_cmd_bench_overhead)

    p = sub.add_parser("gen-scenes", help="write a synthetic scene corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--size", type=int, default=256, help="pixels per tile edge")
    p.add_argument("--bands", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--revisits", type=int, default=4)
    p.add_argument("--edge", type=float, default=0.25, help="tile edge, degrees")
    p.set_defaults(func=_cmd_gen_scenes)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _STORE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STORE
    except QueryTimeoutError as exc:
        print(f"error: query timed out: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT


if __name__ == "__main__":
    sys.exit(main())
