"""``python -m repro.testsuite`` — golden-verdict maintenance.

Default mode checks the live suite against the checked-in goldens
(exit 1 on any divergence); ``--update-goldens`` regenerates them
after a deliberate semantics change::

    python -m repro.testsuite                    # conformance check
    python -m repro.testsuite --update-goldens   # re-pin verdicts
    python -m repro.testsuite --models concrete,provenance --tests q1
    python -m repro.testsuite --store DIR        # reuse Core + records
"""

from __future__ import annotations

import argparse
import sys

from ..pipeline import MODELS
from ..spec import ExploreSpec
from .goldens import (
    compute_verdicts, default_golden_path, diff_goldens, load_goldens,
    update_goldens,
)
from .programs import TESTS


def _csv(text):
    return [t.strip() for t in text.split(",") if t.strip()]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro.testsuite",
        description="Check (default) or regenerate the golden-verdict "
                    "conformance suite")
    p.add_argument("--update-goldens", action="store_true",
                   help="recompute every pinned behaviour set and "
                        "rewrite the golden file")
    p.add_argument("--path", default=None, metavar="FILE",
                   help=f"golden file (default: "
                        f"{default_golden_path()})")
    p.add_argument("--models", default=None, metavar="M1,M2,...",
                   help="restrict to these memory models")
    p.add_argument("--tests", default=None, metavar="T1,T2,...",
                   help="restrict to these test names")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="artifact store directory: compiled Core and "
                        "exploration records are reused across runs "
                        "(incremental recomputation)")
    args = p.parse_args(argv)

    models = _csv(args.models) if args.models else None
    if models:
        unknown = [m for m in models if m not in MODELS]
        if unknown:
            print(f"unknown model(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    names = _csv(args.tests) if args.tests else None
    if names:
        unknown = [n for n in names if n not in TESTS]
        if unknown:
            print(f"unknown test(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    store = None
    if args.store is not None:
        from ..farm.store import ArtifactStore
        from ..pipeline import set_artifact_store
        store = ArtifactStore(args.store)
        set_artifact_store(store)

    if args.update_goldens:
        path = update_goldens(args.path, models=models, names=names,
                              store=store)
        doc = load_goldens(path)
        cells = sum(len(c) for c in doc["verdicts"].values())
        print(f"pinned {len(doc['verdicts'])} tests x "
              f"{len(doc['models'])} models ({cells} cells) -> {path}")
        return 0

    try:
        doc = load_goldens(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot load goldens: {exc}", file=sys.stderr)
        return 2
    live = compute_verdicts(
        models=models if models is not None else doc["models"],
        names=names,
        spec=ExploreSpec(max_paths=doc["max_paths"],
                         max_steps=doc["max_steps"]),
        store=store)
    lines = diff_goldens(doc, live)
    if lines:
        print("\n".join(lines))
        print(f"{len(lines)} golden cell(s) diverged", file=sys.stderr)
        return 1
    cells = sum(len(c) for c in live.values())
    print(f"{cells} golden cells conform")
    return 0


if __name__ == "__main__":
    sys.exit(main())
