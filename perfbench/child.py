"""One pinlab CLI call inside the measured process.

usage: python3 perfbench/child.py MODE RESULT_JSON [CLI ARGS...]

MODE is one of
  info   import pinlab (fills the bytecode cache) and record versions;
  probe  run the CLI up to the return of the first law tabulation
         (``model.build_law``, which every subcommand reaches before its
         first DP) and exit there: one set-up measurement;
  run    run the CLI untraced, recording when set-up ended;
  trace  run the CLI with every public pinlab function wrapped.

Times are CLOCK_MONOTONIC readings (``time.monotonic``), which the parent
shares, so it can subtract them from its own spawn time.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def _write(path: str, result: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _hook_first_law(modules, on_return):
    """Replace model.build_law wherever it is bound by name."""
    import pinlab.model
    original = pinlab.model.build_law

    def hooked(*args, **kwargs):
        law = original(*args, **kwargs)
        on_return()
        return law

    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, hooked)


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    mode, result_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    result: dict = {"mode": mode}
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        span = tracer.open("import")
    import pinlab
    import pinlab.cli
    if mode == "info":
        result["versions"] = _versions()
        _write(result_path, result)
        return 0
    if tracer is not None:
        tracer.install()
        tracer.close(span)
    else:
        def on_law():
            if "t_setup" not in result:
                result["t_setup"] = time.monotonic()
                if mode == "probe":
                    _write(result_path, result)
                    os._exit(0)
        _hook_first_law([m for name, m in sys.modules.items()
                         if name.split(".")[0] == "pinlab"], on_law)
    try:
        result["code"] = pinlab.cli.main(argv)
    except Exception:
        result["error"] = traceback.format_exc()
    if tracer is not None:
        tracer.uninstall()
        result["unrestored"] = tracer.unrestored()
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    _write(result_path, result)
    return 3 if "error" in result else 0


if __name__ == "__main__":
    raise SystemExit(main())
