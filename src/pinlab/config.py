"""One JSON artifact per experiment: blocks {model, disorder, grids, run,
checks}, every field defaulted, lossless round-trip.

Validation errors carry a ``path:line:`` anchor pointing at the offending
field in the source file so a bad config is a one-glance fix.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from . import disorder_mc as mc
from .model import (
    DISORDER_FAMILIES,
    DisorderLaw,
    EllSpec,
    InterArrivalLaw,
    build_law,
    geometric_test_law,
    law_from_table,
)
from .theorems import CHECK_IDS, DEFAULT_U_GRID, CheckContext


class ConfigError(ValueError):
    """Invalid configuration; message is anchored as path:line: field: why."""

    def __init__(self, message: str, anchor: str | None = None,
                 path: str | None = None, line: int | None = None):
        self.message = message
        self.anchor = anchor
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line else f"{path}: "
        if anchor:
            prefix += f"{anchor}: "
        super().__init__(prefix + message)


def _need(cond: bool, anchor: str, message: str):
    if not cond:
        raise ConfigError(message, anchor=anchor)


def _need_int(value, anchor: str, lo: int, hi: float, message: str):
    """An integer field (a bool, a float or a numeric string is not one)
    with lo <= value <= hi."""
    _need(isinstance(value, int) and not isinstance(value, bool), anchor,
          f"must be an integer (got {value!r})")
    _need(lo <= value <= hi, anchor, message)


@dataclass(frozen=True)
class ModelBlock:
    """Inter-arrival law: power ell(t)/t^(1+alpha), the geometric control,
    or a raw probability table."""

    kind: str = "power"
    alpha: float = 1.0
    ell_form: str = "constant"
    ell_c: float = 1.0
    ell_beta: float = 0.0
    n_max: int = 512
    normalize: bool = True
    table: tuple = ()

    def validate(self):
        _need(self.kind in ("power", "geometric", "table"), "model.kind",
              f"must be one of power, geometric, table (got {self.kind!r})")
        _need_int(self.n_max, "model.n_max", 2, math.inf,
                  "must be an integer >= 2")
        if self.kind == "power":
            _need(self.alpha >= 1.0, "model.alpha",
                  "alpha < 1 is not supported")
            _need(self.ell_form in ("constant", "log_power"), "model.ell_form",
                  "must be constant or log_power")
            _need(self.ell_c > 0.0, "model.ell_c", "must be positive")
            if self.ell_form == "log_power":
                _need(self.ell_beta > -1.0, "model.ell_beta",
                      "log_power requires beta > -1")
        if self.kind == "table":
            _need(len(self.table) >= 2, "model.table",
                  "needs at least p(1), p(2)")
            for v in self.table:
                _need(isinstance(v, (int, float)) and not isinstance(v, bool)
                      and v > 0, "model.table",
                      f"must hold positive reals only (got {v!r})")

    def build(self) -> InterArrivalLaw:
        if self.kind == "geometric":
            return geometric_test_law(int(self.n_max))
        if self.kind == "table":
            return law_from_table(list(self.table))
        ell = EllSpec(self.ell_form, self.ell_c, self.ell_beta)
        return build_law(self.alpha, ell, int(self.n_max), self.normalize)


@dataclass(frozen=True)
class DisorderBlock:
    family: str = "gaussian"
    param: float = 1.0

    def validate(self):
        _need(self.family in DISORDER_FAMILIES, "disorder.family",
              f"must be one of {sorted(DISORDER_FAMILIES)} (got {self.family!r})")
        if self.family != "zero":
            _need(self.param > 0.0, "disorder.param", "must be positive")

    def build(self) -> DisorderLaw:
        return DISORDER_FAMILIES[self.family](self.param)


def _sorted_positive(values, anchor: str):
    """A nonempty, strictly ascending list of integers >= 1 (a bool or a
    float is not one, as in _need_int)."""
    _need(len(values) > 0, anchor, "must be nonempty")
    for v in values:
        _need(isinstance(v, int) and not isinstance(v, bool) and v >= 1,
              anchor, f"must hold integers >= 1 only (got {v!r})")
    _need(list(values) == sorted(values), anchor, "must be sorted ascending")
    _need(len(set(values)) == len(values), anchor, "must not repeat entries")


@dataclass(frozen=True)
class GridsBlock:
    h_values: tuple = (1.5, 2.0, 2.5, 3.0, 3.5)
    n_values: tuple = (64, 128, 256)
    u_grid: tuple = DEFAULT_U_GRID
    window: int = 96
    r_max: int = 6

    def validate(self):
        for v in self.h_values:
            _need(isinstance(v, (int, float)) and math.isfinite(v),
                  "grids.h_values", f"entries must be finite reals (got {v!r})")
        _need(len(self.h_values) > 0, "grids.h_values", "must be nonempty")
        _need(list(self.h_values) == sorted(self.h_values), "grids.h_values",
              "must be sorted ascending")
        _need(len(set(self.h_values)) == len(self.h_values), "grids.h_values",
              "must not repeat entries")
        _sorted_positive(self.n_values, "grids.n_values")
        _need(len(self.u_grid) > 0, "grids.u_grid", "must be nonempty")
        for v in self.u_grid:
            _need(isinstance(v, (int, float)) and v >= 0.0, "grids.u_grid",
                  f"entries must be nonnegative reals (got {v!r})")
        _need_int(self.window, "grids.window", 16, math.inf, "must be >= 16")
        _need_int(self.r_max, "grids.r_max", 2, 12, "must be in 2..12")


@dataclass(frozen=True)
class RunBlock:
    samples: int = 200
    master_seed: int = 1
    out_dir: str | None = None
    threads: int = 1  # accepted and ignored: samples run on one thread

    def validate(self):
        _need_int(self.samples, "run.samples", 2, math.inf, "must be >= 2")
        _need_int(self.master_seed, "run.master_seed", 0, 2 ** 64 - 1,
                  "must fit in 64 bits")
        _need_int(self.threads, "run.threads", 1, math.inf, "must be >= 1")


@dataclass(frozen=True)
class ChecksBlock:
    ids: tuple = CHECK_IDS
    h: float | None = None

    def validate(self):
        _need(len(self.ids) > 0, "checks.ids", "must be nonempty")
        for cid in self.ids:
            _need(cid in CHECK_IDS, "checks.ids",
                  f"unknown check id {cid!r}; known ids are C1..C13")
        if self.h is not None:
            _need(isinstance(self.h, (int, float)) and math.isfinite(self.h),
                  "checks.h", "must be a finite real")


_BLOCKS = {
    "model": ModelBlock,
    "disorder": DisorderBlock,
    "grids": GridsBlock,
    "run": RunBlock,
    "checks": ChecksBlock,
}


@dataclass(frozen=True)
class RunConfig:
    model: ModelBlock = ModelBlock()
    disorder: DisorderBlock = DisorderBlock()
    grids: GridsBlock = GridsBlock()
    run: RunBlock = RunBlock()
    checks: ChecksBlock = ChecksBlock()

    def validate(self):
        for block in (self.model, self.disorder, self.grids, self.run,
                      self.checks):
            block.validate()
        # the built law's n_max, without building it: a table law's
        # horizon is its length
        horizon = len(self.model.table) if self.model.kind == "table" \
            else int(self.model.n_max)
        _need(max(self.grids.n_values) <= horizon, "grids.n_values",
              f"horizon exceeded: max n {max(self.grids.n_values)} > "
              f"{horizon}, the law's horizon (model.n_max, or the length "
              f"of model.table)")

    def to_dict(self) -> dict:
        out = asdict(self)
        for block in out.values():
            for key, value in block.items():
                if isinstance(value, tuple):
                    block[key] = list(value)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("top level must be a JSON object")
        unknown = set(data) - set(_BLOCKS)
        if unknown:
            raise ConfigError(f"unknown block {sorted(unknown)[0]!r}; "
                              f"blocks are {sorted(_BLOCKS)}",
                              anchor=sorted(unknown)[0])
        kwargs = {}
        for name, block_cls in _BLOCKS.items():
            raw = data.get(name, {})
            if not isinstance(raw, dict):
                raise ConfigError("block must be a JSON object", anchor=name)
            known = {f.name for f in fields(block_cls)}
            for key in raw:
                if key not in known:
                    raise ConfigError(
                        f"unknown field; block {name!r} has {sorted(known)}",
                        anchor=f"{name}.{key}")
            fixed = {k: tuple(v) if isinstance(v, list) else v
                     for k, v in raw.items()}
            kwargs[name] = block_cls(**fixed)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    # --- builders -------------------------------------------------------

    def law(self) -> InterArrivalLaw:
        return self.model.build()

    def disorder_law(self) -> DisorderLaw:
        return self.disorder.build()

    def mc_config(self) -> mc.McConfig:
        return mc.McConfig(self.law(), self.disorder_law(),
                           tuple(float(h) for h in self.grids.h_values),
                           tuple(int(n) for n in self.grids.n_values),
                           samples=int(self.run.samples),
                           master_seed=int(self.run.master_seed),
                           window=int(self.grids.window))

    def check_context(self) -> CheckContext:
        cfg = self.mc_config()
        h = float(self.checks.h) if self.checks.h is not None \
            else float(max(self.grids.h_values))
        n_max = cfg.law.n_max
        top = min(4096, n_max)
        return CheckContext(
            mc=cfg, h=h,
            h_grid=tuple(float(v) for v in self.grids.h_values),
            u_values=tuple(float(v) for v in self.grids.u_grid),
            clt_n_values=tuple(n for n in (128, 256, 512, 1024)
                               if n <= n_max) or (n_max,),
            excursion_n_values=(top // 4, top // 2, top),
            hl_n_max=min(1024, n_max),
            r_max=int(self.grids.r_max))


def _line_of(text: str, anchor: str | None) -> int | None:
    """First line mentioning the field (or its block) as a JSON key."""
    if not anchor:
        return None
    parts = anchor.split(".")
    for probe in (parts[-1], parts[0]):
        needle = f'"{probe}"'
        for i, line in enumerate(text.splitlines(), start=1):
            if needle in line:
                return i
    return None


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=str(path))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc.msg}", path=str(path),
                          line=exc.lineno)
    try:
        return RunConfig.from_dict(data)
    except ConfigError as exc:
        raise ConfigError(exc.message, anchor=exc.anchor, path=str(path),
                          line=_line_of(text, exc.anchor)) from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), path=str(path)) from None


def save_config(cfg: RunConfig, path: str):
    """Write the fully-resolved config (all defaults expanded)."""
    from .outputs import atomic_write_text
    text = json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
    atomic_write_text(path, text)
