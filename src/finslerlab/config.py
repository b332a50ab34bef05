"""Run configuration: defaults, flat key-value config files, validation.

The config format is plain ``key = value`` lines; lists may be written as
``[a, b]`` or bare comma-separated values; ``#`` starts a comment.  Keys:
``seed`` (int), ``samples`` (int), ``fixtures`` (list of fixture ids),
``checks`` (list of check ids), ``tolerance.CHK-xx`` (float).  Unknown keys
or unknown ids are rejected with the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .checks import CHECK_IDS
from .errors import BadConfig
from .finsler import fixture_ids


@dataclass
class RunConfig:
    fixtures: list = field(default_factory=fixture_ids)
    seed: int = 42
    samples: int = 32
    checks: list | None = None  # None means every registered check
    tolerances: dict = field(default_factory=dict)
    out: str | None = None


def _parse_list(raw: str):
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        raw = raw[1:-1]
    return [item.strip() for item in raw.split(",") if item.strip()]


def parse_config(text: str) -> RunConfig:
    """Parse flat key-value text into a validated RunConfig."""
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise BadConfig(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        try:
            if key == "seed":
                cfg.seed = int(raw)
            elif key == "samples":
                cfg.samples = int(raw)
                if cfg.samples < 1:
                    raise ValueError("samples must be >= 1")
            elif key == "fixtures":
                wanted = _parse_list(raw)
                unknown = [f for f in wanted if f not in fixture_ids()]
                if unknown:
                    raise ValueError(f"unknown fixture ids {unknown}")
                cfg.fixtures = wanted
            elif key == "checks":
                wanted = _parse_list(raw)
                unknown = [c for c in wanted if c not in CHECK_IDS]
                if unknown:
                    raise ValueError(f"unknown check ids {unknown}")
                cfg.checks = wanted
            elif key.startswith("tolerance."):
                cid = key.split(".", 1)[1]
                if cid not in CHECK_IDS:
                    raise ValueError(f"unknown check id {cid!r}")
                tol = float(raw)
                if not 0.0 < tol < math.inf:  # a NaN or inf tolerance passes nothing or all
                    raise ValueError("tolerance must be positive and finite")
                cfg.tolerances[cid] = tol
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as e:
            raise BadConfig(f"line {lineno}: {e}") from None
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
