"""Command-line experiment runner.

Usage: halfwave <experiment> [flags]

Experiments: decoupling | approximation | besov | inflation | spectrum |
normalform | strichartz | resonances.  Each run writes <experiment>.csv
and summary.json into the output directory and exits 0 when every check
of its verdict holds, 2 on a numerical failure or a failed check (each
named on stderr with its value and band), 1 on any configuration error
(an unknown experiment, flag or key, or a malformed value).

A config file is plain text, one `key = value` per line, `#` comments.
One table, _KEYS, names every key with its config field, value parser
and help: the flags are its keys with `-` for `_` (profile_delta is
--profile-delta), and a config file accepts its keys plus `experiment`.
Flags given on the command line override file values.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    HorizonRule,
    NumericalFailure,
    default_config,
    run_and_write,
)
from .hankel import EigensolverError
from .integrate import BlowUpError


class ConfigError(ValueError):
    pass


def _parse_float_list(text: str):
    values = tuple(float(p) for p in text.replace(",", " ").split())
    if not values:
        raise ConfigError(f"empty numeric list {text!r}")
    return values


def _parse_horizon(text: str) -> HorizonRule:
    """fixed:<T>, inv_eps_sq:<a> (T = a/eps^2) or log:<c>."""
    if ":" not in text:
        raise ConfigError(f"horizon must look like kind:value, got {text!r}")
    kind, _, raw = text.partition(":")
    return HorizonRule(kind.strip(), float(raw))


#: key -> (field, parser, help).  Keys starting with "profile" set a field
#: of the experiment's default Profile, the others an ExperimentConfig field.
_KEYS = {
    "out": ("output_dir", str, "output directory (default: .)"),
    "seed": ("seed", int, "random seed"),
    "threads": ("threads", int, "sweep workers"),
    "eps": ("eps_list", _parse_float_list, "comma-separated decreasing eps sweep"),
    "deltas": ("delta_list", _parse_float_list, "comma-separated delta list (inflation)"),
    "grid": ("grid_n", int, "retained band max mode N"),
    "sobolev": ("sobolev", float, "Sobolev index s"),
    "horizon": ("horizon", _parse_horizon, "fixed:<T> | inv_eps_sq:<a> | log:<c>"),
    "dt": ("dt", float, "time step override"),
    "profile": ("kind", str,
                "initial-state family: single_mode_plus_constant | random_decay | custom"),
    "profile_delta": ("delta", float, "delta of single_mode_plus_constant"),
    "profile_rate": ("rate", float, "decay rate of random_decay"),
    "profile_amplitude": ("amplitude", float, "profile amplitude"),
    "profile_support": ("support", int, "top mode of random_decay"),
    "profile_path": ("path", str, "'k re im' coefficient file of custom"),
}


def read_config_file(path: str) -> dict:
    values = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key != "experiment" and key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error (exit 1), not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="halfwave",
        description="half-wave / cubic Szego experiment runner",
    )
    parser.add_argument("experiment", nargs="?", choices=EXPERIMENTS,
                        help="which experiment to run")
    parser.add_argument("--config", help="plain-text key=value config file")
    for key, (_, _, help_text) in _KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)
    return parser


def _assemble_config(args) -> ExperimentConfig:
    values = read_config_file(args.config) if args.config else {}
    experiment = args.experiment or values.get("experiment")
    if not experiment:
        raise ConfigError("no experiment given (argument or config file)")

    overrides, profile = {}, {}
    for key, (name, parse, _) in _KEYS.items():
        text = getattr(args, key)
        if text is None:
            text = values.get(key)
        if text is None:
            continue
        try:
            value = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        (profile if key.startswith("profile") else overrides)[name] = value

    try:
        if profile:
            overrides["profile"] = replace(default_config(experiment).profile, **profile)
        return default_config(experiment, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv=None) -> int:
    try:
        cfg = _assemble_config(_build_parser().parse_args(argv))
        result = run_and_write(cfg)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailure, BlowUpError, EigensolverError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2

    slope = ("" if result.fitted_slope is None
             else f"  slope={result.fitted_slope:.4f}")
    print(f"{cfg.experiment}: rows={len(result.rows)}{slope}  "
          f"passed={result.passed}")
    if not result.passed:
        failed = "; ".join(str(c) for c in result.checks if not c.ok)
        print(f"{cfg.experiment}: failed checks: {failed}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
