"""Run configuration: YAML loading, defaults, and the config fingerprint.

A run config names the corpus and output directories, the seed, and up to
three endpoints (target, teacher, embedding). Credentials never appear in
the file; an endpoint block names the environment variable holding its key.
The fingerprint digests everything that determines a run's outputs except
the prompting stage, so reports from different stages of the same setup can
be checked as comparable before they land in one ablation table.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path

import yaml

from .corpus import Dataset
from .errors import ConfigError
from .modelgw import DEFAULT_TIMEOUT, HttpEndpoint, RetryPolicy, mock_from_file
from .promptkit import template_fingerprint
from .runner import EnsembleConfig, MAX_VALIDITY_TRIES

__all__ = [
    "EndpointConfig",
    "RunConfig",
    "load_config",
    "default_instruction",
    "instruction_for",
    "config_fingerprint",
    "build_endpoint",
]

BUILTIN_EMBEDDING = "builtin"
# The longest wait a config sets, in seconds: a call's `timeout` and the
# retry `backoff_cap`. Socket timeouts and `time.sleep` overflow near 2**63
# ns, `time.sleep` sooner the longer the machine has been up; a day is far
# inside both and longer than any useful wait.
MAX_WAIT_S = 86_400.0


@dataclass(frozen=True)
class EndpointConfig:
    url: str
    model_id: str
    api_key_env: str | None = None
    timeout: float = DEFAULT_TIMEOUT


@dataclass(frozen=True)
class RunConfig:
    corpus_dir: Path
    output_dir: Path
    cache_dir: Path
    target: EndpointConfig
    teacher: EndpointConfig | None = None
    embedding: EndpointConfig | None = None
    seed: int = 0
    concurrency: int = 1
    max_validity_tries: int = MAX_VALIDITY_TRIES
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    instructions: dict = field(default_factory=dict)


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _check_keys(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")


def _finite(value, key: str, context: str, positive: bool = False,
            maximum: float = math.inf) -> float:
    """`value` as a finite float >= 0 (> 0 if `positive`) and <= `maximum`;
    anything else is a ConfigError."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number) or number < 0 or (positive and number == 0) or number > maximum:
        bound = "> 0" if positive else ">= 0"
        if maximum < math.inf:
            bound += f" and <= {maximum:g}"
        raise ConfigError(f"{context}: {key} must be a finite number {bound}, got {value!r}")
    return number


def _integer(value, key: str, context: str, minimum: int | None) -> int:
    """`value` as an integer, >= `minimum` unless that is None; anything else
    is a ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{context}: {key} must be an integer{bound}, got {value!r}")
    return value


def _given(mapping: dict, context: str, readers: dict) -> dict:
    """The checked value of each key in `readers` that `mapping` sets, by
    field name; `readers` maps a key to (field, check). A key left unset keeps
    the default of the dataclass that owns its field."""
    return {name: check(mapping[key], key, context)
            for key, (name, check) in readers.items() if key in mapping}


def _under(base: Path, value: str) -> Path:
    """`value` as a path, relative ones taken from `base`."""
    path = Path(value)
    return path if path.is_absolute() else base / path


def _section(raw: dict, key: str, context: str) -> dict:
    """The mapping under `key`, empty if unset or empty; any other value is a
    ConfigError."""
    section = raw.get(key) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{context}: expected a mapping")
    return section


def _endpoint_block(block, context: str, base: Path) -> EndpointConfig:
    """One endpoint block; a relative `mock:` policy path is taken from `base`."""
    if not isinstance(block, dict):
        raise ConfigError(f"{context}: expected a mapping")
    _check_keys(block, {"url", "model", "api_key_env", "timeout"}, context)
    api_key_env = block.get("api_key_env")
    if api_key_env is not None and not isinstance(api_key_env, str):
        raise ConfigError(f"{context}: api_key_env must name an environment variable, "
                          f"got {api_key_env!r}")
    url = str(_require(block, "url", context))
    if url.startswith("mock:"):
        url = f"mock:{_under(base, url[len('mock:'):])}"
    return EndpointConfig(
        url=url,
        model_id=str(_require(block, "model", context)),
        api_key_env=api_key_env,
        **_given(block, context, {
            "timeout": ("timeout", partial(_finite, positive=True, maximum=MAX_WAIT_S)),
        }),
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file missing: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check_keys(
        raw,
        {
            "corpus_dir", "output_dir", "cache_dir", "seed", "concurrency", "max_validity_tries",
            "target", "teacher", "embedding", "ensemble", "retry", "instructions",
        },
        str(path),
    )

    ensemble_raw = _section(raw, "ensemble", f"{path}: ensemble")
    _check_keys(ensemble_raw, {"runs", "temperature"}, f"{path}: ensemble")
    ensemble = EnsembleConfig(**_given(ensemble_raw, f"{path}: ensemble", {
        "runs": ("n_runs", partial(_integer, minimum=1)),
        "temperature": ("temperature", _finite),
    }))

    retry_raw = _section(raw, "retry", f"{path}: retry")
    _check_keys(retry_raw, {"max_retries", "backoff_base", "backoff_cap"}, f"{path}: retry")
    retry = RetryPolicy(**_given(retry_raw, f"{path}: retry", {
        "max_retries": ("max_retries", partial(_integer, minimum=0)),
        "backoff_base": ("backoff_base", _finite),
        "backoff_cap": ("backoff_cap", partial(_finite, maximum=MAX_WAIT_S)),
    }))

    instructions = raw.get("instructions", {}) or {}
    if not isinstance(instructions, dict):
        raise ConfigError(f"{path}: instructions must map dataset names to strings")
    known = {d.value for d in Dataset}
    for key, value in instructions.items():
        if key not in known:
            raise ConfigError(f"{path}: instructions name unknown dataset {key!r}")
        if not isinstance(value, str) or not value.strip():
            raise ConfigError(f"{path}: instruction override for {key} must be non-empty text")

    base = path.parent

    def _dir(key: str) -> Path:
        return _under(base, str(_require(raw, key, str(path))))

    teacher = raw.get("teacher")
    embedding = raw.get("embedding")
    embedding = _endpoint_block(embedding, f"{path}: embedding", base) if embedding else None
    if embedding is not None and embedding.url.startswith("mock:"):
        # Mock endpoints only complete; the builtin embedder is the offline one.
        raise ConfigError(f"{path}: embedding: url must be an http(s) URL, got "
                          f"{embedding.url!r}; leave the block out for the builtin embedder")
    return RunConfig(
        corpus_dir=_dir("corpus_dir"),
        output_dir=_dir("output_dir"),
        cache_dir=_dir("cache_dir"),
        target=_endpoint_block(_require(raw, "target", str(path)), f"{path}: target", base),
        teacher=_endpoint_block(teacher, f"{path}: teacher", base) if teacher else None,
        embedding=embedding,
        ensemble=ensemble,
        retry=retry,
        instructions=dict(instructions),
        **_given(raw, str(path), {
            "seed": ("seed", partial(_integer, minimum=None)),
            "concurrency": ("concurrency", partial(_integer, minimum=1)),
            "max_validity_tries": ("max_validity_tries", partial(_integer, minimum=1)),
        }),
    )


def _load_default_instructions() -> dict:
    text = resources.files("medharness").joinpath("data/default_instructions.yaml").read_text(
        encoding="utf-8"
    )
    return yaml.safe_load(text)


_DEFAULT_INSTRUCTIONS: dict | None = None


def default_instruction(dataset: Dataset) -> str:
    global _DEFAULT_INSTRUCTIONS
    if _DEFAULT_INSTRUCTIONS is None:
        _DEFAULT_INSTRUCTIONS = _load_default_instructions()
    return _DEFAULT_INSTRUCTIONS[Dataset(dataset).value]


def instruction_for(config: RunConfig, dataset: Dataset) -> str:
    override = config.instructions.get(Dataset(dataset).value)
    return override if override else default_instruction(dataset)


def config_fingerprint(config: RunConfig, dataset: Dataset) -> str:
    """Digest of everything that shapes results except the stage itself."""
    material = {
        "dataset": Dataset(dataset).value,
        "instruction": instruction_for(config, dataset),
        "template": template_fingerprint(),
        "seed": config.seed,
        "target_model": config.target.model_id,
        "teacher_model": config.teacher.model_id if config.teacher else None,
        "embedding_model": config.embedding.model_id if config.embedding else BUILTIN_EMBEDDING,
        "ensemble": {"runs": config.ensemble.n_runs, "temperature": config.ensemble.temperature},
        "max_validity_tries": config.max_validity_tries,
    }
    canon = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def build_endpoint(spec: EndpointConfig, retry: RetryPolicy):
    """The endpoint a config block describes: a `mock:<policy.json>` URL runs
    in process, any other is HTTP. Building it is the block's check: a missing
    policy file, a malformed URL or an unset credential variable fails here.
    It acquires nothing until its first call, which opens the first HTTP
    connection or parses the policy file."""
    if spec.url.startswith("mock:"):
        return mock_from_file(spec.url[len("mock:"):], spec.model_id)
    return HttpEndpoint(spec.url, spec.model_id, api_key_env=spec.api_key_env,
                        timeout=spec.timeout, retry=retry)
