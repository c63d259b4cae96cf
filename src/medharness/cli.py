"""Command-line interface.

Subcommands mirror the pipeline: `ingest` normalizes raw benchmark files,
`index` embeds the training pool, `gen-cot` pre-builds verified exemplar
explanations and the kNN exemplar manifest, `run` executes one prompting
stage, `ablate` executes the whole ladder and tabulates it, `report`
recomputes summaries from existing traces.

Exit codes: 1 configuration problems, 2 data problems, 3 endpoint problems,
4 incomplete runs.
"""

from __future__ import annotations

import json
import sys
import threading
from functools import cached_property
from pathlib import Path

import click

from .config import (
    RunConfig,
    build_endpoint,
    config_fingerprint,
    instruction_for,
    load_config,
)
from .corpus import (CorpusFile, CorpusStore, Dataset, McqItem, PoolView, Split, load_dataset,
                     read_normalized)
from .errors import ConfigError, DataError, EndpointError, IncompleteRunError
from .metrics import (
    ablation,
    build_report,
    render_ablation_text,
    scored_rows,
    subject_breakdown,
    write_report,
)
from .promptkit import FEWSHOT_SIZE
from .retrieval import QUERY_BLOCK, NeighborSet, RemoteProvider, VectorIndex, build_index
from .runner import LADDER, Stage, answer_stage_item, run_benchmark
from .teacher import (CotCache, TeacherOutcome, build_exemplars, build_random_exemplars,
                      load_exemplar_manifest, save_exemplar_manifest, teacher_fingerprint)

STAGE_NAMES = [stage.value for stage in LADDER]


@click.group()
def cli():
    """Prompting-ladder evaluation harness for multiple-choice medical QA."""


def _dataset(value: str) -> Dataset:
    try:
        return Dataset(value)
    except ValueError:
        raise click.UsageError(f"unknown dataset {value!r}; pick from "
                               f"{', '.join(d.value for d in Dataset)}")


def _split(value: str) -> Split:
    try:
        return Split(value)
    except ValueError:
        raise click.UsageError(f"unknown split {value!r}")


@cli.command()
@click.option("--dataset", "dataset_name", required=True)
@click.option("--split", "split_name", required=True)
@click.option("--source", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--corpus-dir", required=True, type=click.Path(path_type=Path))
def ingest(dataset_name: str, split_name: str, source: Path, corpus_dir: Path):
    """Normalize one raw benchmark file (or directory) into the corpus store."""
    dataset = _dataset(dataset_name)
    split = _split(split_name)
    result = load_dataset(dataset, split, source)
    store = CorpusStore(corpus_dir)
    store.save(result)
    click.echo(
        f"{dataset.value}/{split.value}: {result.manifest.item_count} items "
        f"({result.manifest.rejected_count} rejected) -> {store.corpus_path(dataset, split)}"
    )


def _index_path(config: RunConfig, dataset: Dataset) -> Path:
    return config.cache_dir / "index" / f"{dataset.value}.jsonl"


def _embedding_provider(config: RunConfig):
    if config.embedding is None:
        return None
    endpoint = build_endpoint(config.embedding, config.retry)
    return RemoteProvider(endpoint, config.embedding.model_id)


def _close(resource) -> None:
    """Close an endpoint or embedding provider; in-process ones hold nothing to close."""
    close = getattr(resource, "close", None)
    if close is not None:
        close()


def _build_index(config: RunConfig, dataset: Dataset, pool: list,
                 pool_sha256: str, provider) -> VectorIndex:
    index = build_index(pool, provider=provider, pool_sha256=pool_sha256)
    index.save(_index_path(config, dataset))
    return index


@cli.command("index")
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
@click.option("--dataset", "dataset_name", required=True)
def index_cmd(config_path: Path, dataset_name: str):
    """Embed the training pool and persist the similarity index."""
    config = load_config(config_path)
    dataset = _dataset(dataset_name)
    store = CorpusStore(config.corpus_dir)
    source = store.pool_file(dataset)
    pool = source.questions()
    store.check_disjoint(dataset, [record.id for record in pool])
    provider = _embedding_provider(config)
    try:
        index = _build_index(config, dataset, pool, source.sha256, provider)
    finally:
        _close(provider)
    click.echo(f"{dataset.value}: indexed {len(index)} pool items "
               f"({index.provider.provider_id}) -> {_index_path(config, dataset)}")


class _Sources:
    """What one command's stages draw on, each read or built at most once.

    The test split is read on construction; the pool file, its index and the
    exemplar manifest on first use. The teacher's fingerprint comes from the
    config, and its endpoint is opened only by its first call (`_Teacher`),
    so a stage the manifest and the cache fully cover never opens it. Stages
    parse only the pool items they look up: random stages by the ids
    `CorpusFile.questions` reads, kNN stages by those of an index built from
    the pool file's exact bytes. kNN exemplars are built once per test item
    and kept, so the kNN and ensemble stages of one `ablate` share them;
    query vectors live only until their item's exemplars are built.
    `outcomes` collects the outcome of every candidate the providers asked
    the teacher about; cache hits are not kept. Used as a context manager,
    it closes the endpoints it opened.

    `writes_manifest` marks a command that replaces the exemplar manifest,
    so a stale one is ignored without a warning.
    """

    def __init__(self, config: RunConfig, dataset: Dataset, limit: int | None,
                 allow_teacher: bool = True, writes_manifest: bool = False):
        self.config = config
        self.dataset = dataset
        self.store = CorpusStore(config.corpus_dir)
        self.test_file = CorpusFile(self.store.corpus_path(dataset, Split.TEST))
        all_items = read_normalized(self.test_file)
        self.test_ids = {item.id for item in all_items}
        self.items = _limited(all_items, limit)
        self.allow_teacher = allow_teacher
        self.writes_manifest = writes_manifest
        self.cache = CotCache(config.cache_dir)
        self.outcomes: list[TeacherOutcome] = []
        self._knn: dict[str, list] = {}
        self._opened: list = []

    def __enter__(self) -> "_Sources":
        return self

    def __exit__(self, *exc_info) -> None:
        for resource in self._opened:
            _close(resource)

    @cached_property
    def pool_file(self) -> CorpusFile:
        return self.store.pool_file(self.dataset)

    @cached_property
    def pool_questions(self) -> list:
        """The pool's ids and questions, checked against the test split's ids."""
        pool = self.pool_file.questions()
        self.store.check_disjoint(self.dataset, [record.id for record in pool], self.test_ids)
        return pool

    @cached_property
    def index(self) -> VectorIndex:
        """The pool's index, loaded if built from the pool file's current bytes."""
        path = _index_path(self.config, self.dataset)
        provider = _embedding_provider(self.config)
        self._opened.append(provider)
        if not path.exists():
            return _build_index(self.config, self.dataset, self.pool_questions,
                                self.pool_file.sha256, provider)
        index = VectorIndex.load(path, provider=provider)
        if index.pool_sha256 != self.pool_file.sha256:
            raise DataError(f"{path}: not built from the current {self.pool_file.path} "
                            f"(pool_sha256 {index.pool_sha256 or 'not recorded'}); "
                            f"rebuild with `medharness index`")
        # The digest matches, so the pool's ids are the index's, checked for
        # validity and uniqueness when `index` read these bytes.
        self.store.check_disjoint(self.dataset, index.ids, self.test_ids)
        return index

    @cached_property
    def teacher(self) -> _Teacher:
        if self.allow_teacher and self.config.teacher is None:
            raise ConfigError("this stage needs a teacher endpoint; add a `teacher:` block")
        return _Teacher(self.config, self._opened if self.allow_teacher else None)

    @cached_property
    def teacher_key(self) -> str:
        """The teacher fingerprint that keys the CoT cache and the manifest."""
        return teacher_fingerprint(self.teacher.model_id)

    @cached_property
    def pool_items(self) -> PoolView:
        return PoolView(self.pool_file, self.index.ids)

    @property
    def manifest_path(self) -> Path:
        return self.config.cache_dir / "exemplars" / f"{self.dataset.value}.jsonl"

    @property
    def manifest_header(self) -> dict:
        """What a kNN exemplar set depends on besides its test item's id."""
        return {
            "schema": 1,
            "pool_sha256": self.pool_file.sha256,
            "provider_id": self.index.provider.provider_id,
            "teacher": self.teacher_key,
            "test_sha256": self.test_file.sha256,
        }

    @cached_property
    def manifest(self) -> dict[str, tuple[str, ...]]:
        """Exemplar ids per test item from `gen-cot`'s manifest, if it matches."""
        return load_exemplar_manifest(self.manifest_path, self.manifest_header,
                                      self.pool_items, warn_stale=not self.writes_manifest)

    def manifest_exemplars(self, item: McqItem):
        """The item's exemplars from the manifest and the cache, kept; None unless
        the manifest lists the item and every one of its exemplars is cached."""
        exemplars = []
        for exemplar_id in self.manifest.get(item.id, ()):
            exemplar = self.cache.get(self.pool_items[exemplar_id], self.teacher_key,
                                      line=self.pool_items.line(exemplar_id))
            if exemplar is None:
                return None
            exemplars.append(exemplar)
        if not exemplars:
            return None
        self._knn[item.id] = exemplars
        return exemplars

    def exemplars_for(self, stage: Stage, items: list[McqItem]):
        """The stage's exemplar provider (item -> exemplars) over `items`."""
        if not stage.fewshot:
            return lambda item: []
        if not stage.knn:
            pool = PoolView(self.pool_file, [record.id for record in self.pool_questions])
            fixed, outcomes = build_random_exemplars(
                pool, self.config.seed, teacher=self.teacher if stage.cot else None,
                cache=self.cache,
            )
            self.outcomes.extend(o for o in outcomes if not o.from_cache)
            return lambda item: fixed
        # Loaded before the workers start, so they share one of each and a
        # missing `teacher:` block fails before the first target call.
        _ = self.pool_items, self.teacher, self.index, self.manifest
        position = {item.id: i for i, item in enumerate(items)}
        ranked: set[str] = set()
        pending: dict[str, NeighborSet] = {}
        lock = threading.Lock()

        def provider(item: McqItem):
            if item.id in self._knn:
                return self._knn[item.id]
            exemplars = self.manifest_exemplars(item)
            if exemplars is not None:
                return exemplars
            # A miss ranks the item with the next unranked ones the manifest
            # does not list, one block in one product. Each worker builds its
            # own item's exemplars outside the lock, so teacher calls for
            # different items still overlap and an error stays with its item.
            with lock:
                neighbor_set = pending.pop(item.id, None)
                if neighbor_set is None:
                    start = position[item.id]
                    block = [item] + [
                        other for other in items[start + 1:start + QUERY_BLOCK]
                        if other.id not in ranked and other.id not in self._knn
                        and other.id not in self.manifest
                    ]
                    ranked.update(other.id for other in block)
                    for ranked_set in self.index.nearest_many(block, FEWSHOT_SIZE):
                        pending[ranked_set.query_id] = ranked_set
                    neighbor_set = pending.pop(item.id)
            exemplars, outcomes = build_exemplars(
                neighbor_set, self.index, self.pool_items, self.teacher, cache=self.cache,
            )
            self.outcomes.extend(o for o in outcomes if not o.from_cache)
            if any(e.item.id == item.id for e in exemplars):
                raise DataError(f"{item.id}: exemplar pool leaked the test item")
            self._knn[item.id] = exemplars
            return exemplars

        return provider


class _Teacher:
    """The config's teacher endpoint, opened by its first call.

    `model_id` is the config's, so the CoT cache and the manifest are keyed
    without opening the endpoint. Concurrent first calls open it once, under
    a lock, and add it to `opened` for `_Sources` to close. With `opened`
    None (dry runs) every call is a configuration error, and a config with
    no `teacher:` block reads as model "none".
    """

    def __init__(self, config: RunConfig, opened: list | None):
        self._config = config
        self._opened = opened
        self._lock = threading.Lock()
        self._endpoint = None
        self.model_id = config.teacher.model_id if config.teacher else "none"
        if not self.model_id and opened is not None:
            # An empty `model` takes the id a `mock:` policy file names.
            self.model_id = self._open().model_id

    def _open(self):
        with self._lock:
            if self._endpoint is None:
                self._endpoint = build_endpoint(self._config.teacher, self._config.retry)
                self._opened.append(self._endpoint)
            return self._endpoint

    def complete(self, request):
        if self._opened is None:
            raise ConfigError(
                "dry run would need a teacher call; run `gen-cot` first to warm the cache"
            )
        return self._open().complete(request)


def _trace_path(config: RunConfig, dataset: Dataset, stage: Stage) -> Path:
    return config.output_dir / dataset.value / f"{stage.value}.trace.jsonl"


def _limited(items: list[McqItem], limit: int | None) -> list[McqItem]:
    if limit is not None and limit < 1:
        raise ConfigError(f"--limit must be >= 1, got {limit}")
    return items[:limit]


def _answer_options(config: RunConfig) -> dict:
    """The `answer_stage_item` options a config sets, for runs and dry runs alike."""
    return {"seed": config.seed, "ensemble": config.ensemble,
            "max_tries": config.max_validity_tries}


def _run_stage(sources: _Sources, stage: Stage, resume: bool, concurrency: int | None) -> dict:
    config, dataset, items = sources.config, sources.dataset, sources.items
    instruction = instruction_for(config, dataset)
    provider = sources.exemplars_for(stage, items)
    trace_path = _trace_path(config, dataset, stage)
    target = build_endpoint(config.target, config.retry)
    try:
        rows = run_benchmark(
            items,
            stage,
            target,
            instruction,
            provider,
            trace_path,
            concurrency=concurrency if concurrency is not None else config.concurrency,
            resume=resume,
            **_answer_options(config),
        )
    finally:
        _close(target)
    report = _stage_report(sources, stage, rows)
    click.echo(
        f"{dataset.value}/{stage.value}: {report['accuracy_percent']:.1f}% "
        f"({report['n_correct']}/{report['n_items']}), "
        f"{report['invalid_count']} invalid, trace {trace_path}"
    )
    return report


def _stage_report(sources: _Sources, stage: Stage, rows: list[dict]) -> dict:
    """The stage's report over the command's items, written beside its trace."""
    config, dataset = sources.config, sources.dataset
    report = build_report(rows, dataset, stage, config_fingerprint(config, dataset),
                          [item.id for item in sources.items])
    write_report(report, config.output_dir / dataset.value / f"{stage.value}.report.json")
    return report


class _Sent(Exception):
    """The request `_DryRunTarget` was asked to send."""


class _DryRunTarget:
    """Target stand-in for dry runs: the first call ends the item, carrying its request."""

    def __init__(self, model_id: str):
        self.model_id = model_id

    def complete(self, request):
        raise _Sent(request)


def _print_dry_run(sources: _Sources, stage: Stage):
    """Print the first request a run of the stage would send: its first item's run 0."""
    config, dataset, items = sources.config, sources.dataset, sources.items
    if not items:
        raise DataError(f"{dataset.value}: no test items")
    item = items[0]
    try:
        answer_stage_item(item, stage, instruction_for(config, dataset),
                          sources.exemplars_for(stage, [item])(item),
                          _DryRunTarget(config.target.model_id), **_answer_options(config))
    except _Sent as sent:
        [request] = sent.args
    click.echo(request.prompt)
    click.echo("---")
    click.echo(f"model: {request.model_id}")
    click.echo(f"stage: {stage.value}  items: {len(items)}")
    click.echo(f"temperature: {request.temperature}  max_tokens: {request.max_tokens}  "
               f"stop: {json.dumps(list(request.stop_sequences))}  seed: {request.seed}")
    if stage is Stage.ENSEMBLE:
        click.echo(f"ensemble runs: {config.ensemble.n_runs} (shuffled options per run)")


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
@click.option("--dataset", "dataset_name", required=True)
@click.option("--stage", "stage_name", required=True, type=click.Choice(STAGE_NAMES))
@click.option("--resume", is_flag=True, help="Continue a partially written trace.")
@click.option("--dry-run", is_flag=True, help="Print the first prompt and parameters; no calls.")
@click.option("--concurrency", type=click.IntRange(min=1), default=None)
@click.option("--limit", type=int, default=None, help="Evaluate only the first N items.")
def run(config_path: Path, dataset_name: str, stage_name: str, resume: bool, dry_run: bool,
        concurrency: int | None, limit: int | None):
    """Run one prompting stage over a dataset's test split."""
    config = load_config(config_path)
    dataset = _dataset(dataset_name)
    stage = Stage(stage_name)
    with _Sources(config, dataset, limit, allow_teacher=not dry_run) as sources:
        if dry_run:
            _print_dry_run(sources, stage)
        else:
            _run_stage(sources, stage, resume, concurrency)


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
@click.option("--dataset", "dataset_name", required=True)
@click.option("--concurrency", type=click.IntRange(min=1), default=None)
@click.option("--limit", type=int, default=None)
def ablate(config_path: Path, dataset_name: str, concurrency: int | None, limit: int | None):
    """Run every ladder stage in order and tabulate the ablation."""
    config = load_config(config_path)
    dataset = _dataset(dataset_name)
    with _Sources(config, dataset, limit) as sources:
        reports = [_run_stage(sources, stage, resume=True, concurrency=concurrency)
                   for stage in LADDER]
    _write_ablation(config, dataset, reports)


def _write_ablation(config: RunConfig, dataset: Dataset, reports: list[dict]) -> None:
    """Write `ablation.json` and `ablation.txt` beside the traces; echo the text."""
    table = ablation(reports)
    out_dir = config.output_dir / dataset.value
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ablation.json").write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    text = render_ablation_text(table)
    (out_dir / "ablation.txt").write_text(text, encoding="utf-8")
    click.echo(text, nl=False)


@cli.command("gen-cot")
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
@click.option("--dataset", "dataset_name", required=True)
@click.option("--kind", type=click.Choice(["knn", "random"]), default="knn")
@click.option("--limit", type=int, default=None, help="Only the first N test items (knn).")
def gen_cot(config_path: Path, dataset_name: str, kind: str, limit: int | None):
    """Pre-generate verified exemplar explanations into the cache.

    Exemplars come from the stages' own providers. `--kind knn` also writes
    the exemplar manifest, which kNN stages read instead of ranking and
    verifying again.
    """
    config = load_config(config_path)
    dataset = _dataset(dataset_name)
    with _Sources(config, dataset, limit, writes_manifest=kind == "knn") as sources:
        if kind == "random":
            sources.exemplars_for(Stage.RANDOM_FEWSHOT_COT, sources.items)
            done = f"{FEWSHOT_SIZE} random exemplars verified"
        else:
            provider = sources.exemplars_for(Stage.KNN_FEWSHOT_COT, sources.items)
            exemplar_ids = {item.id: [e.item.id for e in provider(item)]
                            for item in sources.items}
            save_exemplar_manifest(sources.manifest_path, sources.manifest_header, exemplar_ids)
            done = f"exemplars ready for {len(sources.items)} items"
    fresh = sum(o.accepted for o in sources.outcomes)
    suffix = "" if kind == "random" else f" -> {sources.manifest_path}"
    click.echo(f"{dataset.value}: {done} ({fresh} explanations newly generated){suffix}")


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
@click.option("--dataset", "dataset_name", required=True)
@click.option("--limit", type=int, default=None)
def report(config_path: Path, dataset_name: str, limit: int | None):
    """Rebuild reports from existing traces; tabulate when the ladder is complete."""
    from .runner import read_trace

    config = load_config(config_path)
    dataset = _dataset(dataset_name)
    sources = _Sources(config, dataset, limit)
    reports = []
    for stage in LADDER:
        rows = read_trace(_trace_path(config, dataset, stage))
        if not rows:
            continue
        rep = _stage_report(sources, stage, rows)
        reports.append(rep)
        click.echo(f"{stage.value}: {rep['accuracy_percent']:.1f}% "
                   f"({rep['n_correct']}/{rep['n_items']})")
    if not reports:
        raise DataError(f"{dataset.value}: no traces under {config.output_dir}")
    if len(reports) == len(LADDER):
        _write_ablation(config, dataset, reports)
    if dataset is Dataset.MMLU_MED:
        best = reports[-1]
        rows = read_trace(_trace_path(config, dataset, Stage(best["stage"])))
        breakdown = subject_breakdown(scored_rows(rows, [item.id for item in sources.items]),
                                      sources.items)
        (config.output_dir / dataset.value / "subjects.json").write_text(
            json.dumps(breakdown, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        for subject, stats in breakdown["subjects"].items():
            click.echo(f"  {subject}: {stats['accuracy_percent']:.1f}% "
                       f"({stats['n_correct']}/{stats['n_items']})")


def main(argv=None) -> int:
    """Entry point with stable exit codes."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
        return 0 if result is None else int(result or 0)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except DataError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except EndpointError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except IncompleteRunError as exc:
        click.echo(f"error: {exc}", err=True)
        return 4
    except click.Abort:
        click.echo("aborted", err=True)
        return 130


if __name__ == "__main__":
    sys.exit(main())
