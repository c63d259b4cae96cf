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
    EndpointConfig,
    RunConfig,
    build_endpoint,
    config_fingerprint,
    instruction_for,
    load_config,
)
from .corpus import (CorpusFile, CorpusStore, Dataset, McqItem, PoolView, Split, load_dataset,
                     read_normalized, write_atomically)
from .errors import ConfigError, DataError, EndpointError, IncompleteRunError
from .metrics import (
    ablation,
    build_report,
    render_ablation_text,
    scored_rows,
    subject_breakdown,
    write_report,
)
from .modelgw import GenerationRequest, GenerationResponse
from .promptkit import FEWSHOT_SIZE
from .retrieval import (QUERY_BLOCK, BuiltinProvider, EmbeddingError, NeighborSet,
                        RemoteProvider, VectorIndex, build_index)
from .runner import LADDER, Stage, answer_stage_item, run_benchmark
from .teacher import (CotCache, TeacherOutcome, build_exemplars, build_random_exemplars,
                      load_exemplar_manifest, save_exemplar_manifest)

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


def _embedding_provider(config: RunConfig, embedder):
    """The provider that embeds through `embedder`; None, the builtin one,
    when the config has no `embedding:` block."""
    return None if config.embedding is None else RemoteProvider(embedder, config.embedding.model_id)


def _provider_id(config: RunConfig) -> str:
    """The id of the provider `_embedding_provider` gives."""
    return (_embedding_provider(config, None) or BuiltinProvider()).provider_id


def _close(resource) -> None:
    """Close an endpoint; in-process ones hold nothing to close."""
    close = getattr(resource, "close", None)
    if close is not None:
        close()


def _build_index(config: RunConfig, dataset: Dataset, source: CorpusFile, pool: list,
                 provider) -> VectorIndex:
    """Build and save the index of `pool`, the records `source.questions()` gave."""
    try:
        index = build_index(pool, provider=provider, pool_sha256=source.sha256)
    except EmbeddingError as exc:
        raise DataError(f"{source.path}: line {source.lineno(source.offsets()[exc.row])}: "
                        f"{exc}") from None
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
    embedder = build_endpoint(config.embedding, config.retry) if config.embedding else None
    try:
        index = _build_index(config, dataset, source, pool,
                             _embedding_provider(config, embedder))
    finally:
        _close(embedder)
    click.echo(f"{dataset.value}: indexed {len(index)} pool items "
               f"({index.provider.provider_id}) -> {_index_path(config, dataset)}")


class _Sources:
    """What one command's stages draw on, each read or built at most once.

    The test split is read on construction; the pool file, its index and the
    exemplar manifest on first use. `cache` is the CoT cache of the config's
    teacher model (`"none"` without a `teacher:` block); its fingerprint
    heads the manifest. It and the embedding provider's id come from the
    config, so a stage the manifest and the cache fully cover calls no
    teacher and opens no index. Stages parse only the pool items they look
    up: random stages by the ids `CorpusFile.questions` reads, kNN stages at
    the byte offsets the manifest records, each listed exemplar parsed and
    its line checked against the cache once, or by the ids of an index built
    from the pool file's exact bytes. kNN exemplars are built once per test
    item and kept, so the kNN and ensemble stages of one `ablate` share them;
    query vectors live only until their item's exemplars are built.
    `outcomes` collects the outcome of every candidate the providers asked
    the teacher about; cache hits are not kept.

    `writes_manifest` marks a command that replaces the exemplar manifest,
    so a stale one is ignored without a warning. `stages` are the stages the
    command runs or builds exemplars for, and `runs_target` marks a command
    that sends them to the target. Construction builds, once for the
    command, the endpoints those stages need: `target` for such a command,
    `embedder` for a kNN stage when the config has an `embedding:` block and
    `teacher` for a chain-of-thought stage. Building an endpoint is its
    check, so a fault in any block fails before any call; an endpoint
    acquires nothing before its first call, and used as a context manager
    `_Sources` closes them all, and the append handle the cache opened on
    its first `put`. A dry run builds none and calls nothing:
    each endpoint is a `_DryRun` stand-in that records its requests. The
    target answers each with no text; the teacher and embedder refuse every
    call with a `ConfigError` naming the command to run first, as an index
    build does. It reads the manifest row of its first item only.
    """

    def __init__(self, config: RunConfig, dataset: Dataset, limit: int | None,
                 dry_run: bool = False, writes_manifest: bool = False,
                 stages: tuple[Stage, ...] = (), runs_target: bool = False):
        self.config = config
        self.dataset = dataset
        self.store = CorpusStore(config.corpus_dir)
        self.test_file = self.store.split_file(dataset, Split.TEST)
        all_items = read_normalized(self.test_file)
        self.test_ids = {item.id for item in all_items}
        self.items = _limited(all_items, limit)
        self._listed = {item.id for item in (self.items[:1] if dry_run else self.items)}
        self.dry_run = dry_run
        self.writes_manifest = writes_manifest
        self.cache = CotCache(config.cache_dir,
                              config.teacher.model_id if config.teacher else "none")
        self.outcomes: list[TeacherOutcome] = []
        self._knn: dict[str, list] = {}
        self._built: list = []
        self.target = self._build(config.target) if runs_target else None
        self.embedder = self.teacher = None
        if config.embedding is not None and any(s.knn for s in stages):
            self.embedder = self._build(config.embedding, "dry run would need an embedding call; "
                                        "run `gen-cot` first so the exemplar manifest covers "
                                        "the item")
        if any(s.cot for s in stages):
            if config.teacher is None and not dry_run:
                raise ConfigError("this stage needs a teacher endpoint; add a `teacher:` block")
            self.teacher = self._build(config.teacher, "dry run would need a teacher call; "
                                       "run `gen-cot` first to warm the cache")

    def _build(self, spec: EndpointConfig | None, dry_run_hint: str = ""):
        """The endpoint `spec` describes, closed on exit; in a dry run, its
        `_DryRun` stand-in with `dry_run_hint`."""
        if self.dry_run:
            return _DryRun(spec.model_id if spec else "none", dry_run_hint)
        endpoint = build_endpoint(spec, self.config.retry)
        self._built.append(endpoint)
        return endpoint

    def __enter__(self) -> "_Sources":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.cache.close()
        finally:
            for endpoint in self._built:
                _close(endpoint)

    @cached_property
    def pool_file(self) -> CorpusFile:
        return self.store.pool_file(self.dataset)

    @cached_property
    def pool_questions(self) -> list:
        """The pool's ids and questions, checked against the test split's
        ids; `pool_items` then maps every pool id."""
        pool = self.pool_file.questions()
        ids = [record.id for record in pool]
        self.store.check_disjoint(self.dataset, ids, self.test_ids)
        self.pool_items.learn(ids)
        return pool

    @cached_property
    def index(self) -> VectorIndex:
        """The pool's index, loaded if built from the pool file's current
        bytes; `pool_items` then maps every pool id."""
        path = _index_path(self.config, self.dataset)
        if self.dry_run and not path.exists():
            raise ConfigError("dry run would need to build the index; "
                              "run `index` or `gen-cot` first")
        provider = _embedding_provider(self.config, self.embedder)
        if not path.exists():
            return _build_index(self.config, self.dataset, self.pool_file,
                                self.pool_questions, provider)
        index = VectorIndex.load(path, provider=provider)
        if index.pool_sha256 != self.pool_file.sha256:
            raise DataError(f"{path}: not built from the current {self.pool_file.path} "
                            f"(pool_sha256 {index.pool_sha256 or 'not recorded'}); "
                            f"rebuild with `medharness index`")
        # The digest matches, so the pool's ids are the index's, checked for
        # validity and uniqueness when `index` read these bytes.
        self.store.check_disjoint(self.dataset, index.ids, self.test_ids)
        self.pool_items.learn(index.ids)
        return index

    @cached_property
    def pool_items(self) -> PoolView:
        """The command's pool items, one `McqItem` per id across its stages:
        those the manifest lists, at its offsets, and every one once a random
        stage has read the pool's ids or the index is loaded."""
        return PoolView(self.pool_file)

    @property
    def manifest_path(self) -> Path:
        return self.config.cache_dir / "exemplars" / f"{self.dataset.value}.jsonl"

    @property
    def manifest_header(self) -> dict:
        """What a kNN exemplar set depends on besides its test item's id."""
        return {
            "schema": 3,
            "pool_sha256": self.pool_file.sha256,
            "provider_id": _provider_id(self.config),
            "teacher": self.cache.fingerprint,
            "test_sha256": self.test_file.sha256,
        }

    @cached_property
    def manifest(self) -> dict[str, tuple[str, ...]]:
        """Exemplar ids per command item (a dry run's first item) from
        `gen-cot`'s manifest, if it matches, checked against the test split's
        ids; each exemplar listed is parsed into `pool_items` once, here."""
        manifest = load_exemplar_manifest(self.manifest_path, self.manifest_header,
                                          self.pool_items, self._listed,
                                          warn_stale=not self.writes_manifest)
        listed = sorted({exemplar_id for ids in manifest.values() for exemplar_id in ids})
        self.store.check_disjoint(self.dataset, listed, self.test_ids)
        return manifest

    def manifest_exemplars(self, item: McqItem):
        """The exemplars the manifest lists for an item, kept; None unless the
        cache holds every one of them. The cache digests each exemplar's pool
        line once per command, however many items list it."""
        exemplars = []
        for exemplar_id in self.manifest.get(item.id, ()):
            exemplar = self.cache.get(self.pool_items[exemplar_id],
                                      self.pool_items.line(exemplar_id))
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
            _ = self.pool_questions  # maps every pool id, once per command
            fixed, outcomes = build_random_exemplars(
                self.pool_items, self.config.seed, teacher=self.teacher if stage.cot else None,
                cache=self.cache,
            )
            self.outcomes.extend(o for o in outcomes if not o.from_cache)
            return lambda item: fixed
        # Resolved before the workers start, so they share one of each: items
        # the manifest and the cache cover take their exemplars in order, and
        # the first that is not covered loads the index; the provider resolves
        # the items after it.
        if not all(item.id in self._knn or self.manifest_exemplars(item) is not None
                   for item in items):
            _ = self.index
        position = {item.id: i for i, item in enumerate(items)}
        ranked: set[str] = set()
        pending: dict[str, NeighborSet] = {}
        lock = threading.Lock()

        def provider(item: McqItem):
            exemplars = self._knn.get(item.id) or self.manifest_exemplars(item)
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


def _run_stage(sources: _Sources, stage: Stage, resume: bool) -> dict:
    config, dataset, items = sources.config, sources.dataset, sources.items
    instruction = instruction_for(config, dataset)
    provider = sources.exemplars_for(stage, items)
    trace_path = _trace_path(config, dataset, stage)
    rows = run_benchmark(
        items,
        stage,
        sources.target,
        instruction,
        provider,
        trace_path,
        concurrency=config.concurrency,
        resume=resume,
        **_answer_options(config),
    )
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


class _DryRun:
    """Endpoint stand-in for dry runs. It records every request, then refuses
    it with `hint` or, without one, answers with no text."""

    def __init__(self, model_id: str, hint: str):
        self.model_id = model_id
        self.hint = hint
        self.requests: list[GenerationRequest] = []

    def complete(self, request: GenerationRequest) -> GenerationResponse:
        self.requests.append(request)
        if self.hint:
            raise ConfigError(self.hint)
        return GenerationResponse("")

    def embed_batch(self, texts, model):
        raise ConfigError(self.hint)


def _print_dry_run(sources: _Sources, stage: Stage):
    """Print the first request a run of the stage would send: its first item's run 0."""
    config, dataset, items = sources.config, sources.dataset, sources.items
    if not items:
        raise DataError(f"{dataset.value}: no test items")
    item = items[0]
    answer_stage_item(item, stage, instruction_for(config, dataset),
                      sources.exemplars_for(stage, [item])(item), sources.target,
                      **_answer_options(config))
    request = sources.target.requests[0]
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
@click.option("--limit", type=int, default=None, help="Evaluate only the first N items.")
def run(config_path: Path, dataset_name: str, stage_name: str, resume: bool, dry_run: bool,
        limit: int | None):
    """Run one prompting stage over a dataset's test split."""
    config = load_config(config_path)
    dataset = _dataset(dataset_name)
    stage = Stage(stage_name)
    with _Sources(config, dataset, limit, dry_run=dry_run,
                  stages=(stage,), runs_target=True) as sources:
        if dry_run:
            _print_dry_run(sources, stage)
        else:
            _run_stage(sources, stage, resume)


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
@click.option("--dataset", "dataset_name", required=True)
@click.option("--limit", type=int, default=None)
def ablate(config_path: Path, dataset_name: str, limit: int | None):
    """Run every ladder stage in order and tabulate the ablation."""
    config = load_config(config_path)
    dataset = _dataset(dataset_name)
    with _Sources(config, dataset, limit, stages=LADDER, runs_target=True) as sources:
        reports = [_run_stage(sources, stage, resume=True) for stage in LADDER]
    _write_ablation(config, dataset, reports)


def _write_ablation(config: RunConfig, dataset: Dataset, reports: list[dict]) -> None:
    """Write `ablation.json` and `ablation.txt` beside the traces; echo the text."""
    table = ablation(reports)
    out_dir = config.output_dir / dataset.value
    write_report(table, out_dir / "ablation.json")
    text = render_ablation_text(table)
    write_atomically(out_dir / "ablation.txt", text)
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
    stage = Stage.KNN_FEWSHOT_COT if kind == "knn" else Stage.RANDOM_FEWSHOT_COT
    with _Sources(config, dataset, limit, writes_manifest=kind == "knn",
                  stages=(stage,)) as sources:
        provider = sources.exemplars_for(stage, sources.items)
        if kind == "random":
            done = f"{FEWSHOT_SIZE} random exemplars verified"
        else:
            exemplar_ids = {item.id: [e.item.id for e in provider(item)]
                            for item in sources.items}
            save_exemplar_manifest(sources.manifest_path, sources.manifest_header, exemplar_ids,
                                   sources.pool_items)
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
        last_rows = rows
        rep = _stage_report(sources, stage, rows)
        reports.append(rep)
        click.echo(f"{stage.value}: {rep['accuracy_percent']:.1f}% "
                   f"({rep['n_correct']}/{rep['n_items']})")
    if not reports:
        raise DataError(f"{dataset.value}: no traces under {config.output_dir}")
    if len(reports) == len(LADDER):
        _write_ablation(config, dataset, reports)
    if dataset is Dataset.MMLU_MED:
        # The subject breakdown is of the last ladder stage that has a trace.
        breakdown = subject_breakdown(scored_rows(last_rows, [item.id for item in sources.items]),
                                      sources.items)
        write_report(breakdown, config.output_dir / dataset.value / "subjects.json")
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
